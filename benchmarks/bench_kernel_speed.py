"""Simulator throughput: the substrate's own performance.

Not a paper experiment — this keeps the discrete-event kernel and the
full two-bit machine honest as the library grows (pytest-benchmark's
timing statistics are the point here, unlike the pedantic one-shot
paper benches)."""

from repro.config import MachineConfig
from repro.sim.kernel import Simulator
from repro.system.builder import build_machine
from repro.workloads.synthetic import DuboisBriggsWorkload


def test_kernel_event_throughput(benchmark):
    def churn():
        sim = Simulator()
        count = 10_000

        def tick(i):
            if i < count:
                sim.post(1, tick, i + 1)

        sim.post(0, tick, 0)
        sim.run()
        return sim.events_processed

    events = benchmark(churn)
    assert events == 10_001


def _reference_setup():
    workload = DuboisBriggsWorkload(
        n_processors=4, q=0.05, w=0.2, private_blocks_per_proc=64, seed=3
    )
    config = MachineConfig(
        n_processors=4, n_modules=2, n_blocks=workload.n_blocks
    )
    return config, workload


def test_machine_reference_throughput(benchmark):
    """Headline machine throughput."""
    config, workload = _reference_setup()

    def run():
        machine = build_machine(config, workload)
        machine.run(refs_per_proc=500)
        return machine.results().total_refs

    refs = benchmark(run)
    assert refs == 2000


def _dispatch_setup():
    # One processor, private pool fully cache-resident: after warm-up
    # every reference is a hit, so the measurement is (almost) pure
    # table-driven hit dispatch.
    workload = DuboisBriggsWorkload(
        n_processors=1, q=0.0, private_blocks_per_proc=16, locality=0.6,
        seed=9,
    )
    config = MachineConfig(
        n_processors=1, n_modules=1, n_blocks=workload.n_blocks,
        cache_sets=8, cache_assoc=4,
    )
    return config, workload


def test_dispatch_hit(benchmark):
    config, workload = _dispatch_setup()

    def run():
        machine = build_machine(config, workload)
        machine.run(refs_per_proc=2000, warmup_refs=100)
        return machine.results().total_refs

    refs = benchmark(run)
    assert refs == 2000


def test_machine_instrumented_throughput(benchmark):
    """Same machine with telemetry on (metrics-only mode): measures the
    probe cost itself, not a regression bar.  The probes-off bar is the
    ``--gate`` mode of record_bench.py."""
    from repro.obs import instrument_machine

    workload = DuboisBriggsWorkload(
        n_processors=4, q=0.05, w=0.2, private_blocks_per_proc=64, seed=3
    )
    config = MachineConfig(
        n_processors=4, n_modules=2, n_blocks=workload.n_blocks
    )

    def run():
        machine = build_machine(config, workload)
        instrument_machine(machine, sample_interval=200, keep_events=False)
        machine.run(refs_per_proc=500)
        return machine.results().total_refs

    refs = benchmark(run)
    assert refs == 2000
