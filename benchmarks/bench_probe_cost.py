"""Probe cost: instrumented vs bare throughput of one machine.

The observability hub (``repro.obs``) is the only code that runs when
probes are on and not when they are off, so its cost is the ratio of
two throughputs of the same machine measured in the same process:
``instrumented refs/s ÷ bare refs/s``.

Host speed on shared hardware swings by tens of percent within a
second, so whole runs timed one after the other give ratios that
spread wider than the slowdown the gate must catch.  Each pair
therefore builds a bare and an instrumented machine and runs them in
alternating slices of ``SLICE`` references per processor, summing each
side's time; a host-speed change hits both sides of a pair almost
equally.  The side that runs first flips every pair, and the gate
takes the median of the per-pair ratios, which ignores the odd pair
that a garbage collection or a scheduler hiccup lands on.

The probes-off cost is not timed here: ``tests/obs/test_attach.py``
checks that a bare machine never enters ``repro.obs`` at all.

    PYTHONPATH=src python -m pytest benchmarks/bench_probe_cost.py \
        --benchmark-only -q -s
"""

from statistics import median
from time import perf_counter

from repro.config import MachineConfig
from repro.obs import instrument_machine
from repro.system.builder import build_machine
from repro.workloads.synthetic import DuboisBriggsWorkload

N_PROCESSORS = 4
REFS_PER_PROC = 1500
SLICE = 100
PAIRS = 11

#: Lowest median ratio the gate accepts; see docs/performance.md for
#: the runs that sized it.
FLOOR = 0.69


def _machine(instrumented):
    """The ``mixed`` machine: twobit, 4 processors, 2 modules, xbar."""
    workload = DuboisBriggsWorkload(
        n_processors=N_PROCESSORS, q=0.05, w=0.2,
        private_blocks_per_proc=64, seed=3,
    )
    config = MachineConfig(
        n_processors=N_PROCESSORS, n_modules=2, n_blocks=workload.n_blocks
    )
    machine = build_machine(config, workload)
    if instrumented:
        instrument_machine(machine, keep_events=False)
    return machine


def _pair_ratio(instrumented_first):
    """instrumented÷bare refs/s of one pair run in alternating slices."""
    machines = {False: _machine(False), True: _machine(True)}
    elapsed = {False: 0.0, True: 0.0}
    order = (True, False) if instrumented_first else (False, True)
    for _ in range(REFS_PER_PROC // SLICE):
        for side in order:
            start = perf_counter()
            machines[side].run(refs_per_proc=SLICE)
            elapsed[side] += perf_counter() - start
    for machine in machines.values():
        assert machine.results().total_refs == N_PROCESSORS * REFS_PER_PROC
    # Both sides did the same number of references.
    return elapsed[False] / elapsed[True]


def probe_cost_ratios():
    """Per-pair ratios after one warm-up pair, first side flipped."""
    _pair_ratio(False)
    return [_pair_ratio(bool(i % 2)) for i in range(PAIRS)]


def test_probe_cost_ratio(benchmark):
    ratios = benchmark.pedantic(probe_cost_ratios, rounds=1, iterations=1)
    ratio = median(ratios)
    print(
        f"\nprobe cost: instrumented/bare refs/s median {ratio:.3f} "
        f"over {len(ratios)} pairs (floor {FLOOR}); per-pair ratios "
        + " ".join(f"{r:.3f}" for r in ratios)
    )
    assert ratio >= FLOOR, (
        f"instrumented throughput fell to {ratio:.3f}x bare "
        f"(floor {FLOOR}); per-pair ratios {sorted(ratios)}"
    )
