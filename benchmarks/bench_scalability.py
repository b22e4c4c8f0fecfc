"""End-to-end scalability: throughput as the machine grows.

The paper's metric (commands per reference) is a proxy; what a machine
buyer cares about is whether adding processors adds throughput.  This
bench grows the two-bit machine and its full-map reference from 2 to 16
processors at moderate sharing and reports cycles per reference (lower
is better) and aggregate throughput — showing where the broadcast
premium starts to eat the added processors.

The peak-n bench below extends the sweep to the large-n regime
(n=256): simulator throughput with the sparse broadcast fan-out versus
the dense path on a low-sharing workload, where dense fan-out pays
n-1 per-cache events per store for caches that hold no copy.
"""

from time import perf_counter

from repro.config import MachineConfig, sparse_options
from repro.stats.tables import Table
from repro.system.builder import build_machine
from repro.verification.audit import audit_machine
from repro.workloads.synthetic import DuboisBriggsWorkload, ScriptedWorkload

from repro.runner import SweepPoint

from benchmarks.conftest import emit, run_bench_sweep

N_VALUES = (2, 4, 8, 16)
REFS = 1200

#: Large-n regime for the sparse fan-out bench.
PEAK_N = 256
PEAK_REFS_PER_PROC = 60
PEAK_REFS = PEAK_N * PEAK_REFS_PER_PROC


def run(protocol, n, seed=1984):
    workload = DuboisBriggsWorkload(
        n_processors=n, q=0.05, w=0.2, private_blocks_per_proc=64, seed=seed
    )
    config = MachineConfig(
        n_processors=n,
        n_modules=4,
        n_blocks=workload.n_blocks,
        protocol=protocol,
    )
    machine = build_machine(config, workload)
    machine.run(refs_per_proc=REFS, warmup_refs=300)
    audit_machine(machine).raise_if_failed()
    r = machine.results()
    cycles_per_ref = r.cycles * n / r.total_refs  # per-processor pace
    throughput = r.total_refs / r.cycles  # refs per cycle, machine-wide
    return cycles_per_ref, throughput


def sweep():
    points = [
        SweepPoint(run, {"protocol": protocol, "n": n, "seed": 1984},
                   key=(protocol, n))
        for protocol in ("twobit", "fullmap")
        for n in N_VALUES
    ]
    report = run_bench_sweep(points, label="scalability")
    return {
        protocol: {n: report.by_key[(protocol, n)] for n in N_VALUES}
        for protocol in ("twobit", "fullmap")
    }


def test_throughput_scales_with_processors(benchmark):
    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table = Table(
        header=["n", "2bit cyc/ref", "2bit refs/cyc", "fmap cyc/ref",
                "fmap refs/cyc"],
        title="Scalability at moderate sharing (q=0.05, w=0.2, 4 modules)",
        precision=3,
    )
    for n in N_VALUES:
        tb = results["twobit"][n]
        fm = results["fullmap"][n]
        table.add_row([str(n), tb[0], tb[1], fm[0], fm[1]])
    emit("scalability.txt", table.render())

    # Aggregate throughput must still grow with n for both protocols at
    # this sharing level (the paper's claim that the scheme is viable at
    # moderate sharing up to 16 processors).
    for protocol in ("twobit", "fullmap"):
        series = [results[protocol][n][1] for n in N_VALUES]
        assert series == sorted(series), protocol
    # The two-bit machine pays a growing but bounded premium vs the full
    # map: at n=16 and q=0.05 it stays within 25% of full-map throughput.
    ratio = results["twobit"][16][1] / results["fullmap"][16][1]
    assert 0.75 < ratio <= 1.02


def _peak_workload():
    """The peak-n reference streams, materialized once per process.

    Generating Dubois-Briggs references costs several microseconds per
    reference — a fifth of the sparse twin's whole per-reference budget
    and identical for both twins.  Scripting the streams up front keeps
    the timed region to what the bench actually compares: protocol +
    interconnect simulation with and without the fan-out index.
    """
    cached = getattr(_peak_workload, "cached", None)
    if cached is None:
        source = DuboisBriggsWorkload(
            n_processors=PEAK_N, q=0.005, w=0.7,
            private_blocks_per_proc=4, seed=1984,
        )
        scripts = [
            source.take(pid, PEAK_REFS_PER_PROC) for pid in range(PEAK_N)
        ]
        cached = _peak_workload.cached = (
            ScriptedWorkload(scripts), source.n_blocks
        )
    return cached


def _peak_machine(sparse):
    # Low sharing, write-heavy: the regime where dense fan-out is pure
    # overhead (private blocks are never cached elsewhere, yet every
    # store signals all n-1 caches on the dense path).
    workload, n_blocks = _peak_workload()
    config = MachineConfig(
        n_processors=PEAK_N,
        n_modules=4,
        n_blocks=n_blocks,
        cache_sets=4,
        cache_assoc=2,
        protocol="classical",
        network="xbar",
        options=sparse_options(),
        sparse_fanout=sparse,
    )
    return build_machine(config, workload)


def _timed_run(sparse):
    """Wall-clock of the simulation alone (build and audit excluded)."""
    machine = _timed_run.machine = _peak_machine(sparse)
    start = perf_counter()
    machine.run(refs_per_proc=PEAK_REFS_PER_PROC)
    return perf_counter() - start


def test_sparse_fanout_peak_n(benchmark):
    """Sparse vs dense fan-out at n=256 on a low-sharing workload.

    Best-of-N after a warmup round for both variants, with the dense
    and sparse rounds interleaved so a host-speed shift mid-bench hits
    both twins rather than skewing the ratio.  The sparse run is the
    pytest-benchmark subject; the dense twin is timed the same way
    inline.
    """
    _timed_run(True)  # warmup
    _timed_run(False)
    dense_times = []
    sparse_times = []
    for _ in range(3):
        dense_times.append(_timed_run(False))
        sparse_times.append(_timed_run(True))
    dense_best = min(dense_times)

    def run_sparse():
        sparse_times.append(_timed_run(True))
        return _timed_run.machine

    machine = benchmark.pedantic(run_sparse, rounds=3, iterations=1)
    audit_machine(machine).raise_if_failed()
    assert machine.results().total_refs == PEAK_REFS
    sparse_best = min(sparse_times)

    speedup = dense_best / sparse_best
    benchmark.extra_info["dense_refs_per_sec"] = round(PEAK_REFS / dense_best)
    benchmark.extra_info["sparse_refs_per_sec"] = round(PEAK_REFS / sparse_best)
    benchmark.extra_info["speedup_vs_dense"] = round(speedup, 2)
    table = Table(
        header=["fan-out", "best run (s)", "refs/s"],
        title=(
            f"Sparse fan-out at n={PEAK_N} "
            f"(classical, q=0.005, w=0.7, {PEAK_REFS} refs)"
        ),
        precision=3,
    )
    table.add_row(["dense", dense_best, PEAK_REFS / dense_best])
    table.add_row(["sparse", sparse_best, PEAK_REFS / sparse_best])
    emit("sparse_fanout_peak_n.txt", table.render() + f"\nspeedup: {speedup:.2f}x")

    # The acceptance bar: routing fan-out through the copy-holder index
    # must buy at least 5x simulator throughput in this regime.
    assert speedup >= 5.0, f"sparse fan-out speedup only {speedup:.2f}x"
