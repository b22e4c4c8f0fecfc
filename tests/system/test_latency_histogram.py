"""Per-reference latency distributions, read from the observability hub.

The hub's per-outcome histograms are the only latency distribution the
simulator keeps; merged, they are what ``repro run -v`` prints.
"""

from repro.config import MachineConfig
from repro.obs import instrument_machine
from repro.stats.histogram import Histogram
from repro.system.builder import build_machine
from repro.workloads.synthetic import DuboisBriggsWorkload, UniformWorkload


def _run(workload, config, refs, warmup=0):
    """Build, instrument and run; returns (machine, merged histogram)."""
    machine = build_machine(config, workload)
    obs = instrument_machine(machine, sample_interval=0, keep_events=False)
    machine.run(refs_per_proc=refs, warmup_refs=warmup)
    return machine, Histogram.merged(
        obs.latency.values(), name="latency (cycles)"
    )


def _uniform(n, refs, seed=11):
    workload = UniformWorkload(
        n_processors=n, n_blocks=8, write_frac=0.4, seed=seed
    )
    config = MachineConfig(
        n_processors=n, n_modules=2, n_blocks=8, cache_sets=2,
        cache_assoc=2, protocol="twobit", seed=seed,
    )
    return _run(workload, config, refs)


def test_histogram_collects_all_references():
    _, hist = _uniform(n=2, refs=300)
    assert len(hist) == 600
    assert hist.min >= 1  # at least the cache cycle
    assert hist.max > hist.min  # misses are visibly slower than hits


def test_histogram_mean_matches_results():
    machine, hist = _uniform(n=4, refs=400)
    assert abs(hist.mean - machine.results().avg_latency) < 1e-9


def test_hits_dominate_the_distribution_under_locality():
    workload = DuboisBriggsWorkload(n_processors=2, q=0.02, seed=6)
    config = MachineConfig(
        n_processors=2, n_modules=1, n_blocks=workload.n_blocks
    )
    _, hist = _run(workload, config, refs=1500, warmup=300)
    # Median reference is a one-cycle cache hit; p99 shows the miss path.
    assert hist.percentile(0.5) == 1
    assert hist.percentile(0.99) > 10


def test_measurement_window_resets_histograms():
    workload = UniformWorkload(n_processors=2, n_blocks=8, seed=2)
    config = MachineConfig(
        n_processors=2, n_modules=1, n_blocks=8, cache_sets=2, cache_assoc=2
    )
    _, hist = _run(workload, config, refs=100, warmup=500)
    assert len(hist) == 200  # warm-up samples excluded


def test_render_is_presentable():
    _, hist = _uniform(n=2, refs=200)
    text = hist.render()
    assert "latency" in text and "p95" in text
