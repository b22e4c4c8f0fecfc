"""Full-machine instrumentation: counter consistency and samplers."""

import os
import sys
from collections import Counter

import pytest

import repro.obs
from repro.config import MachineConfig
from repro.obs import instrument_machine, machine_metrics
from repro.system.builder import build_machine
from repro.workloads.synthetic import DuboisBriggsWorkload


def _instrumented_run(protocol="twobit", **obs_kwargs):
    workload = DuboisBriggsWorkload(
        n_processors=4, q=0.20, w=0.4, private_blocks_per_proc=32, seed=1
    )
    config = MachineConfig(n_processors=4, n_modules=2, protocol=protocol)
    machine = build_machine(config, workload)
    obs = instrument_machine(machine, **obs_kwargs)
    machine.run(refs_per_proc=300, warmup_refs=50)
    return machine, obs


def test_span_histograms_agree_with_protocol_counters():
    # Every measured reference must retire exactly one span, classified
    # the same way the protocol counters classify it.
    machine, obs = _instrumented_run()
    counters = machine.registry.merged()
    expected = {
        "RM": counters.get("read_misses"),
        "WM": counters.get("write_misses"),
        "WH-unmod": counters.get("write_hits_unmodified"),
        "read-hit": counters.get("read_hits"),
        "write-hit": counters.get("write_hits"),
    }
    actual = {
        outcome: hist.summary()["count"]
        for outcome, hist in obs.latency.items()
    }
    assert actual == {k: v for k, v in expected.items() if v}
    assert sum(actual.values()) == 4 * 300  # one span per measured ref


@pytest.mark.parametrize("protocol", ["twobit", "fullmap", "fullmap_local"])
def test_directory_misses_record_directory_and_grant_phases(protocol):
    # Every directory home runs the same controller choreography, so a
    # miss span marks the directory visit and the grant whatever the map.
    _, obs = _instrumented_run(protocol)
    for key in ("RM/directory", "RM/grant", "WM/directory", "WM/grant"):
        assert key in obs.phases, (protocol, key, sorted(obs.phases))


def test_system_sampler_covers_all_subsystems():
    machine, obs = _instrumented_run(sample_interval=100)
    obs.flush(machine.sim.now)
    (sampler,) = obs.samplers
    assert sampler.windows, "run too short for any window"
    row = sampler.windows[0]
    assert "outstanding_refs" in row
    for ctrl in machine.controllers:
        assert f"{ctrl.name}.active" in row
        assert f"{ctrl.name}.queued" in row
        assert f"{ctrl.name}.mem_backlog" in row
    assert "traffic_units" in row and "commands" in row
    # Rates are per-window deltas: their sum equals the cumulative total.
    total = sum(w["traffic_units"] for w in sampler.windows)
    assert total == machine.network.counters.get("traffic_units")


def test_sample_interval_zero_disables_sampling():
    _, obs = _instrumented_run(sample_interval=0)
    assert obs.samplers == []


def test_machine_metrics_structure():
    machine, obs = _instrumented_run()
    metrics = machine_metrics(machine, obs)
    assert metrics["protocol"] == "twobit"
    assert metrics["n_processors"] == 4
    assert metrics["cycles"] == machine.sim.now
    assert set(metrics["latency"]) == set(obs.latency)
    for summary in metrics["latency"].values():
        assert {"count", "mean", "p50", "p95", "p99"} <= set(summary)
    # Misses visit the directory; hits stop at the cache lookup.
    assert "RM/directory" in metrics["phases"]
    assert "read-hit/lookup" in metrics["phases"]
    assert not any(
        key == f"read-hit/{phase}" for phase in ("directory", "fanout")
        for key in metrics["phases"]
    )
    assert metrics["counters"]["read_misses"] > 0


def _obs_calls(instrumented):
    """Functions in ``repro/obs/`` entered while a 4-processor machine
    is built, run and summarized, counted by name."""
    obs_dir = os.path.dirname(repro.obs.__file__) + os.sep
    calls = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(obs_dir):
            calls[frame.f_code.co_name] += 1

    workload = DuboisBriggsWorkload(
        n_processors=4, q=0.05, w=0.2, private_blocks_per_proc=32, seed=1
    )
    config = MachineConfig(n_processors=4, n_modules=2)
    sys.setprofile(profile)
    try:
        machine = build_machine(config, workload)
        if instrumented:
            instrument_machine(machine)
        machine.run(refs_per_proc=500)
        machine.results()
    finally:
        sys.setprofile(None)
    return calls


def test_probes_off_never_enter_repro_obs():
    # Zero-cost when off means no call at all, not a cheap one: every
    # probe site stops at its `obs is None` test.
    assert _obs_calls(instrumented=False) == Counter()
    # Control: the same profiler sees the hub at work once attached.
    calls = _obs_calls(instrumented=True)
    assert calls["span_end"] == 4 * 500
