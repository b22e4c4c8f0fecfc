"""Golden record -> replay: a run re-emitted as a trace rebuilds the
bit-identical machine.

``Experiment.run(record_trace=...)`` captures the reference stream at
the observability layer (one event per issued ref, warmup included);
replaying it via ``workload="trace:..."`` must reproduce the source
machine exactly — same machine state, merged counters and event count
(:func:`repro.checkpoint.fingerprint`) — for every protocol.
"""

import pytest

from repro.api import Experiment
from repro.checkpoint import fingerprint

PROTOCOLS = ("twobit", "fullmap")


def _experiment(protocol):
    return Experiment(
        protocol=protocol,
        n_processors=3,
        refs_per_proc=300,
        warmup_refs=100,
        q=0.1,
        w=0.3,
        seed=42,
    )


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_record_replay_bit_identical(protocol, tmp_path):
    path = str(tmp_path / f"{protocol}.trace")
    source = _experiment(protocol)
    out1 = source.run(record_trace=path)
    fp1 = fingerprint(out1.machine)
    counters1 = out1.machine.registry.merged().snapshot()

    replay = source.variant(workload=f"trace:{path}")
    out2 = replay.run()
    fp2 = fingerprint(out2.machine)
    counters2 = out2.machine.registry.merged().snapshot()

    assert fp1 == fp2, f"{protocol}: fingerprint drift"
    assert counters1 == counters2, f"{protocol}: counter drift"
    assert out1.results.to_dict() == out2.results.to_dict()


def test_recorded_trace_declares_source_shape(tmp_path):
    """The trace must carry the *machine's* shape, not the observed
    maxima — replaying a run whose highest-numbered block was never
    touched must still size the directory identically."""
    from repro.workloads.traces import scan_trace_meta

    path = str(tmp_path / "shape.trace")
    source = _experiment("twobit")
    out = source.run(record_trace=path)
    meta = scan_trace_meta(path)
    assert meta.n_processors == out.machine.config.n_processors
    assert meta.n_blocks == out.machine.config.n_blocks


def test_workload_spec_equals_legacy_kwargs():
    """The API-redesign shim: ``workload="dubois:low"`` builds the
    bit-identical machine to the scattered legacy sharing kwargs."""
    legacy = Experiment(
        protocol="twobit", n_processors=3, refs_per_proc=250,
        warmup_refs=50, q=0.01, w=0.2, seed=7,
    ).run()
    spec = Experiment(
        protocol="twobit", n_processors=3, refs_per_proc=250,
        warmup_refs=50, seed=7, workload="dubois:low",
    ).run()
    assert fingerprint(legacy.machine) == fingerprint(spec.machine)

