"""Record / replay: a captured trace reproduces the workload exactly and
stays coherent under every directory protocol."""

from repro.api import Experiment
from repro.config import MachineConfig
from repro.system.builder import build_machine
from repro.verification.audit import audit_machine
from repro.workloads.traces import StreamingTraceWorkload


def _record(tmp_path, refs_per_proc, **kwargs):
    """Record a Dubois-Briggs run of ``refs_per_proc`` refs per pid."""
    path = tmp_path / "workload.trace"
    Experiment(refs_per_proc=refs_per_proc, warmup_refs=0, **kwargs).run(
        record_trace=str(path)
    )
    return path


def test_recorded_trace_runs_and_audits(tmp_path):
    path = _record(
        tmp_path, 300,
        n_processors=3, q=0.1, w=0.3, private_blocks_per_proc=32, seed=12,
    )
    replay = StreamingTraceWorkload(path)
    config = MachineConfig(
        n_processors=3, n_modules=2, n_blocks=replay.n_blocks
    )
    machine = build_machine(config, replay)
    machine.run(refs_per_proc=300)
    audit_machine(machine).raise_if_failed()
    assert all(p.completed == 300 for p in machine.processors)


def test_same_trace_same_results(tmp_path):
    path = _record(
        tmp_path, 200,
        n_processors=2, q=0.2, w=0.4, private_blocks_per_proc=16, seed=99,
    )

    def run():
        replay = StreamingTraceWorkload(path)
        config = MachineConfig(
            n_processors=2, n_modules=1, n_blocks=replay.n_blocks
        )
        machine = build_machine(config, replay)
        machine.run(refs_per_proc=200)
        return machine.results()

    a, b = run(), run()
    assert a.cycles == b.cycles
    assert a.totals == b.totals


def test_trace_runs_under_multiple_protocols(tmp_path):
    path = _record(
        tmp_path, 250,
        n_processors=2, q=0.15, w=0.3, private_blocks_per_proc=16, seed=7,
    )
    for protocol in ("twobit", "fullmap", "fullmap_local", "classical"):
        replay = StreamingTraceWorkload(path)
        config = MachineConfig(
            n_processors=2,
            n_modules=1,
            n_blocks=replay.n_blocks,
            protocol=protocol,
        )
        machine = build_machine(config, replay)
        machine.run(refs_per_proc=250)
        audit_machine(machine).raise_if_failed()
