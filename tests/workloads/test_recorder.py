"""TraceRecorder: ref capture on the observability listener API."""

from repro.obs.core import Observability
from repro.workloads.recorder import TraceRecorder, attach_recorder
from repro.workloads.reference import MemRef, Op
from repro.workloads.traces import read_trace, scan_trace_meta


def test_ref_listener_fires_once_per_issue():
    obs = Observability(keep_events=False)
    seen = []
    obs.add_ref_listener(lambda pid, now, ref: seen.append((pid, now, ref)))
    ref = MemRef(0, Op.READ, 3, True)
    obs.span_begin(0, 10, ref)
    obs.span_end(0, 14, hit=True)
    assert seen == [(0, 10, ref)]


def test_ref_listener_survives_reset():
    obs = Observability(keep_events=False)
    seen = []
    obs.add_ref_listener(lambda pid, now, ref: seen.append(ref))
    obs.span_begin(0, 1, MemRef(0, Op.READ, 0, True))
    obs.reset(now=1)
    obs.span_begin(0, 2, MemRef(0, Op.WRITE, 1, True))
    assert len(seen) == 2


def test_attach_recorder_captures_full_run(tmp_path):
    from repro.config import MachineConfig
    from repro.system.builder import build_machine
    from repro.workloads.synthetic import UniformWorkload

    workload = UniformWorkload(n_processors=2, n_blocks=16, seed=5)
    config = MachineConfig(n_processors=2, n_modules=1, n_blocks=16)
    machine = build_machine(config, workload)
    recorder = attach_recorder(machine)
    machine.run(refs_per_proc=50, warmup_refs=10)
    # Warmup refs are part of the replayable stream.
    assert len(recorder.refs) == 2 * 60

    path = tmp_path / "run.trace"
    recorder.write(str(path), n_processors=2, n_blocks=16)
    assert read_trace(path) == recorder.refs
    meta = scan_trace_meta(path)
    assert (meta.n_processors, meta.n_blocks, meta.n_refs) == (2, 16, 120)


def test_recorder_is_order_faithful():
    recorder = TraceRecorder()
    refs = [MemRef(i % 2, Op.READ, i, True) for i in range(5)]
    for i, ref in enumerate(refs):
        recorder.on_ref(ref.pid, i, ref)
    assert recorder.refs == refs
