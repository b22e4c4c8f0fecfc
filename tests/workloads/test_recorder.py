"""Trace recording: ``Experiment.run(record_trace=)`` on the
observability ref-listener API."""

import glob

from repro.api import Experiment
from repro.obs.core import Observability
from repro.workloads.reference import MemRef, Op
from repro.workloads.traces import iter_trace, scan_trace_meta


def test_ref_listener_fires_once_per_issue():
    obs = Observability(keep_events=False)
    seen = []
    obs.add_ref_listener(seen.append)
    ref = MemRef(0, Op.READ, 3, True)
    obs.span_begin(0, 10, ref)
    obs.span_end(0, 14, hit=True)
    assert seen == [ref]


def test_ref_listener_survives_reset():
    obs = Observability(keep_events=False)
    seen = []
    obs.add_ref_listener(seen.append)
    obs.span_begin(0, 1, MemRef(0, Op.READ, 0, True))
    obs.reset(now=1)
    obs.span_begin(0, 2, MemRef(0, Op.WRITE, 1, True))
    assert len(seen) == 2


def _uniform(**kwargs):
    return Experiment(
        workload="uniform:n_blocks=16", n_processors=2, n_modules=1,
        refs_per_proc=50, warmup_refs=10, **kwargs,
    )


def test_record_trace_captures_full_run(tmp_path):
    path = tmp_path / "run.trace"
    outcome = _uniform().run(record_trace=str(path))
    # Warmup refs are part of the replayable stream.
    refs = list(iter_trace(path))
    assert len(refs) == 2 * 60
    meta = scan_trace_meta(path)
    assert (meta.n_processors, meta.n_blocks, meta.n_refs) == (2, 16, 120)
    # Recording alone returns no hub: the caller did not ask for one.
    assert outcome.obs is None


def test_recorder_is_order_faithful(tmp_path):
    """The trace lists references in issue order: every pid's refs are
    its stream's, and an instrumented run records the same file."""
    path = tmp_path / "bare.trace"
    _uniform().run(record_trace=str(path))
    refs = list(iter_trace(path))
    workload = _uniform().build()[0].workload
    for pid in range(2):
        assert [r for r in refs if r.pid == pid] == workload.take(pid, 60)
    instrumented = tmp_path / "instrumented.trace"
    outcome = _uniform().run(instrument=True, record_trace=str(instrumented))
    assert outcome.obs is not None
    assert instrumented.read_bytes() == path.read_bytes()


def test_record_trace_with_checkpoints_saves_the_same_trace(tmp_path):
    """Checkpoints pickle the hub with its listener: a recording run
    still saves them, and records the trace a run without them does."""
    plain = tmp_path / "plain.trace"
    _uniform().run(record_trace=str(plain))
    checkpointed = tmp_path / "checkpointed.trace"
    pattern = str(tmp_path / "ckpt-{cycle}.ckpt")
    _uniform().run(
        record_trace=str(checkpointed),
        checkpoint_every=20,
        checkpoint_path=pattern,
    )
    assert glob.glob(str(tmp_path / "ckpt-*.ckpt"))
    assert checkpointed.read_bytes() == plain.read_bytes()
