"""Trace capture and replay."""

import pickle

import pytest

import repro.workloads.traces as traces_mod
from repro.workloads.reference import MemRef, Op
from repro.workloads.synthetic import UniformWorkload
from repro.workloads.traces import (
    TRACE_HEADER,
    StreamingTraceWorkload,
    TraceFormatError,
    iter_trace,
    scan_trace_meta,
    write_trace,
)


def sample_refs():
    return [
        MemRef(0, Op.READ, 1, shared=True),
        MemRef(1, Op.WRITE, 2, shared=False),
        MemRef(0, Op.WRITE, 1, shared=True),
    ]


def test_write_read_roundtrip(tmp_path):
    path = tmp_path / "trace.txt"
    refs = sample_refs()
    assert write_trace(path, refs) == 3
    assert list(iter_trace(path)) == refs


def test_read_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "trace.txt"
    path.write_text(f"{TRACE_HEADER}\n\n0 R 1 s\n# mid\n1 W 2 p\n")
    refs = list(iter_trace(path))
    assert len(refs) == 2


def test_read_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text(f"{TRACE_HEADER}\nnot a line at all here\n")
    with pytest.raises(TraceFormatError, match=":2:"):
        list(iter_trace(path))


def test_missing_header_rejected(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0 R 1 s\n")
    with pytest.raises(TraceFormatError, match="missing trace header"):
        list(iter_trace(path))


def test_unknown_version_rejected(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("# repro trace v99: pid op block p|s\n0 R 1 s\n")
    with pytest.raises(TraceFormatError, match="unsupported trace version"):
        list(iter_trace(path))


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("")
    with pytest.raises(TraceFormatError):
        list(iter_trace(path))


def test_format_error_carries_location(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text(f"{TRACE_HEADER}\n0 R 1 s\nbogus\n")
    with pytest.raises(TraceFormatError) as exc:
        list(iter_trace(path))
    assert exc.value.lineno == 3
    assert exc.value.path == str(path)


@pytest.mark.parametrize("tag", ["x", "shared"])
def test_unknown_sharing_tag_is_a_format_error(tmp_path, tag):
    path = tmp_path / "bad.txt"
    path.write_text(f"{TRACE_HEADER}\n0 R 1 s\n# note\n3 W 117 {tag}\n")
    with pytest.raises(TraceFormatError, match="sharing tag") as exc:
        list(iter_trace(path))
    assert exc.value.lineno == 4


def test_bad_line_is_reported_even_after_good_copies(tmp_path):
    # A line already interned as good must not mask a later bad one.
    path = tmp_path / "bad.txt"
    path.write_text(f"{TRACE_HEADER}\n0 R 1 s\n0 R 1 s\n0 R 1 q\n0 R 1 s\n")
    with pytest.raises(TraceFormatError) as exc:
        list(iter_trace(path))
    assert exc.value.lineno == 4


def test_write_is_atomic_no_temp_left(tmp_path):
    path = tmp_path / "trace.txt"
    write_trace(path, sample_refs())
    leftovers = [p for p in tmp_path.iterdir() if p.name != "trace.txt"]
    assert leftovers == []


def test_write_failure_cleans_temp(tmp_path):
    path = tmp_path / "trace.txt"

    def exploding():
        yield sample_refs()[0]
        raise RuntimeError("boom")

    with pytest.raises(RuntimeError):
        write_trace(path, exploding())
    assert list(tmp_path.iterdir()) == []


def test_scan_trace_meta_from_meta_line(tmp_path):
    path = tmp_path / "trace.txt"
    write_trace(path, sample_refs())
    meta = scan_trace_meta(path)
    assert (meta.n_processors, meta.n_blocks, meta.n_refs) == (2, 3, 3)
    # The meta line must actually be present (O(1) path, no prescan).
    assert "# meta " in path.read_text().splitlines()[1]


def test_scan_trace_meta_fallback_prescan(tmp_path):
    # Hand-written trace without the meta line: one streaming pass.
    path = tmp_path / "trace.txt"
    path.write_text(f"{TRACE_HEADER}\n0 R 1 s\n1 W 2 p\n")
    meta = scan_trace_meta(path)
    assert (meta.n_processors, meta.n_blocks, meta.n_refs) == (2, 3, 2)


def test_trace_workload_replays_per_pid(tmp_path):
    refs = sample_refs()
    path = tmp_path / "trace.txt"
    write_trace(path, refs)
    wl = StreamingTraceWorkload(path)
    assert (wl.n_processors, wl.n_blocks) == (2, 3)
    assert list(wl.stream(0)) == [refs[0], refs[2]]
    assert list(wl.stream(1)) == [refs[1]]


def test_trace_workload_from_file(tmp_path):
    # A hand-written trace has no meta line: the shape comes from one
    # prescan, and the replay checks its refs against that shape too.
    path = tmp_path / "hand.trace"
    path.write_text(f"{TRACE_HEADER}\n0 R 1 s\n1 W 2 p\n0 W 1 s\n")
    wl = StreamingTraceWorkload(path)
    assert (wl.n_processors, wl.n_blocks, wl.n_refs) == (2, 3, 3)
    assert list(wl.stream(1)) == [sample_refs()[1]]
    assert list(wl.stream(0)) == [sample_refs()[0], sample_refs()[2]]


def test_empty_trace_rejected(tmp_path):
    path = tmp_path / "empty.trace"
    path.write_text(f"{TRACE_HEADER}\n# no references\n")
    with pytest.raises(TraceFormatError, match="empty trace"):
        StreamingTraceWorkload(path)


def test_recorded_trace_replay_is_identical(tmp_path):
    from repro.api import Experiment

    path = tmp_path / "t.trace"
    Experiment(n_processors=3, refs_per_proc=20, warmup_refs=0).run(
        record_trace=str(path)
    )
    refs = list(iter_trace(path))
    replay = StreamingTraceWorkload(path)
    for pid in range(3):
        assert list(replay.stream(pid)) == [r for r in refs if r.pid == pid]


def test_content_addressed_reprs(tmp_path):
    # Sweep cache keys embed repr(workload): equal content, equal repr,
    # and no object identity (memory address) leakage.
    path = tmp_path / "t.txt"
    write_trace(path, sample_refs())
    copy = tmp_path / "copy.txt"
    copy.write_bytes(path.read_bytes())
    a, b = StreamingTraceWorkload(path), StreamingTraceWorkload(copy)
    assert repr(a) == repr(b)
    assert "0x" not in repr(a)


@pytest.mark.parametrize("field, line", [
    ("n_processors=2", "2 R 1 s"),
    ("n_blocks=3", "0 W 3 p"),
])
def test_reference_outside_the_meta_shape_is_a_format_error(
    tmp_path, field, line
):
    """A meta line that under-counts the trace names the first line it
    does not cover, instead of dropping that pid's refs or failing in
    the address map."""
    path = tmp_path / "bad.trace"
    write_trace(path, sample_refs())
    lines = path.read_text().splitlines()
    lines.insert(4, line)
    path.write_text("\n".join(lines) + "\n")
    workload = StreamingTraceWorkload(path)
    assert (workload.n_processors, workload.n_blocks) == (2, 3)
    with pytest.raises(TraceFormatError, match=field) as exc:
        for pid in range(2):
            list(workload.stream(pid))
    assert (exc.value.path, exc.value.lineno) == (str(path), 5)


# ----------------------------------------------------------------------
# StreamingTraceWorkload
# ----------------------------------------------------------------------
@pytest.fixture
def round_robin_trace(tmp_path):
    wl = UniformWorkload(n_processors=4, n_blocks=32, seed=3)
    refs = [ref for turn in zip(*(wl.take(pid, 200) for pid in range(4)))
            for ref in turn]
    path = tmp_path / "rr.trace"
    write_trace(path, refs)
    return path, refs


def refs_of(refs, pid):
    return [ref for ref in refs if ref.pid == pid]


@pytest.fixture
def small_lookahead(monkeypatch):
    """Force the demux's detach path with an 8-ref lookahead."""
    monkeypatch.setattr(traces_mod, "MAX_LOOKAHEAD", 8)


def test_streaming_matches_materialized_interleaved(
    round_robin_trace, small_lookahead
):
    path, refs = round_robin_trace
    sw = StreamingTraceWorkload(path)
    streams = [sw.stream(pid) for pid in range(4)]
    out = {pid: [] for pid in range(4)}
    done = set()
    while len(done) < 4:
        for pid, stream in enumerate(streams):
            if pid in done:
                continue
            try:
                out[pid].append(next(stream))
            except StopIteration:
                done.add(pid)
    for pid in range(4):
        assert out[pid] == refs_of(refs, pid)


def test_streaming_skewed_consumption_detaches_and_stays_exact(
    round_robin_trace, small_lookahead
):
    # Draining one pid start-to-finish forces every other claimed stream
    # past the lookahead bound; the fallback rescans and must produce the
    # identical per-pid sequence.
    path, refs = round_robin_trace
    sw = StreamingTraceWorkload(path)
    streams = {pid: sw.stream(pid) for pid in range(4)}
    assert list(streams[3]) == refs_of(refs, 3)
    assert sw._detached, "expected lookahead overflow to detach a stream"
    for pid in range(3):
        assert list(streams[pid]) == refs_of(refs, pid)


def test_streaming_late_claim_gets_private_scan(
    round_robin_trace, small_lookahead
):
    path, refs = round_robin_trace
    sw = StreamingTraceWorkload(path)
    first = sw.stream(0)
    next(first)  # shared reader has started
    late = sw.stream(2)
    assert list(late) == refs_of(refs, 2)


def test_streaming_stream_pickle_resume(round_robin_trace, small_lookahead):
    path, refs = round_robin_trace
    sw = StreamingTraceWorkload(path)
    stream = sw.stream(1)
    head = [next(stream) for _ in range(17)]
    resumed = pickle.loads(pickle.dumps(stream))
    assert head + list(resumed) == refs_of(refs, 1)


@pytest.mark.parametrize("lookahead", [8, 4096])
def test_restored_streams_share_one_read_of_the_trace(
    round_robin_trace, monkeypatch, lookahead
):
    """Streams restored together join one fresh demux, which drops each
    pid's refs before its position: the file is opened once, not once
    per processor, and every sequence is the uninterrupted one."""
    path, refs = round_robin_trace
    monkeypatch.setattr(traces_mod, "MAX_LOOKAHEAD", lookahead)
    sw = StreamingTraceWorkload(path)
    streams = [sw.stream(pid) for pid in range(4)]
    heads = [
        [next(stream) for _ in range(5 + 9 * pid)]
        for pid, stream in enumerate(streams)
    ]
    opened = []
    real_read_refs = traces_mod._read_refs
    monkeypatch.setattr(
        traces_mod, "_read_refs",
        lambda *args: opened.append(args[0]) or real_read_refs(*args),
    )
    restored = pickle.loads(pickle.dumps(streams))
    tails = [list(stream) for stream in reversed(restored)][::-1]
    for pid in range(4):
        assert heads[pid] + tails[pid] == refs_of(refs, pid)
    if lookahead > len(refs):
        assert len(opened) == 1


def test_streaming_take_does_not_disturb_live_stream(round_robin_trace):
    path, refs = round_robin_trace
    sw = StreamingTraceWorkload(path)
    live = sw.stream(0)
    next(live)
    assert sw.take(0, 3) == refs_of(refs, 0)[:3]
    assert [next(live)] + list(live) == refs_of(refs, 0)[1:]


def test_streaming_meta_shape(round_robin_trace):
    path, refs = round_robin_trace
    sw = StreamingTraceWorkload(path)
    assert sw.n_processors == 4
    assert sw.n_refs == len(refs)
    assert sw.n_blocks == max(r.block for r in refs) + 1
