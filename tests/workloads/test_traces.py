"""Trace capture and replay."""

import pickle

import pytest

import repro.workloads.traces as traces_mod
from repro.workloads.reference import MemRef, Op
from repro.workloads.synthetic import DuboisBriggsWorkload, UniformWorkload
from repro.workloads.traces import (
    TRACE_HEADER,
    StreamingTraceWorkload,
    TraceFormatError,
    TraceWorkload,
    iter_trace,
    read_trace,
    record,
    record_stream,
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
    assert read_trace(path) == refs


def test_read_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "trace.txt"
    path.write_text(f"{TRACE_HEADER}\n\n0 R 1 s\n# mid\n1 W 2 p\n")
    refs = read_trace(path)
    assert len(refs) == 2


def test_read_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text(f"{TRACE_HEADER}\nnot a line at all here\n")
    with pytest.raises(TraceFormatError, match=":2:"):
        read_trace(path)


def test_missing_header_rejected(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0 R 1 s\n")
    with pytest.raises(TraceFormatError, match="missing trace header"):
        read_trace(path)


def test_unknown_version_rejected(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("# repro trace v99: pid op block p|s\n0 R 1 s\n")
    with pytest.raises(TraceFormatError, match="unsupported trace version"):
        list(iter_trace(path))


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("")
    with pytest.raises(TraceFormatError):
        read_trace(path)


def test_format_error_carries_location(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text(f"{TRACE_HEADER}\n0 R 1 s\nbogus\n")
    with pytest.raises(TraceFormatError) as exc:
        read_trace(path)
    assert exc.value.lineno == 3
    assert exc.value.path == str(path)


@pytest.mark.parametrize("tag", ["x", "shared"])
def test_unknown_sharing_tag_is_a_format_error(tmp_path, tag):
    path = tmp_path / "bad.txt"
    path.write_text(f"{TRACE_HEADER}\n0 R 1 s\n# note\n3 W 117 {tag}\n")
    with pytest.raises(TraceFormatError, match="sharing tag") as exc:
        read_trace(path)
    assert exc.value.lineno == 4


def test_bad_line_is_reported_even_after_good_copies(tmp_path):
    # A line already interned as good must not mask a later bad one.
    path = tmp_path / "bad.txt"
    path.write_text(f"{TRACE_HEADER}\n0 R 1 s\n0 R 1 s\n0 R 1 q\n0 R 1 s\n")
    with pytest.raises(TraceFormatError) as exc:
        read_trace(path)
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


def test_record_interleaves_round_robin():
    wl = DuboisBriggsWorkload(n_processors=2, seed=9)
    refs = record(wl, refs_per_proc=5)
    assert len(refs) == 10
    assert [r.pid for r in refs] == [0, 1] * 5


def test_record_stream_matches_record():
    wl = DuboisBriggsWorkload(n_processors=2, seed=9)
    assert list(record_stream(wl, 5)) == record(wl, 5)


def test_trace_workload_replays_per_pid():
    refs = sample_refs()
    wl = TraceWorkload(refs)
    assert wl.n_processors == 2
    assert wl.refs_for(0) == [refs[0], refs[2]]
    assert wl.refs_for(1) == [refs[1]]
    assert wl.n_blocks == 3


def test_trace_workload_from_file(tmp_path):
    path = tmp_path / "trace.txt"
    write_trace(path, sample_refs())
    wl = TraceWorkload.from_file(path)
    assert list(wl.stream(1)) == [sample_refs()[1]]


def test_empty_trace_rejected():
    with pytest.raises(ValueError):
        TraceWorkload([])


def test_recorded_trace_replay_is_identical(tmp_path):
    wl = DuboisBriggsWorkload(n_processors=3, seed=4)
    refs = record(wl, refs_per_proc=20)
    path = tmp_path / "t.txt"
    write_trace(path, refs)
    replay = TraceWorkload.from_file(path)
    for pid in range(3):
        assert replay.refs_for(pid) == [r for r in refs if r.pid == pid]


def test_content_addressed_reprs(tmp_path):
    # Sweep cache keys embed repr(workload): equal content, equal repr,
    # and no object identity (memory address) leakage.
    refs = sample_refs()
    assert repr(TraceWorkload(refs)) == repr(TraceWorkload(list(refs)))
    assert "0x" not in repr(TraceWorkload(refs))
    path = tmp_path / "t.txt"
    write_trace(path, refs)
    a, b = StreamingTraceWorkload(path), StreamingTraceWorkload(path)
    assert repr(a) == repr(b)


# ----------------------------------------------------------------------
# StreamingTraceWorkload
# ----------------------------------------------------------------------
@pytest.fixture
def round_robin_trace(tmp_path):
    wl = UniformWorkload(n_processors=4, n_blocks=32, seed=3)
    refs = record(wl, 200)
    path = tmp_path / "rr.trace"
    write_trace(path, refs)
    return path, refs


def test_streaming_matches_materialized_interleaved(round_robin_trace):
    path, refs = round_robin_trace
    tw = TraceWorkload(refs)
    sw = StreamingTraceWorkload(path, max_lookahead=8)
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
        assert out[pid] == tw.refs_for(pid)


def test_streaming_skewed_consumption_detaches_and_stays_exact(
    round_robin_trace,
):
    # Draining one pid start-to-finish forces every other claimed stream
    # past the lookahead bound; the fallback rescans and must produce the
    # identical per-pid sequence.
    path, refs = round_robin_trace
    tw = TraceWorkload(refs)
    sw = StreamingTraceWorkload(path, max_lookahead=8)
    streams = {pid: sw.stream(pid) for pid in range(4)}
    assert list(streams[3]) == tw.refs_for(3)
    assert sw._detached, "expected lookahead overflow to detach a stream"
    for pid in range(3):
        assert list(streams[pid]) == tw.refs_for(pid)


def test_streaming_late_claim_gets_private_scan(round_robin_trace):
    path, refs = round_robin_trace
    tw = TraceWorkload(refs)
    sw = StreamingTraceWorkload(path, max_lookahead=8)
    first = sw.stream(0)
    next(first)  # shared reader has started
    late = sw.stream(2)
    assert list(late) == tw.refs_for(2)


def test_streaming_stream_pickle_resume(round_robin_trace):
    path, refs = round_robin_trace
    tw = TraceWorkload(refs)
    sw = StreamingTraceWorkload(path, max_lookahead=8)
    stream = sw.stream(1)
    head = [next(stream) for _ in range(17)]
    resumed = pickle.loads(pickle.dumps(stream))
    assert head + list(resumed) == tw.refs_for(1)


@pytest.mark.parametrize("lookahead", [8, 4096])
def test_restored_streams_share_one_read_of_the_trace(
    round_robin_trace, monkeypatch, lookahead
):
    """Streams restored together join one fresh demux, which drops each
    pid's refs before its position: the file is opened once, not once
    per processor, and every sequence is the uninterrupted one."""
    path, refs = round_robin_trace
    tw = TraceWorkload(refs)
    sw = StreamingTraceWorkload(path, max_lookahead=lookahead)
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
        assert heads[pid] + tails[pid] == tw.refs_for(pid)
    if lookahead > len(refs):
        assert len(opened) == 1


def test_streaming_take_does_not_disturb_live_stream(round_robin_trace):
    path, refs = round_robin_trace
    tw = TraceWorkload(refs)
    sw = StreamingTraceWorkload(path)
    live = sw.stream(0)
    next(live)
    assert sw.take(0, 3) == tw.refs_for(0)[:3]
    assert [next(live)] + list(live) == tw.refs_for(0)[1:]


def test_streaming_meta_shape(round_robin_trace):
    path, refs = round_robin_trace
    sw = StreamingTraceWorkload(path)
    assert sw.n_processors == 4
    assert sw.n_refs == len(refs)
    assert sw.n_blocks == max(r.block for r in refs) + 1


def test_streaming_rejects_bad_lookahead(round_robin_trace):
    path, _ = round_robin_trace
    with pytest.raises(ValueError):
        StreamingTraceWorkload(path, max_lookahead=0)
