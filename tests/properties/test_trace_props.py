"""Property-based round trips for the trace format."""

from unittest import mock

from hypothesis import given
from hypothesis import strategies as st

from repro.workloads.reference import MemRef, Op

refs = st.builds(
    MemRef,
    pid=st.integers(min_value=0, max_value=63),
    op=st.sampled_from(list(Op)),
    block=st.integers(min_value=0, max_value=10_000),
    shared=st.booleans(),
)


@given(ref=refs)
def test_line_roundtrip(ref):
    assert MemRef.parse(str(ref)) == ref


@given(ref_list=st.lists(refs, max_size=50))
def test_file_roundtrip(ref_list, tmp_path_factory):
    from repro.workloads.traces import iter_trace, write_trace

    path = tmp_path_factory.mktemp("traces") / "t.txt"
    write_trace(path, ref_list)
    assert list(iter_trace(path)) == ref_list


# Small pid space so every processor's sub-stream gets real traffic and
# the demux laggard/overflow paths actually fire under tiny lookaheads.
demux_refs = st.builds(
    MemRef,
    pid=st.integers(min_value=0, max_value=3),
    op=st.sampled_from(list(Op)),
    block=st.integers(min_value=0, max_value=31),
    shared=st.booleans(),
)


@given(
    ref_list=st.lists(demux_refs, min_size=1, max_size=120),
    lookahead=st.integers(min_value=1, max_value=8),
    order=st.permutations(list(range(4))),
)
def test_streaming_demux_matches_filter(ref_list, lookahead,
                                        order, tmp_path_factory):
    """Per-pid streaming replay equals a plain filter of the trace, for
    any claim order, any consumption order, and any lookahead — the
    detach/fallback paths must be sequence-transparent."""
    import repro.workloads.traces as traces
    from repro.workloads.traces import StreamingTraceWorkload, write_trace

    path = tmp_path_factory.mktemp("traces") / "demux.trace"
    write_trace(path, ref_list, n_processors=4)
    workload = StreamingTraceWorkload(path)
    with mock.patch.object(traces, "MAX_LOOKAHEAD", lookahead):
        streams = {pid: workload.stream(pid) for pid in order}
        # Drain sequentially in the permuted order: maximally skewed
        # consumption, the worst case for the shared reader.
        for pid in order:
            got = list(streams[pid])
            assert got == [r for r in ref_list if r.pid == pid]


@given(
    ref_list=st.lists(demux_refs, min_size=1, max_size=80),
    head=st.integers(min_value=0, max_value=40),
)
def test_stream_pickle_resume_any_offset(ref_list, head, tmp_path_factory):
    """Checkpoint contract: pickling a half-consumed stream and
    restoring it resumes at exactly the same offset."""
    import pickle

    import repro.workloads.traces as traces
    from repro.workloads.traces import StreamingTraceWorkload, write_trace

    path = tmp_path_factory.mktemp("traces") / "resume.trace"
    write_trace(path, ref_list, n_processors=4)
    workload = StreamingTraceWorkload(path)
    stream = workload.stream(0)
    expected = [r for r in ref_list if r.pid == 0]
    with mock.patch.object(traces, "MAX_LOOKAHEAD", 4):
        consumed = []
        for _ in range(min(head, len(expected))):
            consumed.append(next(stream))
        restored = pickle.loads(pickle.dumps(stream))
        assert consumed + list(restored) == expected
