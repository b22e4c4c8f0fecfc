"""Interned references: generators serve shared, immutable MemRefs.

Every generator hands out one :class:`MemRef` per distinct reference
instead of building a new object per draw.  These tests pin that the
shared objects are indistinguishable from freshly parsed ones, that the
sharing really happens, and that the bounded trace-line table and stream
checkpointing are unaffected by it.
"""

import itertools
import pickle

import pytest

from repro.workloads import WORKLOADS, WorkloadContext, parse_workload
from repro.workloads.reference import (
    INTERN_LIMIT,
    MemRef,
    Op,
    RefTable,
    ref_table,
)
from repro.workloads.synthetic import DuboisBriggsWorkload
from repro.workloads.traces import StreamingTraceWorkload, iter_trace, write_trace

N_REFS = 600
CTX = WorkloadContext(n_processors=3, seed=11)

#: Families whose streams come from a generator (``scripted`` replays
#: the caller's own objects).
GENERATED = ("dubois", "locks", "migration", "trace", "uniform")


@pytest.fixture
def trace_path(tmp_path):
    path = tmp_path / "src.trace"
    source = DuboisBriggsWorkload(n_processors=3, seed=5)
    streams = [source.take(pid, 400) for pid in range(3)]
    write_trace(path, [ref for turn in zip(*streams) for ref in turn])
    return path


def _spec(family, trace_path):
    if family == "trace":
        return f"trace:{trace_path}"
    if family == "scripted":
        return "scripted:hot_cold"
    return family


def _fields(ref):
    return (ref.pid, ref.op, ref.block, ref.shared, ref.is_write)


@pytest.mark.parametrize("family", sorted(WORKLOADS))
def test_refs_equal_their_parsed_text(family, trace_path):
    workload = parse_workload(_spec(family, trace_path), CTX)
    for pid in range(workload.n_processors):
        for ref in itertools.islice(workload.stream(pid), N_REFS):
            parsed = MemRef.parse(str(ref))
            assert type(ref) is MemRef
            assert ref == parsed and hash(ref) == hash(parsed)
            assert _fields(ref) == _fields(parsed)


@pytest.mark.parametrize("family", GENERATED)
def test_equal_refs_of_one_stream_are_one_object(family, trace_path):
    workload = parse_workload(_spec(family, trace_path), CTX)
    refs = list(itertools.islice(workload.stream(1), N_REFS))
    first = {}
    for ref in refs:
        assert first.setdefault(ref, ref) is ref
    assert len(first) < len(refs), "stream never repeated a reference"


@pytest.mark.parametrize("family", GENERATED)
def test_pickled_stream_resumes_to_an_equal_sequence(family, trace_path):
    workload = parse_workload(_spec(family, trace_path), CTX)
    stream = workload.stream(2)
    for _ in range(97):
        next(stream)
    resumed = pickle.loads(pickle.dumps(stream))
    want = list(itertools.islice(stream, 200))
    assert list(itertools.islice(resumed, 200)) == want
    assert want == workload.take(2, 297)[97:]


def test_trace_rescans_share_one_line_table(trace_path):
    workload = StreamingTraceWorkload(trace_path)
    live = workload.stream(0)
    head = [next(live) for _ in range(40)]
    # take() and a restored stream rescan the file privately.
    assert all(a is b for a, b in zip(workload.take(0, 40), head))
    restored = pickle.loads(pickle.dumps(workload))
    assert "_line_refs" not in restored.__getstate__()
    assert restored.take(0, 40) == head


def test_trace_with_more_distinct_lines_than_the_table_holds(tmp_path):
    n_distinct = 2 * INTERN_LIMIT + 7
    refs = [
        MemRef(pid=i % 3, op=Op.WRITE if i % 5 == 0 else Op.READ,
               block=i, shared=bool(i % 2))
        for i in range(n_distinct)
    ]
    # Lines seen long ago (evicted) and just now (still interned) recur.
    refs += refs[:50] + refs[-50:]
    path = tmp_path / "wide.trace"
    write_trace(path, refs)
    assert list(iter_trace(path)) == refs


def test_table_is_capped_and_refills():
    built = []

    def build(key):
        built.append(key)
        return MemRef(0, Op.READ, key)

    table = RefTable(build)
    for block in range(INTERN_LIMIT + 10):
        assert table[block].block == block
        assert len(table) <= INTERN_LIMIT
    assert len(built) == INTERN_LIMIT + 10
    assert table[INTERN_LIMIT + 9] is table[INTERN_LIMIT + 9]
    assert len(built) == INTERN_LIMIT + 10


def test_ref_table_builds_the_keyed_reference():
    table = ref_table(4, Op.WRITE, True)
    ref = table[17]
    assert ref == MemRef(pid=4, op=Op.WRITE, block=17, shared=True)
    assert ref.is_write
    assert table[17] is ref
