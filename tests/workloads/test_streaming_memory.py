"""Streaming replay must not materialize the trace.

The point of :class:`StreamingTraceWorkload` is multi-GB traces; these
tests pin the memory contract with tracemalloc — peak allocation while
replaying stays bounded by the lookahead buffers, not the file size.
The machine-replay gates extend it to a whole simulated machine, whose
coherence oracle must forget commits no future read can need.
"""

import tracemalloc

import pytest

from repro.api import Experiment
from repro.workloads.reference import MemRef, Op
from repro.workloads.traces import (
    StreamingTraceWorkload,
    iter_trace,
    write_trace,
)

N_PROCS = 4


def _write_big_trace(path, n_refs):
    def gen():
        for i in range(n_refs):
            yield MemRef(
                pid=i % N_PROCS,
                op=Op.WRITE if i % 3 == 0 else Op.READ,
                block=i % 64,
                shared=True,
            )

    write_trace(path, gen(), n_processors=N_PROCS, n_blocks=64)


def _peak_during_replay(path, n_refs):
    workload = StreamingTraceWorkload(path, max_lookahead=1024)
    streams = [workload.stream(pid) for pid in range(N_PROCS)]
    tracemalloc.start()
    consumed = 0
    # Round-robin like the simulator: every stream advances in step, so
    # the demux buffers stay near-empty.
    for _ in range(n_refs // N_PROCS):
        for s in streams:
            next(s)
            consumed += 1
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert consumed == n_refs
    return peak


def test_iter_trace_is_chunked(tmp_path):
    path = str(tmp_path / "chunked.trace")
    _write_big_trace(path, 100_000)
    tracemalloc.start()
    count = sum(1 for _ in iter_trace(path))
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert count == 100_000
    # >10 MB of refs if materialized; chunked iteration holds one chunk.
    assert peak < 2_000_000, f"iter_trace peak {peak} bytes"


def test_streaming_replay_memory_bounded(tmp_path):
    path = str(tmp_path / "medium.trace")
    n_refs = 100_000
    _write_big_trace(path, n_refs)
    peak = _peak_during_replay(path, n_refs)
    assert peak < 2_000_000, f"streaming peak {peak} bytes for {n_refs} refs"


@pytest.mark.slow
def test_streaming_replay_million_refs(tmp_path):
    """The acceptance bar: >=1M refs, memory bounded by lookahead (the
    peak must not scale with the trace)."""
    path = str(tmp_path / "big.trace")
    n_refs = 1_000_000
    _write_big_trace(path, n_refs)
    peak = _peak_during_replay(path, n_refs)
    # 1M materialized MemRefs would be ~64 MB; the stream stays ~100x under.
    assert peak < 4_000_000, f"streaming peak {peak} bytes for {n_refs} refs"


def _machine_replay_peak(path, n_refs):
    """tracemalloc peak of building and running a two-bit machine that
    replays the trace at ``path``."""
    refs_per_proc = n_refs // N_PROCS
    experiment = Experiment(
        protocol="twobit", n_processors=N_PROCS, workload=f"trace:{path}",
        refs_per_proc=refs_per_proc, warmup_refs=0,
    )
    tracemalloc.start()
    machine, _ = experiment.build()
    machine.run(refs_per_proc=refs_per_proc, warmup_refs=0)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert sum(p.completed for p in machine.processors) == n_refs
    return peak


def test_machine_replay_memory_bounded(tmp_path):
    path = str(tmp_path / "machine.trace")
    n_refs = 100_000
    _write_big_trace(path, n_refs)
    peak = _machine_replay_peak(path, n_refs)
    # Keeping every one of the ~33k commits took ~5.5 MB.
    assert peak < 4_000_000, f"machine replay peak {peak} bytes for {n_refs} refs"


@pytest.mark.slow
def test_machine_replay_million_refs(tmp_path):
    """A 1M-ref replay through the whole machine stays under the bound
    the trace reader alone meets."""
    path = str(tmp_path / "machine-big.trace")
    n_refs = 1_000_000
    _write_big_trace(path, n_refs)
    peak = _machine_replay_peak(path, n_refs)
    assert peak < 4_000_000, f"machine replay peak {peak} bytes for {n_refs} refs"
