"""Trace files: capture, store, and replay reference streams.

The format is one :class:`~repro.workloads.reference.MemRef` per line
(``pid op block p|s``) with ``#`` comments, so traces are diffable and
hand-editable.  Every trace starts with a ``# repro trace v1`` header
(validated on read — see :class:`TraceFormatError`) and, when written by
:func:`write_trace`, a fixed-width ``# meta`` line recording the shape
(processors, blocks, reference count) so replaying never needs a prescan.

Two replay paths exist:

* :class:`TraceWorkload` materializes the whole trace in memory — simple
  and fine for test-sized traces;
* :class:`StreamingTraceWorkload` replays straight off the file through
  a per-pid demultiplexer with bounded lookahead buffers, so multi-GB
  traces run in O(lookahead) memory.  Streams remain checkpointable: the
  position-counting :class:`~repro.workloads.synthetic.ReplayableStream`
  wrapper restores by re-scanning the file and fast-forwarding.
"""

from __future__ import annotations

import hashlib
import os
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Deque, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Union

from repro.workloads.reference import MemRef, RefTable
from repro.workloads.synthetic import Workload

#: Current trace format version; bump when the line grammar changes.
TRACE_VERSION = 1

#: First line of every trace file.  Readers validate the ``v<N>`` tag.
TRACE_HEADER = f"# repro trace v{TRACE_VERSION}: pid op block p|s"

_HEADER_PREFIX = "# repro trace v"

#: Fixed-width meta line: written with placeholder zeros, patched in
#: place once the counts are known (same byte length), so
#: :func:`scan_trace_meta` is O(1) on traces we wrote ourselves.
_META_FMT = "# meta n_processors={n_processors:010d} n_blocks={n_blocks:010d} refs={refs:012d}"

#: ``readlines`` hint for the chunked reader: decode and split ~64 KiB of
#: the file at a time instead of paying the line-iterator overhead per ref.
_CHUNK_BYTES = 1 << 16


class TraceFormatError(ValueError):
    """A trace file violates the format contract.

    Attributes:
        path: the offending file.
        lineno: 1-based line number (0 when the file itself is at fault,
            e.g. empty).
        problem: human-readable description.
    """

    def __init__(self, path: Union[str, Path], lineno: int, problem: str) -> None:
        self.path = str(path)
        self.lineno = lineno
        self.problem = problem
        super().__init__(f"{path}:{lineno}: {problem}")


@dataclass(frozen=True)
class TraceMeta:
    """Shape of a trace: enough to size a machine without reading refs."""

    n_processors: int
    n_blocks: int
    n_refs: int


def _check_header(path: Union[str, Path], first_line: Optional[str]) -> None:
    if first_line is None or not first_line.startswith(_HEADER_PREFIX):
        raise TraceFormatError(
            path, 1,
            f"missing trace header (expected {TRACE_HEADER!r}); "
            "not a repro trace file?",
        )
    version_text = first_line[len(_HEADER_PREFIX):].split(":", 1)[0].strip()
    try:
        version = int(version_text)
    except ValueError:
        raise TraceFormatError(
            path, 1, f"malformed trace version {version_text!r}"
        ) from None
    if version != TRACE_VERSION:
        raise TraceFormatError(
            path, 1,
            f"unsupported trace version v{version} (this reader "
            f"understands v{TRACE_VERSION})",
        )


def _parse_line(line: str) -> Optional[MemRef]:
    """One trace line's reference; ``None`` for a blank or comment line."""
    text = line.strip()
    if not text or text.startswith("#"):
        return None
    return MemRef.parse(text)


def iter_trace(path: Union[str, Path]) -> Iterator[MemRef]:
    """Stream references from ``path`` without materializing the file.

    Validates the ``# repro trace v1`` header, then yields one
    :class:`MemRef` per non-comment line in file order.  Reads the file
    in ~64 KiB chunks, so peak memory is independent of trace size.
    Lines are interned in a bounded :class:`RefTable`: a line seen
    before yields the same shared reference without being parsed again.

    Raises:
        TraceFormatError: missing/unknown header or a malformed line.
    """
    return _read_refs(path, RefTable(_parse_line))


def _read_refs(path: Union[str, Path], refs: RefTable) -> Iterator[MemRef]:
    """:func:`iter_trace` over the caller's line table ``refs``."""
    with open(path, "r", encoding="ascii") as fh:
        first = fh.readline()
        _check_header(path, first if first else None)
        lineno = 1
        while True:
            chunk = fh.readlines(_CHUNK_BYTES)
            if not chunk:
                return
            for line in chunk:
                lineno += 1
                try:
                    ref = refs[line]
                except ValueError as exc:
                    raise TraceFormatError(path, lineno, str(exc)) from None
                if ref is not None:
                    yield ref


def read_trace(path: Union[str, Path]) -> List[MemRef]:
    """Read every reference in ``path`` (order preserved, materialized).

    Prefer :func:`iter_trace` / :class:`StreamingTraceWorkload` for large
    traces; this builds the full list in memory.
    """
    return list(iter_trace(path))


def write_trace(
    path: Union[str, Path],
    refs: Iterable[MemRef],
    *,
    n_processors: Optional[int] = None,
    n_blocks: Optional[int] = None,
) -> int:
    """Write references to ``path`` atomically; returns the number written.

    Like checkpoint files, the trace is written to a temporary sibling,
    flushed and fsynced, then moved into place with :func:`os.replace` —
    a crash mid-write never leaves a truncated trace at ``path``.  A
    fixed-width ``# meta`` line is patched in after streaming the refs so
    readers learn the trace shape without a prescan.

    ``n_processors``/``n_blocks`` declare a shape larger than the refs
    imply (the recorder passes the source machine's config so a replay
    machine is sized identically even when the tail of the address space
    was never referenced).
    """
    path = Path(path)
    tmp = path.parent / f".{path.name}.tmp.{os.getpid()}"
    count = 0
    max_pid = -1
    max_block = -1
    try:
        # Binary mode: the meta line is patched in place via seek, and
        # byte offsets must be exact (text-mode tell cookies are opaque).
        with open(tmp, "wb") as fh:
            fh.write((TRACE_HEADER + "\n").encode("ascii"))
            meta_offset = fh.tell()
            placeholder = _META_FMT.format(n_processors=0, n_blocks=0, refs=0)
            fh.write((placeholder + "\n").encode("ascii"))
            for ref in refs:
                fh.write((str(ref) + "\n").encode("ascii"))
                count += 1
                if ref.pid > max_pid:
                    max_pid = ref.pid
                if ref.block > max_block:
                    max_block = ref.block
            patched = _META_FMT.format(
                n_processors=max(max_pid + 1, n_processors or 0),
                n_blocks=max(max_block + 1, n_blocks or 0),
                refs=count,
            )
            assert len(patched) == len(placeholder)
            fh.seek(meta_offset)
            fh.write(patched.encode("ascii"))
            fh.seek(0, os.SEEK_END)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return count


def _parse_meta_line(line: str) -> Optional[TraceMeta]:
    if not line.startswith("# meta "):
        return None
    fields: Dict[str, int] = {}
    for part in line[len("# meta "):].split():
        if "=" not in part:
            return None
        key, _, value = part.partition("=")
        try:
            fields[key] = int(value)
        except ValueError:
            return None
    try:
        return TraceMeta(
            n_processors=fields["n_processors"],
            n_blocks=fields["n_blocks"],
            n_refs=fields["refs"],
        )
    except KeyError:
        return None


def scan_trace_meta(path: Union[str, Path]) -> TraceMeta:
    """Shape of the trace at ``path``.

    O(1) when the file carries the ``# meta`` line :func:`write_trace`
    emits; otherwise falls back to one streaming pass over the refs
    (still O(lookahead) memory).  Also validates the header either way.
    """
    with open(path, "r", encoding="ascii") as fh:
        first = fh.readline()
        _check_header(path, first if first else None)
        second = fh.readline().strip()
    meta = _parse_meta_line(second)
    if meta is not None and meta.n_refs > 0:
        return meta
    max_pid = -1
    max_block = -1
    count = 0
    for ref in iter_trace(path):
        count += 1
        if ref.pid > max_pid:
            max_pid = ref.pid
        if ref.block > max_block:
            max_block = ref.block
    if count == 0:
        raise TraceFormatError(path, 0, "empty trace (no references)")
    return TraceMeta(n_processors=max_pid + 1, n_blocks=max_block + 1, n_refs=count)


def record(workload: Workload, refs_per_proc: int) -> List[MemRef]:
    """Materialize a round-robin interleaving of a workload's streams.

    The interleaving fixes a canonical global order so a recorded trace is
    one deterministic object, independent of simulator timing.
    """
    return list(record_stream(workload, refs_per_proc))


def record_stream(workload: Workload, refs_per_proc: int) -> Iterator[MemRef]:
    """Generator form of :func:`record` — feed directly to
    :func:`write_trace` to record huge traces without materializing."""
    streams = [workload.stream(pid) for pid in range(workload.n_processors)]
    for _ in range(refs_per_proc):
        for stream in streams:
            try:
                yield next(stream)
            except StopIteration:
                continue


def _digest_refs(refs: Iterable[MemRef]) -> str:
    h = hashlib.sha256()
    for ref in refs:
        h.update(str(ref).encode("ascii"))
        h.update(b"\n")
    return h.hexdigest()[:16]


class TraceWorkload(Workload):
    """Replay a materialized trace as per-processor streams.

    References keep their recorded per-processor order; the global
    interleaving during simulation is determined by timing, as with any
    workload.  For traces too large to hold in memory use
    :class:`StreamingTraceWorkload`.
    """

    def __init__(self, refs: Sequence[MemRef]) -> None:
        if not refs:
            raise ValueError("empty trace")
        self._by_pid: dict = {}
        for ref in refs:
            self._by_pid.setdefault(ref.pid, []).append(ref)
        self.n_processors = max(self._by_pid) + 1
        blocks = [r.block for r in refs]
        self.n_blocks = max(blocks) + 1
        self.n_refs = len(refs)
        self._digest = _digest_refs(refs)

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "TraceWorkload":
        return cls(read_trace(path))

    def _raw_stream(self, pid: int) -> Iterator[MemRef]:
        return iter(self._by_pid.get(pid, []))

    def refs_for(self, pid: int) -> List[MemRef]:
        return list(self._by_pid.get(pid, []))

    def __repr__(self) -> str:
        # Content-addressed: sweep cache keys embed repr(workload), so it
        # must identify the trace, not the object identity.
        return (
            f"TraceWorkload(n_processors={self.n_processors}, "
            f"n_refs={self.n_refs}, digest={self._digest!r})"
        )


#: Default per-consumer lookahead bound for the streaming demultiplexer.
DEFAULT_MAX_LOOKAHEAD = 4096


class StreamingTraceWorkload(Workload):
    """Replay a trace file without materializing it.

    One shared :func:`iter_trace` pass feeds per-pid bounded lookahead
    buffers: when processor ``pid`` asks for its next reference, the
    demultiplexer pulls from the file, parking refs that belong to other
    claimed processors in their buffers.  Peak memory is bounded by
    ``max_lookahead`` refs per processor (plus the chunk buffer) — not by
    trace size.

    If the interleaving is so skewed that serving one consumer would
    buffer more than ``max_lookahead`` refs (either the requester scans
    too far ahead, or a laggard's buffer fills), the affected stream
    *detaches*: it drains what it has, then continues on a private
    filtered scan of the file fast-forwarded to its position — identical
    sequence, graceful-degradation cost, never an error.  This mirrors
    the memo-cap fallback in
    :class:`~repro.workloads.synthetic.DuboisBriggsWorkload`.

    Checkpointing works through the standard position-counting stream
    wrapper: pickling stores ``(workload, pid, position)`` and restore
    re-scans the file, so resume offsets survive process boundaries.
    Only the first ``stream(pid)`` call per pid joins the shared demux;
    later calls (restores, :meth:`Workload.take`) get private scans and
    never steal refs from a live stream.
    """

    def __init__(
        self,
        path: Union[str, Path],
        max_lookahead: int = DEFAULT_MAX_LOOKAHEAD,
    ) -> None:
        if max_lookahead < 1:
            raise ValueError("max_lookahead must be >= 1")
        self.path = str(path)
        self.max_lookahead = max_lookahead
        meta = scan_trace_meta(path)
        self.n_processors = meta.n_processors
        self.n_blocks = meta.n_blocks
        self.n_refs = meta.n_refs
        self._file_digest: Optional[str] = None
        # One line table for the shared reader and every private rescan
        # (detached streams, restores): a checkpoint restore rescans the
        # file once per processor, and those rescans hit the same table.
        self._line_refs = RefTable(_parse_line)
        self._reset_demux()

    # ------------------------------------------------------------------
    # Demultiplexer
    # ------------------------------------------------------------------
    def _reset_demux(self) -> None:
        self._source: Optional[Iterator[MemRef]] = None
        self._buffers: Dict[int, Deque[MemRef]] = {}
        self._claimed: Set[int] = set()
        self._detached: Set[int] = set()

    def _raw_stream(self, pid: int) -> Iterator[MemRef]:
        if pid in self._claimed or self._source is not None:
            # Restores, .take() probes, and late claimants (after the
            # shared reader has started — their early refs were already
            # passed over) scan privately; the shared demux belongs to
            # the streams claimed up front, as the machine builder does.
            return self._scan(pid)
        self._claimed.add(pid)
        self._buffers[pid] = deque()
        return self._demux_stream(pid)

    def _scan(self, pid: int) -> Iterator[MemRef]:
        refs = _read_refs(self.path, self._line_refs)
        return (ref for ref in refs if ref.pid == pid)

    def _demux_stream(self, pid: int) -> Iterator[MemRef]:
        consumed = 0
        buffers = self._buffers
        while True:
            buf = buffers[pid]
            if buf:
                consumed += 1
                yield buf.popleft()
                continue
            if pid in self._detached:
                break
            ref = self._pull_for(pid)
            if ref is None:
                if pid in self._detached:
                    break
                return  # true end of trace for this pid
            consumed += 1
            yield ref
        # Detached: continue on a private scan, fast-forwarded past
        # everything already yielded.  Same sequence, bounded memory.
        it = self._scan(pid)
        for _ in range(consumed):
            next(it)
        yield from it

    def _pull_for(self, pid: int) -> Optional[MemRef]:
        """Advance the shared reader until a ref for ``pid`` appears.

        Parks refs for other claimed pids in their buffers.  Returns
        ``None`` at end-of-trace, or — after marking a stream detached —
        when the lookahead budget is exhausted.
        """
        if self._source is None:
            self._source = _read_refs(self.path, self._line_refs)
        source = self._source
        buffers = self._buffers
        detached = self._detached
        cap = self.max_lookahead
        pulled = 0
        for ref in source:
            other = ref.pid
            if other == pid:
                return ref
            if other in buffers and other not in detached:
                buf = buffers[other]
                buf.append(ref)
                if len(buf) > cap:
                    # Laggard overflow: that stream drains its buffer,
                    # then rescans privately.  Stop feeding it.
                    detached.add(other)
            pulled += 1
            if pulled >= cap:
                # Requester is scanning too far ahead of everyone else.
                detached.add(pid)
                return None
        return None

    # ------------------------------------------------------------------
    # Pickle / identity
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        # Live demux state (file handle, generators) does not pickle and
        # must not: restored streams re-scan from the file.
        state = self.__dict__.copy()
        state["_source"] = None
        state["_buffers"] = {}
        state["_claimed"] = set()
        state["_detached"] = set()
        # A cache, rebuilt on load: it never enters checkpoint payloads.
        del state["_line_refs"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._line_refs = RefTable(_parse_line)

    def file_digest(self) -> str:
        """SHA-256 of the trace file (cached) — trace content identity."""
        if self._file_digest is None:
            h = hashlib.sha256()
            with open(self.path, "rb") as fh:
                for chunk in iter(lambda: fh.read(1 << 20), b""):
                    h.update(chunk)
            self._file_digest = h.hexdigest()[:16]
        return self._file_digest

    def __repr__(self) -> str:
        # Content-addressed (not object identity): sweep cache keys embed
        # repr(workload), and the same trace must hit the same entry.
        return (
            f"StreamingTraceWorkload(digest={self.file_digest()!r}, "
            f"n_processors={self.n_processors}, n_refs={self.n_refs}, "
            f"max_lookahead={self.max_lookahead})"
        )
