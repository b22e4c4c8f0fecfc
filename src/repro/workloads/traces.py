"""Trace files: store and replay reference streams.

The format is one :class:`~repro.workloads.reference.MemRef` per line
(``pid op block p|s``) with ``#`` comments, so traces are diffable and
hand-editable.  Every trace starts with a ``# repro trace v1`` header
(validated on read — see :class:`TraceFormatError`) and, when written by
:func:`write_trace`, a fixed-width ``# meta`` line recording the shape
(processors, blocks, reference count) so replaying never needs a prescan.

:func:`iter_trace` is the reader and :func:`write_trace` the writer;
``Experiment.run(record_trace=...)`` records any run through the
latter.  :class:`StreamingTraceWorkload` replays straight off the file
through a per-pid demultiplexer with bounded lookahead buffers, so
multi-GB traces run in O(lookahead) memory.  Streams remain
checkpointable: the position-counting
:class:`~repro.workloads.synthetic.ReplayableStream` wrapper restores
by re-reading the file once, through a fresh demultiplexer that drops
each stream's references before its position.
"""

from __future__ import annotations

import hashlib
import os
from collections import deque
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Deque, Dict, Iterable, Iterator, Optional, Set, Tuple, Union

from repro.atomic import atomic_write
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


def _parse_line(
    line: str, shape: Optional[Tuple[int, int]] = None
) -> Optional[MemRef]:
    """One trace line's reference; ``None`` for a blank or comment line.

    With ``shape`` (``(n_processors, n_blocks)``), a reference outside
    it is an error: the machine replaying the trace is sized by it.
    """
    text = line.strip()
    if not text or text.startswith("#"):
        return None
    ref = MemRef.parse(text)
    if shape is not None:
        n_processors, n_blocks = shape
        if not 0 <= ref.pid < n_processors:
            raise ValueError(
                f"pid {ref.pid} is outside the trace's "
                f"n_processors={n_processors}"
            )
        if not 0 <= ref.block < n_blocks:
            raise ValueError(
                f"block {ref.block} is outside the trace's n_blocks={n_blocks}"
            )
    return ref


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


def write_trace(
    path: Union[str, Path],
    refs: Iterable[MemRef],
    *,
    n_processors: Optional[int] = None,
    n_blocks: Optional[int] = None,
) -> int:
    """Write references to ``path`` atomically; returns the number written.

    Like checkpoint files, the trace is written atomically
    (:func:`repro.atomic.atomic_write`): a crash mid-write never leaves
    a truncated trace at ``path``.  A fixed-width ``# meta`` line is
    patched in after streaming the refs so readers learn the trace shape
    without a prescan.

    ``n_processors``/``n_blocks`` declare a shape larger than the refs
    imply (the recorder passes the source machine's config so a replay
    machine is sized identically even when the tail of the address space
    was never referenced).
    """
    count = 0
    max_pid = -1
    max_block = -1
    # Binary mode: the meta line is patched in place via seek, and byte
    # offsets must be exact (text-mode tell cookies are opaque).
    with atomic_write(path) as fh:
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


#: Per-consumer lookahead bound for the streaming demultiplexer.
MAX_LOOKAHEAD = 4096

#: :class:`StreamingTraceWorkload` fields a pickle leaves out.
_NOT_PICKLED = frozenset(
    ("_line_refs", "_source", "_buffers", "_claimed", "_detached", "_skip",
     "_resumed")
)


class StreamingTraceWorkload(Workload):
    """Replay a trace file without materializing it.

    One shared :func:`iter_trace` pass feeds per-pid bounded lookahead
    buffers: when processor ``pid`` asks for its next reference, the
    demultiplexer pulls from the file, parking refs that belong to other
    claimed processors in their buffers.  Peak memory is bounded by
    :data:`MAX_LOOKAHEAD` refs per processor (plus the chunk buffer) —
    not by trace size.

    If the interleaving is so skewed that serving one consumer would
    buffer more than :data:`MAX_LOOKAHEAD` refs (either the requester scans
    too far ahead, or a laggard's buffer fills), the affected stream
    *detaches*: it drains what it has, then continues on a private
    filtered scan of the file fast-forwarded to its position — identical
    sequence, graceful-degradation cost, never an error.

    A reference outside the shape the ``# meta`` line declares raises
    :class:`TraceFormatError` when it is read, instead of running on a
    machine sized too small for it.

    Checkpointing works through the standard position-counting stream
    wrapper: pickling stores ``(workload, pid, position)``.  As the
    streams unpickle, each joins the restored workload's fresh demux,
    which drops the first ``position`` refs of its pid, so a resume
    reads the file once however many processors it has.  Only the first
    ``stream(pid)`` call (or restore) per pid joins the shared demux;
    later calls (:meth:`Workload.take`) get private scans and never
    steal refs from a live stream.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = str(path)
        meta = scan_trace_meta(path)
        self.n_processors = meta.n_processors
        self.n_blocks = meta.n_blocks
        self.n_refs = meta.n_refs
        self._file_digest: Optional[str] = None
        self._reset_demux()

    # ------------------------------------------------------------------
    # Demultiplexer
    # ------------------------------------------------------------------
    def _reset_demux(self) -> None:
        # One line table for the shared reader and every private rescan
        # (detached streams, late claimants); each distinct line is
        # parsed, and checked against the trace's shape, once.
        self._line_refs = RefTable(
            partial(_parse_line, shape=(self.n_processors, self.n_blocks))
        )
        self._source: Optional[Iterator[MemRef]] = None
        self._buffers: Dict[int, Deque[MemRef]] = {}
        self._claimed: Set[int] = set()
        self._detached: Set[int] = set()
        #: pid -> refs of that pid the shared reader still drops (the
        #: ones a restored stream took before its checkpoint).
        self._skip: Dict[int, int] = {}
        #: pid -> demux stream of a restored stream, until it draws.
        self._resumed: Dict[int, Iterator[MemRef]] = {}

    def _raw_stream(self, pid: int) -> Iterator[MemRef]:
        if pid in self._claimed or self._source is not None:
            # .take() probes and late claimants (after the shared reader
            # has started — their early refs were already passed over)
            # scan privately; the shared demux belongs to the streams
            # claimed up front, as the machine builder and a restore do.
            return self._scan(pid)
        return self._claim(pid)

    def _claim(self, pid: int, skip: int = 0) -> Iterator[MemRef]:
        """Join ``pid`` to the shared demux, past its first ``skip`` refs."""
        self._claimed.add(pid)
        self._buffers[pid] = deque()
        if skip:
            self._skip[pid] = skip
        return self._demux_stream(pid, skip)

    def _will_resume(self, pid: int, position: int) -> None:
        if pid not in self._claimed and self._source is None:
            self._resumed[pid] = self._claim(pid, skip=position)

    def _resume_stream(self, pid: int, position: int) -> Iterator[MemRef]:
        stream = self._resumed.pop(pid, None)
        if stream is not None:
            return stream
        return super()._resume_stream(pid, position)

    def _scan(self, pid: int) -> Iterator[MemRef]:
        refs = _read_refs(self.path, self._line_refs)
        return (ref for ref in refs if ref.pid == pid)

    def _demux_stream(self, pid: int, start: int) -> Iterator[MemRef]:
        consumed = start
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
        # everything already yielded or skipped.  Same sequence, bounded
        # memory.
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
        skip = self._skip
        cap = MAX_LOOKAHEAD
        pulled = 0
        for ref in source:
            other = ref.pid
            if skip and other in skip:
                left = skip.pop(other) - 1
                if left:
                    skip[other] = left
                continue
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
                skip.pop(pid, None)
                return None
        return None

    # ------------------------------------------------------------------
    # Pickle / identity
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        # Live demux state (file handle, generators) does not pickle and
        # must not: restored streams join a fresh demux (_will_resume),
        # and the line table is rebuilt with it.
        return {
            key: value
            for key, value in self.__dict__.items()
            if key not in _NOT_PICKLED
        }

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._reset_demux()

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
            f"n_processors={self.n_processors}, n_refs={self.n_refs})"
        )
