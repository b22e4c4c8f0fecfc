"""Structured sweep progress streaming (fleet observability, part a).

A :class:`ProgressStream` turns a sweep run into a live, append-only
JSONL event stream: a run manifest, one lifecycle trail per point
(``point-queued`` → ``point-running`` → ``point-retried`` /
``point-checkpointed`` → ``point-done`` / ``point-failed``), worker
lifecycle and heartbeat events when the transport can lose workers
(the pool and the sweep service), and a terminal ``sweep-end``.  The
sweep scheduler (:class:`~repro.runner.scheduler.Scheduler`, behind
:func:`~repro.runner.sweep.run_sweep` and the sweep service) takes a
``progress_out=`` destination and emits **supervisor-side**: a worker
that is SIGKILLed mid-task cannot flush anything, so every event —
including the dead worker's terminal ``worker-died`` /
``point-retried`` / ``point-failed`` records — is written by the
supervising process, which always survives the worker.

Records share the metrics-JSONL envelope: one JSON object per line,
``record: "progress"``, and a per-record
:data:`~repro.schema.SCHEMA_VERSION` stamp (see :mod:`repro.schema`).
Each record also carries a monotonically increasing ``seq`` and a
wall-clock ``t``, so interleaved collectors can re-order and de-dup.
Lines are flushed as they are written: a reader tailing the file
mid-run (or a crashed run's truncated file) sees a parseable prefix —
:func:`read_progress` tolerates exactly one truncated trailing line
and nothing else.

The event vocabulary is documented in ``docs/observability.md``
("Fleet observability"); it is the stream the distributed sweep
service (ROADMAP item 1) will transport.
"""

from __future__ import annotations

import json
import time
from typing import Any, Dict, IO, List, Optional, Union

from repro.schema import check_schema, stamp_record

__all__ = [
    "PROGRESS_EVENTS",
    "ProgressStream",
    "read_progress",
    "verify_point_trails",
]

#: Events that close a point's lifecycle trail.  Every point that ever
#: went ``point-running`` must be closed by exactly one of these before
#: the stream's ``sweep-end`` — on failed sweeps too.  The sweep
#: scheduler upholds this on every transport; consumers can assert it
#: with :func:`verify_point_trails`.
TERMINAL_EVENTS = ("point-done", "point-failed")

#: The complete event vocabulary, for validation and documentation.
PROGRESS_EVENTS = (
    "sweep-begin",
    "point-queued",
    "point-running",
    "point-retried",
    "point-checkpointed",
    "point-done",
    "point-failed",
    "point-metrics",
    "worker-spawned",
    "worker-died",
    "worker-stalled",
    "worker-heartbeat",
    "sweep-end",
)

#: Destination type accepted by the runners' ``progress_out=``.
ProgressOut = Union[str, "ProgressStream", IO[str], Any]


class ProgressStream:
    """Schema-stamped JSONL event writer for one sweep run.

    Args:
        out: a path (opened for writing, closed by :meth:`close`) or an
            open text file-like object (left open — the caller owns it).
        label: sweep name stamped on every record.
        clock: wall-clock source for the ``t`` field (injectable so
            tests can pin it).
    """

    def __init__(
        self,
        out: Union[str, IO[str], Any],
        label: str = "sweep",
        clock=time.time,
    ) -> None:
        self.label = label
        self._clock = clock
        self._seq = 0
        if hasattr(out, "write"):
            self._handle: IO[str] = out
            self._owns_handle = False
        else:
            self._handle = open(out, "w", encoding="utf-8")
            self._owns_handle = True

    def emit(self, event: str, **fields: Any) -> Dict[str, Any]:
        """Write one event record; returns the record written.

        The record is flushed immediately so concurrent readers (and
        post-mortem readers of a crashed supervisor) see every event
        that was emitted, with at most one truncated trailing line.
        """
        if event not in PROGRESS_EVENTS:
            raise ValueError(
                f"unknown progress event {event!r}; "
                f"expected one of {PROGRESS_EVENTS}"
            )
        record = stamp_record(
            {
                "record": "progress",
                "event": event,
                "sweep": self.label,
                "seq": self._seq,
                "t": self._clock(),
                **fields,
            }
        )
        self._seq += 1
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._handle.flush()
        return record

    def close(self) -> None:
        """Close the underlying file if this stream opened it."""
        if self._owns_handle:
            self._handle.close()

    def __enter__(self) -> "ProgressStream":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def as_progress_stream(
    progress_out: Optional[ProgressOut], label: str
) -> Optional[ProgressStream]:
    """Coerce a runner's ``progress_out=`` argument into a stream.

    ``None`` stays ``None`` (progress off); an existing
    :class:`ProgressStream` is passed through unchanged (the caller
    owns its lifecycle); anything else — path or file-like — gets
    wrapped.  Runners close only the streams they created, mirroring
    the path/file-like ownership rule of :class:`ProgressStream`.
    """
    if progress_out is None or isinstance(progress_out, ProgressStream):
        return progress_out
    return ProgressStream(progress_out, label=label)


def read_progress(
    path: Union[str, Any], strict: bool = True
) -> List[Dict[str, Any]]:
    """Parse a progress JSONL file, checking every record's schema.

    Progress files are written live and survive supervisor crashes, so
    the *final* line may be truncated mid-write; it is silently
    dropped.  A malformed line anywhere else is corruption, not an
    in-flight write, and raises ``ValueError``.  With ``strict`` every
    record's ``schema_version`` is checked
    (:class:`~repro.schema.SchemaMismatchError` on mismatch) and the
    envelope (``record``/``event`` fields) validated.
    """
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    records: List[Dict[str, Any]] = []
    for i, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            if i == len(lines) - 1:
                break  # in-flight write: a truncated trailing line
            raise ValueError(
                f"{path}: corrupt progress record on line {i + 1}: "
                f"{line[:120]!r}"
            )
        if strict:
            check_schema(
                record.get("schema_version"),
                f"progress record on line {i + 1}",
            )
            if record.get("record") != "progress":
                raise ValueError(
                    f"{path}: line {i + 1} is not a progress record: "
                    f"{record.get('record')!r}"
                )
            if record.get("event") not in PROGRESS_EVENTS:
                raise ValueError(
                    f"{path}: line {i + 1} has unknown event "
                    f"{record.get('event')!r}"
                )
        records.append(record)
    return records


def verify_point_trails(
    records: List[Dict[str, Any]]
) -> Dict[int, str]:
    """Check the one-terminal-event-per-point invariant on a stream.

    For a completed sweep stream (the last record is ``sweep-end``,
    whatever its status), every point index that ever emitted
    ``point-running`` must be closed by **exactly one** terminal event
    (``point-done`` or ``point-failed``) before that ``sweep-end`` —
    this is the guarantee stated in ``docs/observability.md`` and the
    contract the sweep-service coordinator relies on.  Cache hits may
    go straight to ``point-done`` without a ``point-running``; they too
    must terminate exactly once.

    Returns ``{index: "done" | "failed"}`` for every terminated point.
    Raises ``ValueError`` describing the first violation found:
    a missing ``sweep-end``, an event after ``sweep-end``, a dispatched
    point with no terminal event, or a point with more than one.
    """
    if not records:
        raise ValueError("empty progress stream")
    if records[-1].get("event") != "sweep-end":
        raise ValueError(
            f"stream does not end with sweep-end "
            f"(last event: {records[-1].get('event')!r})"
        )
    ends = [r for r in records if r.get("event") == "sweep-end"]
    if len(ends) != 1:
        raise ValueError(f"expected exactly one sweep-end, found {len(ends)}")
    running: Dict[int, int] = {}
    terminals: Dict[int, List[str]] = {}
    for record in records:
        event = record.get("event")
        if event == "point-running":
            index = record["index"]
            running[index] = running.get(index, 0) + 1
        elif event in TERMINAL_EVENTS:
            index = record["index"]
            terminals.setdefault(index, []).append(event)
    for index in sorted(running):
        if index not in terminals:
            raise ValueError(
                f"point {index} ran ({running[index]} attempt(s)) but has "
                f"no terminal event before sweep-end"
            )
    for index in sorted(terminals):
        if len(terminals[index]) != 1:
            raise ValueError(
                f"point {index} has {len(terminals[index])} terminal "
                f"events ({terminals[index]}); expected exactly one"
            )
    return {
        index: ("done" if events[0] == "point-done" else "failed")
        for index, events in terminals.items()
    }
