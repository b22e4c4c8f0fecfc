"""Exporters: Chrome trace-event JSON, a plain-text event log, and JSONL
metrics records.

**Chrome trace** — the output of :func:`write_chrome_trace` loads
directly in Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``.
One simulated cycle maps to one microsecond.  Tracks (one per
processor, one per home controller, one for the interconnect) are
threads of a single process; transaction spans and their phase
segments are complete ("X") events, broadcasts and directory state
transitions are instants ("i"), and sampler windows become counter
("C") series.

**Event log** — :func:`render_events` prints the retained sends,
broadcasts and directory state transitions one per line, optionally
filtered by block; the tool to reach for when a run misbehaves::

    obs = instrument_machine(machine)
    machine.run(refs_per_proc=500)
    print(render_events(obs, blocks={7}, last=40))

Both trace exporters read the hub's retained events, so they cover the
measured window (:meth:`~repro.obs.core.Observability.reset` clears
them at the end of warm-up).

**JSONL metrics** — :func:`metrics_records` yields one JSON-ready dict
per line: a ``run`` header (config + merged counters), one ``latency``
record per outcome histogram, one ``phase`` record per span segment
histogram, and one ``sample`` record per sampler window.  The schema is
documented in ``docs/observability.md``; ``runner.sweep`` points
consume the same dicts.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.obs.core import Observability

#: All tracks live in one trace-event "process".
_PID = 1


def chrome_trace_events(obs: Observability) -> List[Dict[str, Any]]:
    """Flatten ``obs`` into a Chrome trace-event list (ts in µs)."""
    events: List[Dict[str, Any]] = []
    tids: Dict[str, int] = {}

    def tid(track: str) -> int:
        number = tids.get(track)
        if number is None:
            number = tids[track] = len(tids)
            events.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "pid": _PID,
                    "tid": number,
                    "args": {"name": track},
                }
            )
        return number

    # Processor tracks first so tid order matches pid order.
    for span in obs.spans:
        tid(f"P{span.pid}")
    for span in obs.spans:
        track = tid(f"P{span.pid}")
        label = f"{span.op}{span.block} {span.outcome}"
        events.append(
            {
                "ph": "X",
                "name": label,
                "cat": "span",
                "pid": _PID,
                "tid": track,
                "ts": span.start,
                "dur": span.latency,
                "args": {
                    "block": span.block,
                    "op": span.op,
                    "outcome": span.outcome,
                },
            }
        )
        if span.marks:  # misses: nest the phase segments inside the span
            for phase, t0, t1 in span.segments():
                events.append(
                    {
                        "ph": "X",
                        "name": phase,
                        "cat": "phase",
                        "pid": _PID,
                        "tid": track,
                        "ts": t0,
                        "dur": t1 - t0,
                        "args": {"outcome": span.outcome},
                    }
                )
    for event in obs.events:
        if event.name == "send":
            message = event.data["message"]
            delivery = event.data["delivery"]
            events.append(
                {
                    "ph": "X",
                    "name": message.kind.name,
                    "cat": "message",
                    "pid": _PID,
                    "tid": tid(event.track),
                    "ts": event.time,
                    "dur": max(delivery - event.time, 0),
                    "args": {
                        "src": message.src,
                        "dst": message.dst,
                        "block": message.block,
                    },
                }
            )
        elif event.name == "broadcast":
            message = event.data["message"]
            events.append(
                {
                    "ph": "i",
                    "s": "t",
                    "name": f"{message.kind.name}*",
                    "cat": "message",
                    "pid": _PID,
                    "tid": tid(event.track),
                    "ts": event.time,
                    "args": {
                        "src": message.src,
                        "block": message.block,
                        "recipients": event.data["recipients"],
                    },
                }
            )
        elif event.name == "state":
            data = event.data
            events.append(
                {
                    "ph": "i",
                    "s": "t",
                    "name": f"b{data['block']}: {data['new'].name}",
                    "cat": "directory",
                    "pid": _PID,
                    "tid": tid(event.track),
                    "ts": event.time,
                    "args": {
                        "block": data["block"],
                        "old": data["old"].name,
                        "new": data["new"].name,
                    },
                }
            )
    for sampler in obs.samplers:
        for window in sampler.windows:
            for key, value in window.items():
                if key in ("t0", "t1", "partial"):
                    continue
                events.append(
                    {
                        "ph": "C",
                        "name": f"{sampler.name}.{key}",
                        "pid": _PID,
                        "ts": window["t0"],
                        "args": {"value": value},
                    }
                )
    return events


def chrome_trace(obs: Observability) -> Dict[str, Any]:
    """The full Chrome trace-event JSON object."""
    return {
        "traceEvents": chrome_trace_events(obs),
        "displayTimeUnit": "ms",
        "otherData": {"protocol": obs.protocol, "clock": "1 cycle = 1 us"},
    }


def write_chrome_trace(path, obs: Observability) -> int:
    """Write the Perfetto-loadable trace; returns the event count."""
    trace = chrome_trace(obs)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(trace, handle, indent=1)
        handle.write("\n")
    return len(trace["traceEvents"])


def _event_line(event) -> Tuple[Optional[int], Optional[str]]:
    """``(block, line)`` for one retained event (``line`` None: skip)."""
    data = event.data
    if event.name == "state":
        block = data["block"]
        detail = f"{event.track}: block {block} -> {data['new'].name}"
    elif event.name in ("send", "broadcast"):
        message = data["message"]
        block = message.block
        detail = repr(message)
        if event.name == "broadcast":
            detail += f" exclude={sorted(data['exclude'] or ())}"
    else:
        return None, None
    return block, f"{event.time:>8}  {event.name:<9} {detail}"


def render_events(
    obs: Observability,
    blocks: Optional[Set[int]] = None,
    last: Optional[int] = None,
) -> str:
    """Human-readable log of the retained events (see module doc).

    ``blocks`` keeps only events about those blocks; ``last`` shows only
    the trailing entries.  Raises ``ValueError`` on a hub built with
    ``keep_events=False``, which retains nothing to render.
    """
    if not obs.keep_events:
        raise ValueError("render_events needs a hub built with keep_events=True")
    lines = []
    for event in obs.events:
        block, line = _event_line(event)
        if line is not None and (blocks is None or block in blocks):
            lines.append(line)
    chosen = lines if last is None else lines[-last:]
    if not chosen:
        return "(trace empty)"
    header = f"trace: {len(lines)} events"
    if last is not None and len(lines) > last:
        header += f" (showing last {last})"
    return "\n".join([header] + chosen)


# ----------------------------------------------------------------------
# JSONL metrics
# ----------------------------------------------------------------------
def metrics_records(
    obs: Observability, run_info: Optional[Dict[str, Any]] = None
) -> List[Dict[str, Any]]:
    """Flatten ``obs`` into JSONL-ready metric records (see module doc).

    *Every* record is stamped with the shared results
    :data:`~repro.schema.SCHEMA_VERSION` (not just the ``run`` header):
    fleet tooling concatenates, tails, and splits these files, so each
    line must be checkable on its own — see
    :func:`repro.schema.stamp_record` and :func:`read_metrics_jsonl`.
    """
    from repro.schema import stamp_record

    records: List[Dict[str, Any]] = [
        {
            "record": "run",
            "protocol": obs.protocol,
            **(run_info or {}),
        }
    ]
    for outcome in sorted(obs.latency):
        records.append(
            {
                "record": "latency",
                "outcome": outcome,
                **obs.latency[outcome].summary(),
            }
        )
    for key in sorted(obs.phases):
        outcome, _, phase = key.partition("/")
        records.append(
            {
                "record": "phase",
                "outcome": outcome,
                "phase": phase,
                **obs.phases[key].summary(),
            }
        )
    for sampler in obs.samplers:
        for window in sampler.windows:
            records.append(
                {"record": "sample", "sampler": sampler.name, **window}
            )
    return [stamp_record(record) for record in records]


def write_jsonl(path, records: List[Dict[str, Any]]) -> int:
    """Write one JSON object per line; returns the record count."""
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    return len(records)


def read_metrics_jsonl(path) -> List[Dict[str, Any]]:
    """Parse a metrics JSONL file, checking every record's schema.

    The reader-side half of the per-record stamping contract: each
    line's ``schema_version`` is validated
    (:class:`~repro.schema.SchemaMismatchError` on mismatch), so a
    stale or foreign line spliced into a metrics file is rejected even
    when the ``run`` header looks fine.
    """
    from repro.schema import check_schema

    records: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for i, line in enumerate(handle):
            if not line.strip():
                continue
            record = json.loads(line)
            check_schema(
                record.get("schema_version"),
                f"{path}: metrics record on line {i + 1}",
            )
            records.append(record)
    return records
