"""Exporters: golden Chrome trace-event JSON and JSONL metrics, and the
plain-text event log.

The goldens pin the full export of a tiny deterministic scripted run.
If an *intentional* change to the exporters or the probe placement
shifts them, regenerate with::

    PYTHONPATH=src python tests/obs/regen_goldens.py
"""

import json
from pathlib import Path

import pytest

from repro.obs import (
    chrome_trace,
    instrument_machine,
    machine_metrics_records,
    render_events,
    write_chrome_trace,
    write_jsonl,
)
from repro.workloads.reference import MemRef, Op

from tests.conftest import read, scripted_machine, write

GOLDEN_DIR = Path(__file__).parent / "golden"


def golden_run():
    """The pinned scenario: 2 procs forcing RM, WM, WH-unmod, and hits."""
    r = lambda pid, block: MemRef(pid=pid, op=Op.READ, block=block, shared=True)
    w = lambda pid, block: MemRef(pid=pid, op=Op.WRITE, block=block, shared=True)
    machine = scripted_machine(
        [
            [r(0, 0), w(0, 0), r(0, 1), r(0, 0)],
            [r(1, 0), w(1, 1), r(1, 1)],
        ]
    )
    obs = instrument_machine(machine, sample_interval=25)
    machine.run(refs_per_proc=4)
    obs.flush(machine.sim.now)
    return machine, obs


def _normalize(obj):
    return json.loads(json.dumps(obj, sort_keys=True))


def test_chrome_trace_matches_golden():
    _, obs = golden_run()
    expected = json.loads((GOLDEN_DIR / "trace.json").read_text())
    assert _normalize(chrome_trace(obs)) == expected


def test_metrics_records_match_golden():
    machine, obs = golden_run()
    records = machine_metrics_records(machine, obs)
    expected = [
        json.loads(line)
        for line in (GOLDEN_DIR / "metrics.jsonl").read_text().splitlines()
    ]
    assert _normalize(records) == expected


def test_writers_round_trip(tmp_path):
    machine, obs = golden_run()
    trace_path = tmp_path / "t.json"
    count = write_chrome_trace(trace_path, obs)
    loaded = json.loads(trace_path.read_text())
    assert len(loaded["traceEvents"]) == count
    assert loaded["otherData"]["protocol"] == "twobit"
    jsonl_path = tmp_path / "m.jsonl"
    records = machine_metrics_records(machine, obs)
    assert write_jsonl(jsonl_path, records) == len(records)
    lines = jsonl_path.read_text().splitlines()
    assert len(lines) == len(records)
    assert json.loads(lines[0])["record"] == "run"


def test_every_metrics_record_is_schema_stamped():
    machine, obs = golden_run()
    from repro.schema import SCHEMA_VERSION

    records = machine_metrics_records(machine, obs)
    assert all(r["schema_version"] == SCHEMA_VERSION for r in records), (
        "per-record stamping: fleet tooling splits/concatenates JSONL "
        "files, so every line must carry its own schema version"
    )


def test_read_metrics_jsonl_round_trip_and_rejection(tmp_path):
    from repro.obs import read_metrics_jsonl
    from repro.schema import SchemaMismatchError

    machine, obs = golden_run()
    records = machine_metrics_records(machine, obs)
    path = tmp_path / "m.jsonl"
    write_jsonl(path, records)
    assert _normalize(read_metrics_jsonl(path)) == _normalize(records)

    # Splice in one foreign line: the reader must refuse the file even
    # though the run header is fine.
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(
            json.dumps({"record": "latency", "schema_version": 999}) + "\n"
        )
    with pytest.raises(SchemaMismatchError):
        read_metrics_jsonl(path)


def test_trace_structure_invariants():
    """Schema checks that hold for any run, golden or not."""
    _, obs = golden_run()
    events = chrome_trace(obs)["traceEvents"]
    tracks = {
        e["args"]["name"] for e in events if e["ph"] == "M"
    }
    assert {"P0", "P1"} <= tracks  # one track per processor
    spans = [e for e in events if e.get("cat") == "span"]
    assert spans and all(e["ph"] == "X" and e["dur"] >= 0 for e in spans)
    # Phase segments nest within their span's [ts, ts+dur] envelope.
    for e in events:
        if e.get("cat") == "phase":
            parents = [
                s
                for s in spans
                if s["tid"] == e["tid"]
                and s["ts"] <= e["ts"]
                and e["ts"] + e["dur"] <= s["ts"] + s["dur"]
            ]
            assert parents, f"orphan phase segment {e}"
    counters = [e for e in events if e["ph"] == "C"]
    assert counters and all("value" in e["args"] for e in counters)


# ----------------------------------------------------------------------
# Plain-text event log
# ----------------------------------------------------------------------
def _logged_machine():
    machine = scripted_machine([[], []])
    return machine, instrument_machine(machine, sample_interval=0)


def _kinds(text):
    return {line.split()[1] for line in text.splitlines()[1:]}


def test_render_events_captures_sends_broadcasts_and_states():
    machine, obs = _logged_machine()
    read(machine, 0, 1)
    read(machine, 1, 1)
    write(machine, 0, 1)  # MREQUEST -> BROADINV -> MGRANTED
    text = render_events(obs)
    assert _kinds(text) == {"send", "broadcast", "state"}
    assert "BROADINV" in text


def test_render_events_block_filter():
    machine, obs = _logged_machine()
    read(machine, 0, 1)
    read(machine, 0, 3)
    only3 = render_events(obs, blocks={3})
    assert only3 != "(trace empty)"
    assert all(
        line in render_events(obs).splitlines()
        for line in only3.splitlines()[1:]
    )
    assert render_events(obs, blocks={5}) == "(trace empty)"


def test_render_events_state_transitions_with_block_filter():
    machine, obs = _logged_machine()
    write(machine, 0, 2)
    states = [
        line for line in render_events(obs, blocks={2}).splitlines()
        if line.split()[1] == "state"
    ]
    assert any("block 2 -> PRESENTM" in line for line in states)


def test_render_events_last_n_header_and_empty():
    machine, obs = _logged_machine()
    assert render_events(obs) == "(trace empty)"
    read(machine, 0, 1)
    full = render_events(obs).splitlines()
    total = len(full) - 1
    assert total > 2 and full[0] == f"trace: {total} events"
    tail = render_events(obs, last=2).splitlines()
    assert tail[0] == f"trace: {total} events (showing last 2)"
    assert tail[1:] == full[-2:]
    assert render_events(obs, last=total) == "\n".join(full)


def test_render_events_rejects_metrics_only_hub():
    machine = scripted_machine([[], []])
    obs = instrument_machine(machine, keep_events=False)
    read(machine, 0, 1)
    with pytest.raises(ValueError, match="keep_events"):
        render_events(obs)
