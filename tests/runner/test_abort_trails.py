"""Abort-path progress trails: one terminal event per dispatched point.

Part of the sweep behaviour suite (harness: ``tests/runner/transports.py``).
The invariant (docs/observability.md): every point that ever emitted
``point-running`` — which means *dispatched to a worker* — is closed
by exactly one terminal event, ``point-done`` or ``point-failed``,
before ``sweep-end``, *even when the sweep fails*.  A distributed
supervisor consuming the stream must never be left holding an open
trail.  These tests drive every transport through its failure paths
and assert the invariant with :func:`repro.obs.verify_point_trails`.
"""

import os
import signal
import time

import pytest

from repro.obs import read_progress, verify_point_trails
from repro.runner import SweepError, SweepPoint
from tests.runner.transports import LOSSY, TRANSPORTS, run


def _boom(x):
    raise ValueError(f"bad point {x!r}")


def _slow_ok(x):
    time.sleep(0.3)
    return x


def _always_dies(x):
    os.kill(os.getpid(), signal.SIGKILL)


def _sleeps(x):
    time.sleep(600)


def _failed_records(path):
    records = read_progress(path)
    assert records[-1]["event"] == "sweep-end"
    assert records[-1]["status"] == "failed"
    return records


def _running(records):
    return {r["index"] for r in records if r["event"] == "point-running"}


def test_parallel_abort_closes_every_trail(tmp_path):
    # One fast failure plus slow points: when the failure lands, some
    # points are mid-flight and the rest were never dispatched.  Every
    # dispatched point is closed before the failed sweep-end; a point
    # that never left the backlog never ran, so it has no trail.
    points = [SweepPoint(_boom, {"x": 0})] + [
        SweepPoint(_slow_ok, {"x": i}) for i in range(1, 5)
    ]
    for transport in TRANSPORTS:
        path = tmp_path / f"{transport}.jsonl"
        with pytest.raises(SweepError, match="bad point"):
            run(
                transport, points, tmp_path, use_cache=False,
                progress_out=str(path),
            )
        records = _failed_records(path)
        trails = verify_point_trails(records)
        running = _running(records)
        assert set(trails) == running, transport
        assert trails[0] == "failed", transport
        # point-running means dispatched: never more than the workers.
        assert len(running) <= (1 if transport == "inline" else 2), transport


def test_parallel_every_failure_reported_not_just_first(tmp_path):
    # Two failing points on two workers: the sweep aborts on the first
    # failure, and every dispatched point still gets its own
    # point-failed — the other one's, or the abort's.
    points = [SweepPoint(_boom, {"x": i}) for i in range(2)]
    for transport in LOSSY:
        path = tmp_path / f"{transport}.jsonl"
        with pytest.raises(SweepError, match="bad point"):
            run(
                transport, points, tmp_path, use_cache=False,
                progress_out=str(path),
            )
        records = _failed_records(path)
        trails = verify_point_trails(records)
        assert trails == dict.fromkeys(_running(records), "failed")
        if transport == "pool":
            # The pool dispatches to both idle workers at once.
            assert trails == {0: "failed", 1: "failed"}


def test_elastic_error_abort_closes_inflight_trails(tmp_path):
    # Point 0 raises while point 1 sleeps on the other worker: the
    # sleeper's trail must be closed (as failed/aborted) before the
    # failed sweep-end, not abandoned open.
    points = [SweepPoint(_boom, {"x": 0}), SweepPoint(_sleeps, {"x": 1})]
    for transport in TRANSPORTS:
        path = tmp_path / f"{transport}.jsonl"
        with pytest.raises(SweepError, match="bad point"):
            run(
                transport, points, tmp_path, use_cache=False, max_retries=0,
                progress_out=str(path),
            )
        records = _failed_records(path)
        trails = verify_point_trails(records)
        assert trails.get(0) == "failed", transport
        # The sleeper only appears if a worker had started it; when one
        # did, its trail is closed with the abort reason.
        for record in records:
            if record["event"] == "point-failed" and record["index"] == 1:
                assert "aborted" in record["error"], transport


def test_elastic_retry_exhaustion_closes_inflight_trails(tmp_path):
    # Point 0 burns its retry budget (SIGKILL every attempt) while
    # point 1 sleeps: exhaustion aborts the sweep and the sleeper's
    # open trail must be closed before sweep-end.
    points = [
        SweepPoint(_always_dies, {"x": 0}),
        SweepPoint(_sleeps, {"x": 1}),
    ]
    for transport in LOSSY:
        path = tmp_path / f"{transport}.jsonl"
        with pytest.raises(SweepError, match="retries exhausted"):
            run(
                transport, points, tmp_path, use_cache=False, max_retries=1,
                progress_out=str(path),
            )
        records = _failed_records(path)
        trails = verify_point_trails(records)
        assert trails.get(0) == "failed", transport
        failed = [r for r in records if r["event"] == "point-failed"]
        assert all(r["index"] in (0, 1) for r in failed), transport


def test_verify_point_trails_rejects_open_trail():
    base = {"record": "progress", "sweep": "s"}
    records = [
        dict(base, event="point-running", index=0),
        dict(base, event="sweep-end", status="failed"),
    ]
    with pytest.raises(ValueError, match="no terminal event"):
        verify_point_trails(records)


def test_verify_point_trails_rejects_double_terminal():
    base = {"record": "progress", "sweep": "s"}
    records = [
        dict(base, event="point-running", index=0),
        dict(base, event="point-done", index=0),
        dict(base, event="point-failed", index=0),
        dict(base, event="sweep-end", status="ok"),
    ]
    with pytest.raises(ValueError, match="2 terminal"):
        verify_point_trails(records)


def test_verify_point_trails_requires_sweep_end():
    with pytest.raises(ValueError, match="sweep-end"):
        verify_point_trails(
            [{"record": "progress", "event": "point-running", "index": 0}]
        )
