"""Sweep progress on every transport: terminal events survive SIGKILL.

Part of the sweep behaviour suite (harness: ``tests/runner/transports.py``).
The contract under test: progress events are emitted by the scheduler,
in the supervising process (the pool's parent, the coordinator), so a
worker that is SIGKILLed mid-task (no cleanup handlers, nothing flushed
worker-side) still produces its ``worker-died`` / ``point-retried`` /
``point-failed`` trail, and the stream stays parseable even when the
supervisor itself dies mid-write.
"""

import os

import pytest

from repro.obs.progress import read_progress, verify_point_trails
from repro.runner import SweepError, SweepPoint
from repro.runner import scheduler as scheduler_mod
from tests.runner.test_elastic import (
    _KILL_MARKER_VAR,
    _always_dies,
    _flaky,
    _stalls,
    killer_points,
)
from tests.runner.transports import LOSSY, run


def test_sigkilled_worker_still_gets_terminal_events(tmp_path):
    for transport in LOSSY:
        marker = str(tmp_path / f"{transport}.marker")
        path = tmp_path / f"{transport}.jsonl"
        points = [
            SweepPoint(_flaky, {"x": i, "marker": marker}) for i in range(5)
        ]
        report = run(
            transport, points, tmp_path, use_cache=False,
            progress_out=str(path),
        )
        assert report.results == [0, 10, 20, 30, 40], transport
        records = read_progress(path)
        events = [r["event"] for r in records]
        assert events.count("worker-spawned") >= 2, transport
        assert "worker-died" in events, transport
        retried = [r for r in records if r["event"] == "point-retried"]
        assert len(retried) == 1, transport
        assert "x=2" in retried[0]["point"]
        assert retried[0]["retry"] == 1 and retried[0]["resume"] is False
        # The killed point still completes and reports its worker pid.
        done = [r for r in records if r["event"] == "point-done"]
        assert len(done) == 5 and all("worker" in r for r in done), transport
        end = records[-1]
        assert end["event"] == "sweep-end"
        assert end["status"] == "ok" and end["retries"] == 1, transport
        assert verify_point_trails(records) == dict.fromkeys(range(5), "done")


def test_retry_exhaustion_emits_point_failed_and_failed_end(tmp_path):
    points = [SweepPoint(_always_dies, {"x": 0})]
    for transport in LOSSY:
        path = tmp_path / f"{transport}.jsonl"
        with pytest.raises(SweepError, match="retries exhausted"):
            run(
                transport, points, tmp_path, workers=1, use_cache=False,
                max_retries=1, progress_out=str(path),
            )
        records = read_progress(path)
        events = [r["event"] for r in records]
        # initial attempt + 1 retry
        assert events.count("worker-died") == 2, transport
        failed = [r for r in records if r["event"] == "point-failed"]
        assert failed and "worker died" in failed[-1]["error"], transport
        assert records[-1]["event"] == "sweep-end"
        assert records[-1]["status"] == "failed"


def test_stall_reap_emits_worker_stalled_then_retried(tmp_path):
    for transport in LOSSY:
        marker = str(tmp_path / f"{transport}.marker")
        path = tmp_path / f"{transport}.jsonl"
        points = [
            SweepPoint(_stalls, {"x": i, "marker": marker}) for i in range(3)
        ]
        report = run(
            transport, points, tmp_path, use_cache=False, stall_timeout=0.5,
            progress_out=str(path),
        )
        assert report.results == [0, 1, 2], transport
        records = read_progress(path)
        stalled = [r for r in records if r["event"] == "worker-stalled"]
        assert len(stalled) == 1 and stalled[0]["held_s"] > 0.5, transport
        assert any(r["event"] == "worker-died" for r in records), transport
        assert any(r["event"] == "point-retried" for r in records), transport
        assert records[-1]["status"] == "ok"


def test_heartbeats_flow_while_the_pool_runs(tmp_path, monkeypatch):
    # Set before the run, so forked pool and service processes inherit it.
    monkeypatch.setattr(scheduler_mod, "_PROGRESS_HEARTBEAT_EVERY", 0.0)
    for transport in LOSSY:
        marker = str(tmp_path / f"{transport}.marker")
        path = tmp_path / f"{transport}.jsonl"
        points = [
            SweepPoint(_stalls, {"x": i, "marker": marker}) for i in range(2)
        ]
        run(
            transport, points, tmp_path, workers=1, use_cache=False,
            stall_timeout=0.3, progress_out=str(path),
        )
        beats = [
            r for r in read_progress(path) if r["event"] == "worker-heartbeat"
        ]
        assert beats, f"{transport}: no heartbeats despite a long run"
        for beat in beats:
            assert set(beat) >= {
                "workers", "busy", "idle", "backlog", "remaining"
            }


def test_stream_parseable_after_supervisor_death_mid_write(tmp_path):
    # Kill the "supervisor" the crudest way possible: truncate its file
    # mid-record.  The reader must return every complete event.
    for transport in LOSSY:
        marker = str(tmp_path / f"{transport}.marker")
        path = tmp_path / f"{transport}.jsonl"
        points = [
            SweepPoint(_flaky, {"x": i, "marker": marker}) for i in range(3)
        ]
        run(
            transport, points, tmp_path, use_cache=False,
            progress_out=str(path),
        )
        full = path.read_bytes()
        truncated = tmp_path / f"{transport}-truncated.jsonl"
        # Cut into the last record.
        truncated.write_bytes(full[: len(full) - 25])
        records = read_progress(truncated)
        assert records, "prefix of a live stream must parse"
        assert all(r["record"] == "progress" for r in records)
        assert len(records) < len(read_progress(path))


def test_elastic_checkpoint_retry_emits_point_checkpointed(tmp_path, monkeypatch):
    # The shard-checkpoint kill pattern of test_elastic.py: the worker
    # completes its run (writing shard checkpoints), SIGKILLs itself
    # before reporting, and the scheduler must emit point-checkpointed
    # + point-retried(resume=True) on the retry.
    points = killer_points()
    for transport in LOSSY:
        monkeypatch.setenv(_KILL_MARKER_VAR, str(tmp_path / f"{transport}.m"))
        path = tmp_path / f"{transport}.jsonl"
        report = run(
            transport,
            points,
            tmp_path,
            workers=1,
            use_cache=False,
            checkpoint_every=150,
            checkpoint_dir=str(tmp_path / f"{transport}-shards"),
            progress_out=str(path),
        )
        assert report.retries == 1, transport
        records = read_progress(path)
        checkpointed = [
            r for r in records if r["event"] == "point-checkpointed"
        ]
        assert len(checkpointed) == 1, transport
        assert os.path.basename(checkpointed[0]["path"]).startswith("shard-")
        retried = [r for r in records if r["event"] == "point-retried"]
        assert retried[0]["resume"] is True, transport
