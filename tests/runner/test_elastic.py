"""Scheduler behaviour on every transport: recovery, budgets, parity.

Part of the sweep behaviour suite (harness: ``tests/runner/transports.py``).
Each test runs its scenario on every transport that can exhibit it —
the pool and the service for anything that loses a worker, inline too
where a point raises — because one scheduler makes the decisions and
each transport must deliver them unchanged.

Worker functions live at module scope so they pickle by reference.
Crashes are injected with real SIGKILL (no cleanup handlers run —
exactly the failure mode the scheduler must survive), with one marker
file per transport run making each failure strike once.
"""

import hashlib
import json
import os
import signal
import time

import pytest

from repro.api import Experiment, run_point
from repro.runner import SweepError, SweepPoint
from tests.runner.transports import LOSSY, TRANSPORTS, run

#: Env var naming the marker file for the checkpoint-resume kill test;
#: an env var (inherited by worker processes) because the worker fn is
#: pickled by reference and cannot close over a tmp_path.
_KILL_MARKER_VAR = "REPRO_TEST_KILL_MARKER"


def _flaky(x, marker):
    """Dies once (SIGKILL, mid-task) on x == 2, then behaves."""
    if x == 2 and not os.path.exists(marker):
        open(marker, "w").close()
        os.kill(os.getpid(), signal.SIGKILL)
    return x * 10


def _always_dies(x):
    os.kill(os.getpid(), signal.SIGKILL)


def _raises(x):
    raise ValueError(f"bad point {x!r}")


def _stalls(x, marker):
    """Hangs (once) instead of dying — exercises stall_timeout."""
    if x == 1 and not os.path.exists(marker):
        open(marker, "w").close()
        time.sleep(600)
    return x


def _digest(results):
    return hashlib.sha256(
        json.dumps(results, sort_keys=True).encode()
    ).hexdigest()


def test_crash_recovery_retries_killed_point(tmp_path):
    for transport in LOSSY:
        marker = str(tmp_path / f"{transport}.marker")
        points = [
            SweepPoint(_flaky, {"x": i, "marker": marker}) for i in range(5)
        ]
        report = run(transport, points, tmp_path, use_cache=False)
        assert report.results == [0, 10, 20, 30, 40], transport
        assert report.retries == 1, transport


def test_retry_exhaustion_raises(tmp_path):
    points = [SweepPoint(_always_dies, {"x": 0})]
    for transport in LOSSY:
        with pytest.raises(SweepError, match="retries exhausted"):
            run(
                transport, points, tmp_path, workers=1, use_cache=False,
                max_retries=1,
            )


def test_worker_exception_propagates(tmp_path):
    points = [SweepPoint(_raises, {"x": 7})]
    for transport in TRANSPORTS:
        with pytest.raises(SweepError, match="bad point 7"):
            run(transport, points, tmp_path, use_cache=False)


def test_stalled_worker_is_killed_and_point_retried(tmp_path):
    for transport in LOSSY:
        marker = str(tmp_path / f"{transport}.marker")
        points = [
            SweepPoint(_stalls, {"x": i, "marker": marker}) for i in range(3)
        ]
        report = run(
            transport, points, tmp_path, use_cache=False, stall_timeout=0.5,
        )
        assert report.results == [0, 1, 2], transport
        assert report.retries == 1, transport


def test_elastic_matches_plain_and_shares_cache(tmp_path):
    # One grid, every transport: bit-identical results (checkpointing
    # on for the pool and the service, where shards may resume), and
    # cache entries any transport hits.
    experiment = Experiment(
        protocol="twobit", n_processors=2, refs_per_proc=200, warmup_refs=40,
    )
    axes = {"q": [0.02, 0.1], "protocol": ["twobit", "fullmap"]}
    points = experiment.sweep_points(axes)
    cache = str(tmp_path / "cache")

    inline = run("inline", points, tmp_path, cache_dir=cache)
    assert inline.cache_hits == 0
    digests = {"inline": _digest(inline.results)}
    for transport in LOSSY:
        cold = run(
            transport,
            points,
            tmp_path,
            cache_dir=str(tmp_path / f"{transport}-cache"),
            checkpoint_every=200,
            checkpoint_dir=str(tmp_path / f"{transport}-ck"),
        )
        assert cold.cache_hits == 0 and cold.retries == 0, transport
        digests[transport] = _digest(cold.results)

        # Cache keys ignore the injected checkpoint kwargs, so a run
        # pointed at the inline run's cache is pure hits.
        warmed = run(transport, points, tmp_path, cache_dir=cache)
        assert warmed.cache_hits == len(points), transport
        assert warmed.results == inline.results, transport
    assert len(set(digests.values())) == 1, digests


def _killer_point(checkpoint_every=0, checkpoint_path=None, **kwargs):
    """First attempt: run fully (writing shard checkpoints), then SIGKILL
    before reporting.  The retry must find the shard checkpoint, resume
    from it, and note that it did."""
    marker = os.environ[_KILL_MARKER_VAR]
    if checkpoint_path and os.path.exists(checkpoint_path):
        open(marker + ".resumed", "w").close()
    if checkpoint_path and not os.path.exists(marker):
        Experiment(**kwargs).run(
            checkpoint_every=checkpoint_every, checkpoint_path=checkpoint_path,
        )
        open(marker, "w").close()
        os.kill(os.getpid(), signal.SIGKILL)
    return run_point(
        checkpoint_every=checkpoint_every,
        checkpoint_path=checkpoint_path,
        **kwargs,
    )


def killer_points():
    experiment = Experiment(
        protocol="twobit", n_processors=2, refs_per_proc=200, warmup_refs=40,
    )
    return [
        SweepPoint(_killer_point, p.kwargs, key=p.key)
        for p in experiment.sweep_points({"q": [0.05]})
    ]


def test_retry_resumes_from_shard_checkpoint(tmp_path, monkeypatch):
    points = killer_points()
    for transport in LOSSY:
        marker = str(tmp_path / f"{transport}.marker")
        monkeypatch.setenv(_KILL_MARKER_VAR, marker)
        report = run(
            transport,
            points,
            tmp_path,
            workers=1,
            use_cache=False,
            checkpoint_every=150,
            checkpoint_dir=str(tmp_path / f"{transport}-shards"),
        )
        assert report.retries == 1, transport
        assert os.path.exists(marker + ".resumed"), (
            f"{transport}: retry did not find the shard checkpoint"
        )
        # The resumed result is bit-identical to an uninterrupted run.
        assert report.results[0] == run_point(**points[0].kwargs), transport
