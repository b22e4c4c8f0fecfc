"""Loopback sweep-service integration: coordinator + real worker fleet.

The acceptance scenario from the distributed-sweep issue: a subprocess
coordinator (``repro serve``), two subprocess workers (``repro
work``), one of which SIGKILLs itself mid-shard.  The sweep must
complete anyway — the dead worker reaped on the heartbeat budget, its
shard resumed from a :mod:`repro.checkpoint` snapshot on the surviving
worker — with results bit-identical to a purely local
worker-pool ``run_sweep`` of the same grid, a merged coordinator-stamped
progress stream that passes ``read_progress(strict=True)`` and
:func:`~repro.obs.verify_point_trails`, and cache entries a later
*local* sweep hits verbatim.

Worker functions live at module scope so they pickle by reference
across the wire; worker subprocesses import this module by its package
name (``tests.integration.test_service``), so their ``PYTHONPATH``
carries both ``src`` and the repo root.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.api import Experiment, run_point
from repro.obs import read_progress, verify_point_trails
from repro.runner import SweepError, SweepPoint, run_sweep
from repro.runner.service import run_sweep_service

_REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)

#: Env var naming the kill-marker file (inherited by worker
#: subprocesses; the point fn is pickled by reference and cannot close
#: over a tmp_path).
_KILL_MARKER_VAR = "REPRO_SERVICE_KILL_MARKER"


def _service_killer(checkpoint_every=0, checkpoint_path=None, **kwargs):
    """First attempt at the q=0.05 shard: simulate fully (writing shard
    checkpoints), then SIGKILL the whole worker agent before reporting —
    the remote analogue of a pool worker dying mid-shard.  Keyed to one
    specific shard so exactly one worker dies (both workers start their
    first shards concurrently, before any marker exists); the retry, on
    the surviving worker, must find the checkpoint and resume."""
    marker = os.environ.get(_KILL_MARKER_VAR)
    lethal = kwargs.get("q") == 0.05
    if marker and checkpoint_path and os.path.exists(checkpoint_path):
        open(marker + ".resumed", "w").close()
    if marker and lethal and checkpoint_path and not os.path.exists(marker):
        Experiment(**kwargs).run(
            checkpoint_every=checkpoint_every,
            checkpoint_path=checkpoint_path,
        )
        open(marker, "w").close()
        os.kill(os.getpid(), signal.SIGKILL)
    return run_point(
        checkpoint_every=checkpoint_every,
        checkpoint_path=checkpoint_path,
        **kwargs,
    )


def _boom_point(**kwargs):
    raise ValueError("service point exploded")


def _slow_point(**kwargs):
    time.sleep(2.0)
    return run_point(**kwargs)


def _subprocess_env(extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(_REPO_ROOT, "src"), _REPO_ROOT]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env.update(extra or {})
    return env


def _start_coordinator(tmp_path, extra_args=()):
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--port",
            "0",
            "--cache-dir",
            str(tmp_path / "svc-cache"),
            "--checkpoint-dir",
            str(tmp_path / "svc-ckpt"),
            "--progress-dir",
            str(tmp_path / "svc-progress"),
            "--heartbeat-timeout",
            "1.5",
            "--heartbeat-every",
            "0.25",
            *extra_args,
        ],
        env=_subprocess_env(),
        cwd=_REPO_ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    deadline = time.monotonic() + 30
    url = None
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            break
        if "listening on" in line:
            url = line.strip().split()[-1]
            break
    if url is None:
        proc.kill()
        pytest.fail("coordinator did not announce its URL within 30s")
    return proc, url


def _start_worker(url, env_extra=None):
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "work",
            "--coordinator",
            url,
            "--poll",
            "0.1",
            "--max-idle",
            "60",
        ],
        env=_subprocess_env(env_extra),
        cwd=_REPO_ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )


def _stop_all(*procs):
    for proc in procs:
        if proc.poll() is None:
            proc.terminate()
    for proc in procs:
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=10)


@pytest.fixture
def fleet(tmp_path, monkeypatch):
    """A coordinator plus two workers on loopback, torn down after."""
    marker = str(tmp_path / "killed.marker")
    monkeypatch.setenv(_KILL_MARKER_VAR, marker)
    coordinator, url = _start_coordinator(tmp_path)
    workers = [
        _start_worker(url, {_KILL_MARKER_VAR: marker}) for _ in range(2)
    ]
    try:
        yield url, marker
    finally:
        _stop_all(coordinator, *workers)


def test_service_survives_sigkilled_worker_bit_identical(tmp_path, fleet):
    url, marker = fleet
    experiment = Experiment(
        protocol="twobit", n_processors=2, refs_per_proc=150, warmup_refs=40
    )
    axes = {"q": [0.02, 0.05]}
    points = [
        SweepPoint(_service_killer, p.kwargs, key=p.key)
        for p in experiment.sweep_points(axes)
    ]
    progress_path = tmp_path / "client.jsonl"

    report = run_sweep_service(
        points,
        url,
        label="svc-acceptance",
        checkpoint_every=60,
        max_retries=2,
        progress_out=str(progress_path),
        timeout=120,
    )

    # One worker died mid-shard (after writing checkpoints); the retry
    # resumed from its snapshot rather than recomputing.
    assert os.path.exists(marker), "no worker was SIGKILLed"
    assert os.path.exists(marker + ".resumed"), (
        "retry did not resume from the shard checkpoint"
    )
    assert report.retries >= 1
    assert report.cache_hits == 0

    # Bit-identical to a purely local pool run of the same grid
    # (fresh cache; the marker file keeps the killer fn benign now).
    local = run_sweep(
        points,
        workers=2,
        cache_dir=str(tmp_path / "local-cache"),
        label="svc-acceptance",
    )
    assert report.results == local.results
    assert report.by_key == local.by_key

    # The distributed run warmed the coordinator's cache with exactly
    # the keys a local sweep computes: pure hits, same values.
    warmed = run_sweep(
        points, cache_dir=str(tmp_path / "svc-cache"), label="svc-acceptance"
    )
    assert warmed.cache_hits == len(points)
    assert warmed.results == report.results

    # The merged stream is strict-parseable, totally ordered, and
    # closes every trail exactly once.
    records = read_progress(progress_path, strict=True)
    assert verify_point_trails(records) == {0: "done", 1: "done"}
    seqs = [r["seq"] for r in records]
    assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
    times = [r["t"] for r in records]
    assert all(a <= b for a, b in zip(times, times[1:]))

    events = [r["event"] for r in records]
    assert events[0] == "sweep-begin"
    assert events.count("worker-spawned") >= 2
    assert "worker-died" in events
    retried = [r for r in records if r["event"] == "point-retried"]
    assert retried and retried[0]["resume"] is True
    # The surviving worker relayed its checkpoint-resume event; the
    # coordinator re-stamped it into the merged stream.
    assert "point-checkpointed" in events
    end = records[-1]
    assert end["event"] == "sweep-end" and end["status"] == "ok"
    assert end["retries"] == report.retries


def test_service_failure_aborts_with_closed_trails(tmp_path, fleet):
    url, _ = fleet
    experiment = Experiment(
        protocol="twobit", n_processors=2, refs_per_proc=80, warmup_refs=20
    )
    grid = experiment.sweep_points({"q": [0.02, 0.05]})
    points = [
        SweepPoint(_boom_point, grid[0].kwargs, key="boom"),
        SweepPoint(_slow_point, grid[1].kwargs, key="slow"),
    ]
    progress_path = tmp_path / "failed.jsonl"
    with pytest.raises(SweepError, match="exploded"):
        run_sweep_service(
            points,
            url,
            label="svc-fail",
            use_cache=False,
            progress_out=str(progress_path),
            timeout=120,
        )
    # The progress trail was still delivered, and every dispatched
    # point was closed before the failed sweep-end.
    records = read_progress(progress_path, strict=True)
    trails = verify_point_trails(records)
    assert trails[0] == "failed"
    assert records[-1]["status"] == "failed"
    failed = [r for r in records if r["event"] == "point-failed"]
    assert any("exploded" in r.get("error", "") for r in failed)


def test_service_rejects_unparseable_and_unknown(tmp_path):
    # Protocol hygiene without worker agents: unknown routes 404, an
    # unknown sweep 404s, healthz reports the tree's fingerprint, and a
    # result post naming a shard outside the sweep is a structured 400
    # that leaves the sweep untouched.
    from repro.runner.cache import code_version
    from repro.runner.service import submit_sweep, sweep_status
    from repro.runner.service.wire import (
        ServiceError,
        encode_payload,
        request_json,
    )

    coordinator, url = _start_coordinator(tmp_path)
    try:
        health = request_json(url, "GET", "/healthz")
        assert health["ok"] is True
        assert health["code_version"] == code_version()
        with pytest.raises(ServiceError) as excinfo:
            request_json(url, "GET", "/sweeps/nope")
        assert excinfo.value.status == 404
        with pytest.raises(ServiceError) as excinfo:
            request_json(url, "POST", "/sweeps", {"points": "not-base64!"})
        assert excinfo.value.status == 400

        # A hand-driven worker leases shard 0 of a 3-point sweep...
        experiment = Experiment(
            protocol="twobit", n_processors=2, refs_per_proc=40, warmup_refs=10
        )
        points = experiment.sweep_points({"q": [0.02, 0.05, 0.1]})
        sweep = submit_sweep(url, points, label="hygiene", use_cache=False)
        worker = request_json(
            url, "POST", "/workers", {"pid": 1, "code_version": code_version()}
        )["worker"]
        task = request_json(url, "POST", f"/workers/{worker}/lease", {})["task"]
        assert task["index"] == 0

        # ...then posts results for shards that do not exist.
        for index in (-1, 3, 7, "0", 0.0, None, True):
            with pytest.raises(ServiceError) as excinfo:
                request_json(
                    url,
                    "POST",
                    f"/workers/{worker}/result",
                    {
                        "sweep": sweep,
                        "index": index,
                        "ok": True,
                        "value": encode_payload(999),
                    },
                )
            assert excinfo.value.status == 400, index
            assert "shard index" in str(excinfo.value)
        # A real shard this worker never leased is dropped as stale.
        reply = request_json(
            url,
            "POST",
            f"/workers/{worker}/result",
            {"sweep": sweep, "index": 2, "ok": True,
             "value": encode_payload(999)},
        )
        assert reply["stale"] is True
        status = sweep_status(url, sweep)
        assert status["status"] == "running"
        assert status["remaining"] == 3

        # The held lease still completes normally.
        request_json(
            url,
            "POST",
            f"/workers/{worker}/result",
            {
                "sweep": sweep,
                "index": 0,
                "ok": True,
                "value": encode_payload(run_point(**points[0].kwargs)),
            },
        )
        assert sweep_status(url, sweep)["remaining"] == 2
    finally:
        _stop_all(coordinator)


def test_progress_endpoint_is_client_tailable(tmp_path, fleet):
    # fetch_progress mid-run returns a parseable prefix of the merged
    # stream (read_progress tolerates the in-flight tail).
    from repro.runner.service import fetch_progress, submit_sweep, sweep_status

    url, _ = fleet
    experiment = Experiment(
        protocol="twobit", n_processors=2, refs_per_proc=60, warmup_refs=20
    )
    points = [
        SweepPoint(_slow_point, p.kwargs, key=p.key)
        for p in experiment.sweep_points({"q": [0.02]})
    ]
    sweep_id = submit_sweep(url, points, label="tail", use_cache=False)
    deadline = time.monotonic() + 60
    text = ""
    while time.monotonic() < deadline:
        text = fetch_progress(url, sweep_id)
        if '"point-running"' in text:
            break
        time.sleep(0.1)
    assert '"sweep-begin"' in text
    lines = [json.loads(line) for line in text.splitlines() if line.strip()]
    assert lines[0]["event"] == "sweep-begin"
    # Drain the sweep so fixture teardown isn't racing a lease.
    while time.monotonic() < deadline:
        if sweep_status(url, sweep_id)["status"] != "running":
            break
        time.sleep(0.1)
