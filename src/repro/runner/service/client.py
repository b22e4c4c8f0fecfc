"""Client verbs for the sweep service: submit, wait, fetch, run.

:func:`run_sweep_service` is the drop-in sibling of
:func:`~repro.runner.sweep.run_sweep`: same points in, same
:class:`~repro.runner.sweep.SweepReport` out, same
:class:`~repro.runner.sweep.SweepError` on failure, because the
coordinator runs the same :class:`~repro.runner.scheduler.Scheduler`
— only the ``workers=`` knob is replaced by a coordinator URL, because
the fleet serving the sweep is whatever ``repro work`` processes are
registered over there.

Progress: the coordinator keeps the merged, coordinator-stamped JSONL
stream for each sweep.  With ``progress_out=`` the client downloads
that stream **verbatim** after the sweep ends (on failure too) —
re-stamping client-side would destroy the total order the coordinator
established, so ``progress_out`` here accepts a path or file-like
only, not a live :class:`~repro.obs.progress.ProgressStream`.
"""

from __future__ import annotations

import time
from typing import Any, List, Optional, Sequence

from repro.runner.cache import code_version
from repro.runner.service.wire import (
    ServiceError,
    decode_payload,
    encode_payload,
    request_json,
)
from repro.runner.sweep import (
    PointOutcome,
    SweepError,
    SweepPoint,
    SweepReport,
    _unwrap,
)

__all__ = [
    "fetch_progress",
    "fetch_report",
    "run_sweep_service",
    "submit_sweep",
    "sweep_status",
]


def submit_sweep(
    service: str,
    points: Sequence[SweepPoint],
    label: str = "sweep",
    use_cache: bool = True,
    checkpoint_every: int = 0,
    max_retries: int = 2,
    stall_timeout: Optional[float] = None,
) -> str:
    """Submit a grid; returns the coordinator's sweep id.

    Refuses to submit when the client's ``code_version`` differs from
    the coordinator's: the pickled point functions would not match the
    code the fleet runs, and cache keys would lie.
    """
    health = request_json(service, "GET", "/healthz")
    remote_version = health.get("code_version")
    local_version = code_version()
    if remote_version != local_version:
        raise ServiceError(
            f"code_version mismatch: client {local_version!r} vs "
            f"coordinator {remote_version!r}; deploy the same tree on "
            f"both sides before submitting"
        )
    response = request_json(
        service,
        "POST",
        "/sweeps",
        {
            "points": encode_payload(list(points)),
            "label": label,
            "use_cache": use_cache,
            "checkpoint_every": checkpoint_every,
            "max_retries": max_retries,
            "stall_timeout": stall_timeout,
        },
    )
    return response["sweep"]


def sweep_status(service: str, sweep_id: str) -> dict:
    """The coordinator's live view of one sweep."""
    return request_json(service, "GET", f"/sweeps/{sweep_id}")


def fetch_progress(service: str, sweep_id: str) -> str:
    """The merged progress JSONL, verbatim (usable mid-run to tail)."""
    return request_json(service, "GET", f"/sweeps/{sweep_id}/progress")


def fetch_report(
    service: str, sweep_id: str, points: Sequence[SweepPoint]
) -> SweepReport:
    """Materialize a completed sweep's :class:`SweepReport`.

    ``points`` must be the submitted grid (order matters): outcomes
    come back per index and are re-attached to the caller's own
    :class:`SweepPoint` objects, so ``report.by_key`` uses the exact
    labels the caller built.
    """
    data = request_json(service, "GET", f"/sweeps/{sweep_id}/report")
    outcomes: List[PointOutcome] = []
    for point, entry in zip(points, data["outcomes"]):
        value = decode_payload(entry["value"])
        result, metrics = _unwrap(value)
        outcomes.append(
            PointOutcome(
                point,
                result,
                cached=bool(entry["cached"]),
                elapsed=float(entry["elapsed"]),
                metrics=metrics,
            )
        )
    return SweepReport(
        label=data["label"],
        outcomes=outcomes,
        workers=int(data["workers"]),
        elapsed=float(data["elapsed"]),
        cache_dir=data["cache_dir"],
        retries=int(data["retries"]),
    )


def _write_progress(progress_out: Any, text: str) -> None:
    if hasattr(progress_out, "emit"):
        raise TypeError(
            "run_sweep_service progress_out takes a path or file-like; a "
            "ProgressStream would re-stamp seq/t and break the "
            "coordinator-side total order"
        )
    if hasattr(progress_out, "write"):
        progress_out.write(text)
        if hasattr(progress_out, "flush"):
            progress_out.flush()
        return
    with open(progress_out, "w", encoding="utf-8") as handle:
        handle.write(text)


def run_sweep_service(
    points: Sequence[SweepPoint],
    service: str,
    label: str = "sweep",
    use_cache: bool = True,
    checkpoint_every: int = 0,
    max_retries: int = 2,
    stall_timeout: Optional[float] = None,
    progress_out: Optional[Any] = None,
    poll_interval: float = 0.2,
    timeout: Optional[float] = None,
    verbose: bool = False,
) -> SweepReport:
    """Run a sweep on a coordinator's fleet; see the module docstring.

    Args:
        points: the sweep cells; order is preserved in the report.
        service: coordinator URL (``http://host:port``).
        label / use_cache: as in ``run_sweep`` (the cache lives
            coordinator-side).
        checkpoint_every / max_retries / stall_timeout: per-sweep
            budgets with :func:`~repro.runner.sweep.run_sweep`'s exact
            semantics, enforced by the coordinator's scheduler.
        progress_out: path or file-like that receives the
            coordinator's merged progress JSONL verbatim once the sweep
            ends (written before ``SweepError`` is raised on failure,
            so post-mortems always have the trail).
        poll_interval: seconds between status polls.
        timeout: give up (``ServiceError``) after this many seconds;
            ``None`` waits forever.

    Raises:
        SweepError: a point failed or a shard exhausted its retries.
        ServiceError: transport/protocol problems, version mismatch,
            or timeout.
    """
    sweep_id = submit_sweep(
        service,
        points,
        label=label,
        use_cache=use_cache,
        checkpoint_every=checkpoint_every,
        max_retries=max_retries,
        stall_timeout=stall_timeout,
    )
    deadline = None if timeout is None else time.monotonic() + timeout
    while True:
        status = sweep_status(service, sweep_id)
        if status["status"] != "running":
            break
        if deadline is not None and time.monotonic() > deadline:
            raise ServiceError(
                f"sweep {sweep_id} still running after {timeout}s "
                f"({status['remaining']}/{status['total']} points left)"
            )
        if verbose:
            print(
                f"[sweep {label}] {status['total'] - status['remaining']}"
                f"/{status['total']} done, {status['retries']} retries",
                flush=True,
            )
        time.sleep(poll_interval)
    if progress_out is not None:
        _write_progress(progress_out, fetch_progress(service, sweep_id))
    if status["status"] != "ok":
        raise SweepError(status.get("error") or f"sweep {sweep_id} failed")
    return fetch_report(service, sweep_id, points)
