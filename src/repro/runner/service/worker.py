"""The sweep-service worker agent (the ``repro work`` verb).

One worker process serves one coordinator: register (with the
``code_version`` handshake — a mismatched tree is refused before it
can touch the shared cache), then loop leasing shards and executing
them through :func:`repro.runner.scheduler.execute` — the same call
local pool workers make, so timing and :class:`WithMetrics`
unwrapping behave identically.  A daemon thread heartbeats at the
cadence the coordinator advertised; the main thread never has to come
up for air mid-shard.  A SIGKILL takes both threads out at once,
which is exactly the silence the coordinator's heartbeat reaper is
budgeted for.

A worker emits no progress events: running, retried, checkpointed,
done and failed are all written coordinator-side, where they survive
this process's death.
"""

from __future__ import annotations

import os
import socket
import threading
import time
import traceback
from typing import Optional

from repro.runner.cache import code_version
from repro.runner.scheduler import execute
from repro.runner.service.wire import (
    ServiceError,
    decode_payload,
    encode_payload,
    request_json,
)

__all__ = ["run_worker"]


def _register(coordinator_url: str) -> dict:
    return request_json(
        coordinator_url,
        "POST",
        "/workers",
        {
            "pid": os.getpid(),
            "host": socket.gethostname(),
            "code_version": code_version(),
        },
    )


def run_worker(
    coordinator_url: str,
    poll_interval: float = 0.2,
    heartbeat_every: Optional[float] = None,
    max_idle: Optional[float] = None,
    verbose: bool = False,
) -> int:
    """Serve ``coordinator_url`` until idle past ``max_idle`` (or forever).

    Args:
        coordinator_url: ``http://host:port`` printed by ``repro serve``.
        poll_interval: seconds between lease polls when no work exists.
        heartbeat_every: heartbeat cadence; defaults to whatever the
            coordinator advertises at registration.
        max_idle: exit (returning normally) after this many consecutive
            seconds without work; ``None`` serves forever.
        verbose: print a line per shard to stderr-adjacent stdout.

    Returns:
        The number of shards this worker executed.

    Raises:
        ServiceError: registration refused (e.g. ``code_version``
            mismatch) or the coordinator became unreachable.
    """
    registration = _register(coordinator_url)
    worker_id = registration["worker"]
    cadence = (
        heartbeat_every
        if heartbeat_every is not None
        else float(registration.get("heartbeat_every", 0.5))
    )

    stop = threading.Event()

    def _beat() -> None:
        while not stop.wait(cadence):
            try:
                request_json(
                    coordinator_url,
                    "POST",
                    f"/workers/{worker_id}/heartbeat",
                    {},
                    timeout=5.0,
                )
            except ServiceError:
                # Reaped or unreachable: the lease loop deals with it.
                pass

    heartbeat = threading.Thread(
        target=_beat, name="repro-worker-heartbeat", daemon=True
    )
    heartbeat.start()

    executed = 0
    idle_since = time.monotonic()
    try:
        while True:
            try:
                lease = request_json(
                    coordinator_url,
                    "POST",
                    f"/workers/{worker_id}/lease",
                    {},
                )
            except ServiceError as exc:
                if exc.status == 410:
                    # The coordinator reaped us (a stall verdict, or our
                    # heartbeats got delayed).  Re-register under a new
                    # identity; any in-flight lease was already requeued.
                    registration = _register(coordinator_url)
                    worker_id = registration["worker"]
                    continue
                raise
            task = lease.get("task")
            if task is None:
                if (
                    max_idle is not None
                    and time.monotonic() - idle_since > max_idle
                ):
                    return executed
                time.sleep(poll_interval)
                continue

            index = task["index"]
            sweep_id = task["sweep"]
            fn, kwargs = decode_payload(task["payload"])
            if verbose:
                print(
                    f"[repro-worker {worker_id}] running {sweep_id}"
                    f"[{index}] {task.get('point')}",
                    flush=True,
                )
            try:
                value, elapsed = execute(fn, kwargs)
            except Exception:
                result_body = {
                    "sweep": sweep_id,
                    "index": index,
                    "ok": False,
                    "error": traceback.format_exc(limit=20),
                }
            else:
                result_body = {
                    "sweep": sweep_id,
                    "index": index,
                    "ok": True,
                    "value": encode_payload(value),
                    "elapsed": elapsed,
                }
            try:
                request_json(
                    coordinator_url,
                    "POST",
                    f"/workers/{worker_id}/result",
                    result_body,
                )
            except ServiceError as exc:
                if exc.status != 410:
                    raise
                # Reaped mid-shard; the attempt was wasted but the shard
                # is safe (requeued).  Rejoin the pool.
                registration = _register(coordinator_url)
                worker_id = registration["worker"]
            executed += 1
            idle_since = time.monotonic()
    finally:
        stop.set()
