"""The sweep-service coordinator: HTTP routing, workers, leases.

One coordinator process serves every submitted sweep.  Each sweep is a
:class:`~repro.runner.scheduler.Scheduler` — the same state machine
local sweeps run on — so backlog order, retry and stall budgets,
checkpoint resume, trail closing and ``sweep-end`` behave exactly as
they do in :func:`~repro.runner.sweep.run_sweep`.  The coordinator is
only a transport: it routes HTTP requests, keeps the worker registry
and the lease↔worker map, and turns worker silence into
:meth:`Scheduler.lost <repro.runner.scheduler.Scheduler.lost>` calls:

* a worker whose heartbeat goes quiet for ``heartbeat_timeout``
  seconds is presumed dead — the socket-world analogue of a SIGKILLed
  pool worker;
* a worker whose lease the scheduler reports as stalled is
  deregistered.  If the "hung" worker later delivers anyway, its post
  gets ``410`` and the result is dropped;
* checkpoint resume needs coordinator and workers to share the
  checkpoint directory (loopback or a shared filesystem — see
  ``docs/service.md``).

Every progress event is written by the coordinator's own stream per
sweep, so ``seq`` and ``t`` are coordinator-stamped and the file is
totally ordered: :func:`repro.obs.read_progress`,
:func:`repro.obs.rollup_results`, and ``repro report`` consume it with
no changes.

Route handlers and the reaper run under the server's one lock
(:class:`~repro.runner.service.wire.ServiceServer`), so they see and
change coordinator state one at a time.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.runner.cache import ResultCache, default_cache_dir
from repro.runner.scheduler import Scheduler
from repro.runner.service.wire import (
    ServiceServer,
    decode_payload,
    encode_payload,
)
from repro.runner.sweep import SweepPoint, WithMetrics
from repro.schema import SCHEMA_VERSION

__all__ = ["Coordinator", "ServiceConfig", "serve"]

#: Reaper wake-up cadence (seconds).
_REAP_INTERVAL = 0.05


@dataclass
class ServiceConfig:
    """Knobs for one coordinator process.

    The per-*sweep* budgets (``max_retries``, ``stall_timeout``,
    ``checkpoint_every``) arrive with each submission and keep
    :func:`~repro.runner.sweep.run_sweep`'s semantics; this config
    holds only fleet-level policy.
    """

    host: str = "127.0.0.1"
    port: int = 0  # 0 = pick a free port; see Coordinator.url
    cache_dir: Optional[str] = None  # None = repro's default cache dir
    #: ``None`` for either dir = a fresh temp dir that ``stop()`` removes;
    #: a given dir is never removed.
    checkpoint_dir: Optional[str] = None
    progress_dir: Optional[str] = None
    #: Seconds without a heartbeat before a worker is presumed dead.
    heartbeat_timeout: float = 5.0
    #: Heartbeat cadence advertised to registering workers.
    heartbeat_every: float = 0.5


class _Worker:
    """Coordinator-side record of one registered worker agent."""

    def __init__(self, worker_id: str, pid: int, host: str) -> None:
        self.id = worker_id
        self.pid = pid
        self.host = host
        self.last_seen = time.monotonic()
        #: (sweep_id, index) of the held lease, or None when idle.
        self.task: Optional[Tuple[str, int]] = None


class Coordinator:
    """The sweep-service coordinator; see the module docstring.

    Two ways to run one:

    * :func:`serve` (the ``repro serve`` CLI) — blocks the process
      until interrupted;
    * :meth:`start` / :meth:`stop` — serves from a background thread
      and exposes :attr:`url`, for tests and embedding.
    """

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        cache_dir = (
            self.config.cache_dir
            if self.config.cache_dir is not None
            else default_cache_dir()
        )
        self.cache = ResultCache(cache_dir)
        #: The temp dirs this coordinator made; :meth:`stop` removes them.
        self._made: List[str] = []
        self.checkpoint_dir = self._dir(self.config.checkpoint_dir, "ckpt")
        self.progress_dir = self._dir(self.config.progress_dir, "progress")
        self.url: Optional[str] = None
        self.sweeps: Dict[str, Scheduler] = {}
        self.workers: Dict[str, _Worker] = {}
        self._next_sweep = 0
        self._next_worker = 0
        self._server: Optional[ServiceServer] = None
        self._thread: Optional[threading.Thread] = None

    def _dir(self, given: Optional[str], kind: str) -> str:
        if given is None:
            self._made.append(tempfile.mkdtemp(prefix=f"repro-service-{kind}-"))
            return self._made[-1]
        os.makedirs(given, exist_ok=True)
        return given

    # ------------------------------------------------------------------
    # lifecycle

    def start(self) -> str:
        """Bind, then serve from a daemon thread; returns the bound URL.

        A bind failure raises here, in the caller's thread.
        """
        self._server = ServiceServer(
            (self.config.host, self.config.port), self.handle, self._supervise
        )
        self.url = f"http://{self.config.host}:{self._server.server_address[1]}"
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": _REAP_INTERVAL},
            name="repro-coordinator",
            daemon=True,
        )
        self._thread.start()
        return self.url

    def stop(self) -> None:
        """Stop serving, close every running sweep's progress stream and
        remove the temp dirs this coordinator made."""
        if self._server is not None:
            self._server.shutdown()
            assert self._thread is not None
            self._thread.join(timeout=10.0)
            self._server.server_close()
            with self._server.lock:
                for sweep in self.sweeps.values():
                    if sweep.status == "running":
                        sweep.progress.close()
            self._server = None
            self._thread = None
        for path in self._made:
            shutil.rmtree(path, ignore_errors=True)
        self._made.clear()

    # ------------------------------------------------------------------
    # routing

    def handle(
        self, method: str, path: str, body: Optional[Dict[str, Any]]
    ) -> Tuple[int, Any]:
        """Route one request.  Runs under the server's lock."""
        parts = [p for p in path.split("/") if p]
        if path == "/healthz" and method == "GET":
            return self._healthz()
        if parts and parts[0] == "sweeps":
            if len(parts) == 1 and method == "POST":
                return self._submit(body or {})
            if len(parts) >= 2:
                sweep = self.sweeps.get(parts[1])
                if sweep is None:
                    return 404, {"error": f"unknown sweep {parts[1]!r}"}
                if len(parts) == 2 and method == "GET":
                    return self._status(parts[1], sweep)
                if len(parts) == 3 and method == "GET":
                    if parts[2] == "report":
                        return self._report(parts[1], sweep)
                    if parts[2] == "progress":
                        return self._progress_text(parts[1])
        if parts and parts[0] == "workers":
            if len(parts) == 1 and method == "POST":
                return self._register(body or {})
            if len(parts) == 3 and method == "POST":
                worker = self.workers.get(parts[1])
                if worker is None:
                    # 410: the worker was reaped (dead/stalled); it must
                    # re-register before doing anything else.
                    return 410, {"error": f"unknown worker {parts[1]!r}"}
                worker.last_seen = time.monotonic()
                if parts[2] == "heartbeat":
                    return 200, {"ok": True}
                if parts[2] == "lease":
                    return self._lease(worker)
                if parts[2] == "result":
                    return self._result(worker, body or {})
        return 404, {"error": f"no route for {method} {path}"}

    # ------------------------------------------------------------------
    # handlers

    def _healthz(self) -> Tuple[int, Dict[str, Any]]:
        return 200, {
            "ok": True,
            "code_version": self.cache.version,
            "schema_version": SCHEMA_VERSION,
            "workers": len(self.workers),
            "sweeps": len(self.sweeps),
        }

    def _progress_path(self, sweep_id: str) -> str:
        return os.path.join(self.progress_dir, f"{sweep_id}.jsonl")

    def _submit(self, body: Dict[str, Any]) -> Tuple[int, Dict[str, Any]]:
        try:
            points: List[SweepPoint] = decode_payload(body["points"])
            stall_timeout = body.get("stall_timeout")
            budgets = {
                "checkpoint_every": int(body.get("checkpoint_every", 0)),
                "max_retries": int(body.get("max_retries", 2)),
                "stall_timeout": (
                    float(stall_timeout) if stall_timeout is not None else None
                ),
            }
        except Exception as exc:
            return 400, {"error": f"bad sweep submission: {exc}"}
        self._next_sweep += 1
        sweep_id = f"s{self._next_sweep}"
        sweep = Scheduler(
            points,
            label=str(body.get("label", "sweep")),
            cache=self.cache if body.get("use_cache", True) else None,
            progress_out=self._progress_path(sweep_id),
            workers=len(self.workers),
            elastic=True,
            checkpoint_dir=os.path.join(self.checkpoint_dir, sweep_id),
            service=sweep_id,
            **budgets,
        )
        self.sweeps[sweep_id] = sweep
        for worker in self.workers.values():
            sweep.spawned(worker.pid)
        sweep.start()
        return 200, {"sweep": sweep_id, "queued": sweep.remaining}

    def _status(
        self, sweep_id: str, sweep: Scheduler
    ) -> Tuple[int, Dict[str, Any]]:
        return 200, {
            "sweep": sweep_id,
            "label": sweep.label,
            "status": sweep.status,
            "error": sweep.error,
            "total": len(sweep.points),
            "remaining": sweep.remaining,
            "retries": sweep.total_retries,
            "backlog": len(sweep.backlog),
        }

    def _report(
        self, sweep_id: str, sweep: Scheduler
    ) -> Tuple[int, Dict[str, Any]]:
        if sweep.status != "ok":
            return 409, {
                "error": (
                    f"sweep {sweep_id} is {sweep.status}; a report exists "
                    f"only once the sweep completed ok"
                )
            }
        report = sweep.report(max(1, len(sweep.workers_seen)))
        return 200, {
            "sweep": sweep_id,
            "label": report.label,
            "outcomes": [
                {
                    # Re-wrapped so the client unwraps exactly what a
                    # local run would have cached.
                    "value": encode_payload(
                        WithMetrics(o.result, o.metrics)
                        if o.metrics is not None
                        else o.result
                    ),
                    "cached": o.cached,
                    "elapsed": o.elapsed,
                }
                for o in report.outcomes
            ],
            "workers": report.workers,
            "elapsed": report.elapsed,
            "cache_dir": report.cache_dir,
            "retries": report.retries,
        }

    def _progress_text(self, sweep_id: str) -> Tuple[int, Tuple[str, str]]:
        with open(self._progress_path(sweep_id), "r", encoding="utf-8") as f:
            return 200, ("text/plain", f.read())

    def _register(self, body: Dict[str, Any]) -> Tuple[int, Dict[str, Any]]:
        worker_version = body.get("code_version")
        if worker_version != self.cache.version:
            # A mismatched tree must never execute shards: its results
            # would land in the shared cache under this coordinator's
            # fingerprint.
            return 409, {
                "error": (
                    f"code_version mismatch: worker {worker_version!r} "
                    f"vs coordinator {self.cache.version!r}"
                )
            }
        self._next_worker += 1
        worker = _Worker(
            worker_id=f"w{self._next_worker}",
            pid=int(body.get("pid", 0)),
            host=str(body.get("host", "?")),
        )
        self.workers[worker.id] = worker
        for sweep in self.sweeps.values():
            sweep.spawned(worker.pid)
        return 200, {
            "worker": worker.id,
            "heartbeat_every": self.config.heartbeat_every,
        }

    def _lease(self, worker: _Worker) -> Tuple[int, Dict[str, Any]]:
        if worker.task is not None:
            # A worker polling while it still holds a lease lost track of
            # it (e.g. its result post failed); return the shard to the
            # backlog so it is not stranded.
            sweep_id, index = worker.task
            worker.task = None
            self.sweeps[sweep_id].release(index)
        for sweep_id, sweep in self.sweeps.items():
            task = sweep.lease(worker.pid)
            if task is None:
                continue
            worker.task = (sweep_id, task.index)
            return 200, {
                "task": {
                    "sweep": sweep_id,
                    "index": task.index,
                    "point": task.point,
                    "payload": encode_payload((task.fn, task.kwargs)),
                }
            }
        return 200, {"task": None}

    def _result(
        self, worker: _Worker, body: Dict[str, Any]
    ) -> Tuple[int, Dict[str, Any]]:
        sweep_id = str(body.get("sweep"))
        sweep = self.sweeps.get(sweep_id)
        if sweep is None:
            return 404, {"error": f"unknown sweep {body.get('sweep')!r}"}
        try:
            index = sweep.check_index(body.get("index"))
        except ValueError as exc:
            return 400, {"error": str(exc)}
        if worker.task != (sweep_id, index):
            # Not this worker's lease (released, or the sweep ended):
            # the scheduler already moved on without it.
            return 200, {"ok": True, "stale": True}
        worker.task = None
        if not body.get("ok"):
            error = str(body.get("error", "unknown worker error"))
            sweep.fail(index, error, worker.pid)
            return 200, {"ok": True}
        try:
            value = decode_payload(body["value"])
            elapsed = float(body.get("elapsed", 0.0))
        except Exception as exc:
            sweep.fail(index, f"bad result payload: {exc}", worker.pid)
            return 400, {"error": f"bad result payload: {exc}"}
        stale = not sweep.complete(index, value, elapsed, worker.pid)
        return 200, {"ok": True, "stale": stale}

    # ------------------------------------------------------------------
    # supervision, under the server's lock

    def _supervise(self) -> None:
        """Reap silent and stalled workers.

        The server runs this every ``_REAP_INTERVAL`` seconds and after
        each accepted connection.
        """
        now = time.monotonic()
        for worker in list(self.workers.values()):
            if now - worker.last_seen > self.config.heartbeat_timeout:
                self._reap(worker)
        idle = sum(1 for w in self.workers.values() if w.task is None)
        for sweep_id, sweep in self.sweeps.items():
            for index in sweep.tick(len(self.workers), idle):
                for worker in list(self.workers.values()):
                    if worker.task == (sweep_id, index):
                        self._reap(worker)

    def _reap(self, worker: _Worker) -> None:
        """Deregister ``worker``; every running sweep sees it go.

        The sweep whose shard it held requeues or fails that shard on
        its retry budget.
        """
        self.workers.pop(worker.id, None)
        task, worker.task = worker.task, None
        for sweep_id, sweep in self.sweeps.items():
            held = task[1] if task is not None and task[0] == sweep_id else None
            sweep.lost(held, worker.pid)


def serve(config: Optional[ServiceConfig] = None) -> None:
    """Run a coordinator in the foreground (the ``repro serve`` verb).

    Prints ``repro-service listening on <url>`` once bound — with
    ``port=0`` this line is how spawners learn the chosen port — then
    blocks until interrupted.  Ctrl-C (SIGINT) runs :meth:`Coordinator.stop`,
    which removes the temp dirs it made; SIGTERM and SIGKILL do not.
    """
    coordinator = Coordinator(config)
    url = coordinator.start()
    print(f"repro-service listening on {url}", flush=True)
    print(
        f"repro-service cache={coordinator.cache.directory} "
        f"progress={coordinator.progress_dir}",
        flush=True,
    )
    try:
        assert coordinator._thread is not None
        coordinator._thread.join()
    except KeyboardInterrupt:
        pass
    finally:
        coordinator.stop()
