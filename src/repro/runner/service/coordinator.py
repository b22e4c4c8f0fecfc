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

HTTP/1.1 is served by the standard library's
:class:`http.server.ThreadingHTTPServer` (:class:`ServiceServer`): one
thread per connection, one request per connection, ``Connection:
close``.  Route handlers and the reaper run under the server's one
lock, so they see and change coordinator state one at a time.  Only
this process serves; workers and clients speak through
:mod:`repro.runner.service.wire`.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.runner.cache import ResultCache, default_cache_dir
from repro.runner.scheduler import Scheduler
from repro.runner.service.wire import decode_payload, encode_payload
from repro.runner.sweep import SweepPoint, WithMetrics
from repro.schema import SCHEMA_VERSION

__all__ = ["Coordinator", "ServiceConfig", "serve"]

#: Reaper wake-up cadence (seconds).
_REAP_INTERVAL = 0.05

#: Seconds a silent connection may sit before the server drops it.
_REQUEST_TIMEOUT = 60.0

#: Largest single read of a request body.
_CHUNK = 1 << 16

#: A handler returns (status, body); dict bodies are sent as JSON,
#: ``("text/plain", str)`` tuples as raw text.
Handler = Callable[
    [str, str, Optional[Dict[str, Any]]],
    Tuple[int, Union[Dict[str, Any], Tuple[str, str]]],
]


class _BadRequest(ValueError):
    """The request itself is malformed: answered 400, not 500."""


def _parse_body(raw_body: bytes) -> Optional[Dict[str, Any]]:
    """The JSON object a request carries; ``None`` for an empty body."""
    if not raw_body:
        return None
    try:
        payload = json.loads(raw_body)
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise _BadRequest(f"body is not JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise _BadRequest("body is not a JSON object")
    return payload


def _read_exactly(rfile: Any, length: int) -> bytes:
    """``length`` body bytes, read in bounded chunks.

    ``BufferedReader.read(n)`` allocates ``n`` bytes up front, so a
    forged ``Content-Length`` would cost memory the peer never sent.
    """
    chunks = []
    while length > 0:
        chunk = rfile.read1(min(length, _CHUNK))
        if not chunk:
            raise _BadRequest("body shorter than Content-Length")
        chunks.append(chunk)
        length -= len(chunk)
    return b"".join(chunks)


class _RequestHandler(BaseHTTPRequestHandler):
    """One request per connection: parse, run the handler, reply."""

    server: "ServiceServer"
    protocol_version = "HTTP/1.1"
    timeout = _REQUEST_TIMEOUT
    # The head and the body go out as two writes; with Nagle on, the
    # second waits for the peer's delayed ACK.
    disable_nagle_algorithm = True

    def do_GET(self) -> None:
        # A peer that hangs up or goes silent mid-body raises OSError
        # here, which ServiceServer.handle_error drops without a reply.
        try:
            payload = _parse_body(self._read_body())
        except _BadRequest as exc:
            self._reply(400, {"error": f"bad request: {exc}"})
            return
        try:
            # Taken only once the body is in: a stalled client holds
            # its own thread, never the coordinator.
            with self.server.lock:
                status, body = self.server.handler(
                    self.command, self.path, payload
                )
        except Exception as exc:  # a bug in the handler
            status, body = 500, {"error": f"{type(exc).__name__}: {exc}"}
        self._reply(status, body)

    do_POST = do_GET

    def _read_body(self) -> bytes:
        lengths = {
            value.strip()
            for value in self.headers.get_all("Content-Length", ["0"])
        }
        if len(lengths) > 1:
            # RFC 9112 §6.3: an unrecoverable framing error.
            raise _BadRequest(f"conflicting Content-Length: {sorted(lengths)}")
        (length,) = lengths
        if not (length.isascii() and length.isdigit()):
            raise _BadRequest(f"bad Content-Length: {length!r}")
        return _read_exactly(self.rfile, int(length))

    def send_error(
        self, code: int, message: Optional[str] = None, explain: Any = None
    ) -> None:
        """The stdlib's own refusals (bad request line, over-long line or
        headers, unsupported method), in the service's JSON shape."""
        detail = message or HTTPStatus(code).phrase
        self._reply(code, {"error": f"bad request: {detail}"})

    def _reply(self, status: int, body: Any) -> None:
        if isinstance(body, tuple):
            content_type, text = body
            encoded = text.encode("utf-8")
        else:
            content_type = "application/json"
            encoded = json.dumps(body).encode("utf-8")
        # A one-word request line leaves the stdlib on HTTP/0.9, which
        # writes no status line or headers.
        self.request_version = self.protocol_version
        self.send_response_only(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(encoded)))
        self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(encoded)

    def log_message(self, format: str, *args: Any) -> None:
        pass


class ServiceServer(ThreadingHTTPServer):
    """One thread per connection; ``handler`` and ``tick`` share :attr:`lock`.

    ``serve_forever`` runs ``tick`` every ``poll_interval`` and after
    each accepted connection.
    """

    # A fleet's heartbeats and lease polls can arrive together, and a
    # connection beyond the accept backlog waits out a 1 s SYN resend.
    request_queue_size = 100

    def __init__(
        self,
        address: Tuple[str, int],
        handler: Handler,
        tick: Callable[[], None],
    ) -> None:
        self.handler = handler
        self.tick = tick
        self.lock = threading.Lock()
        super().__init__(address, _RequestHandler)

    def service_actions(self) -> None:
        with self.lock:
            self.tick()

    def handle_error(self, request: Any, client_address: Any) -> None:
        if isinstance(sys.exc_info()[1], OSError):
            return  # peer hung up or timed out mid-exchange
        super().handle_error(request, client_address)


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
