"""The sweep scheduler: one state machine behind every transport.

A :class:`Scheduler` owns every scheduling decision of one sweep, and
emits every progress event about it:

* the ``sweep-begin`` manifest and one ``point-queued`` per point;
* the cache pre-pass — hits go straight to ``point-done`` (plus their
  cached ``point-metrics``), misses join the backlog;
* checkpoint kwargs, injected into the executed kwargs of points whose
  function accepts them (the cache key never sees them);
* the backlog order — a retried shard goes to the *front*, because a
  half-done shard with a checkpoint to resume beats fresh work;
* the per-shard retry budget after worker death or stall, the stall
  check, and periodic ``worker-heartbeat`` rows;
* ``point-running`` / ``point-done`` / ``point-failed``: every
  dispatched point gets exactly one terminal event, on abort paths too
  (:func:`repro.obs.verify_point_trails`);
* ``sweep-end``, and the :class:`~repro.runner.sweep.SweepReport`.

Transports only move tasks and results; they call :meth:`lease`,
:meth:`complete`, :meth:`fail`, :meth:`lost`, :meth:`release` and
:meth:`tick` and never decide anything themselves.  There are three:

* inline (:func:`~repro.runner.sweep.run_sweep` with ``workers=None``):
  the caller's process runs each leased task itself;
* the supervised pipe pool (:mod:`repro.runner.pool`), for any integer
  ``workers``: kills, stalls and crashes are ordinary events;
* the sweep-service coordinator
  (:mod:`repro.runner.service.coordinator`): one scheduler per
  submitted sweep, leases handed out over HTTP.

Results never depend on the transport: each point carries its own
seed, and a retried shard either restarts or resumes bit-identically
from its checkpoint.

A scheduler is not thread-safe; each transport drives it from one
thread at a time (the pool's supervisor loop; the coordinator's
handlers and reaper, under the coordinator's one lock).
"""

from __future__ import annotations

import inspect
import math
import os
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.obs.progress import as_progress_stream
from repro.runner.cache import ResultCache
from repro.runner.sweep import (
    PointOutcome,
    SweepPoint,
    SweepReport,
    _label_str,
    _unwrap,
)

#: Seconds between ``worker-heartbeat`` progress events.  Module-level
#: so tests can shrink it.
_PROGRESS_HEARTBEAT_EVERY = 1.0


def _accepts_checkpoint(fn: Callable[..., Any]) -> bool:
    """Whether ``fn`` can take the injected checkpoint kwargs."""
    try:
        params = inspect.signature(fn).parameters
    except (TypeError, ValueError):  # pragma: no cover - builtins
        return False
    if any(
        p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()
    ):
        return True
    return "checkpoint_every" in params and "checkpoint_path" in params


def execute(
    fn: Callable[..., Any], kwargs: Dict[str, Any]
) -> Tuple[Any, float]:
    """Run one point; returns ``(value, elapsed seconds)``.

    Every transport's worker calls this, so a point's elapsed is its
    own run time wherever it ran, not how long the supervisor waited.
    """
    t0 = time.perf_counter()
    value = fn(**kwargs)
    return value, time.perf_counter() - t0


@dataclass(frozen=True)
class Task:
    """One leased shard: call ``fn(**kwargs)`` and report back."""

    index: int
    fn: Callable[..., Any]
    #: The point's kwargs plus any injected checkpoint kwargs.
    kwargs: Dict[str, Any]
    #: Label string for progress events and logs.
    point: str


class Scheduler:
    """The scheduling state of one sweep; see the module docstring.

    Construction emits the manifest; :meth:`start` runs the cache
    pre-pass (and may end an all-cached sweep at once).  The sweep then
    runs until :attr:`status` leaves ``"running"``: ``"ok"`` once every
    point completed, ``"failed"`` (with :attr:`error`) after a point
    raised, a shard exhausted its retries, or :meth:`abort`.

    Args:
        points: the sweep cells; order is preserved in the report.
        label: sweep name for events, cache metadata and errors.
        cache: the result cache, or ``None`` to neither read nor write.
        progress_out: path, file-like or ProgressStream for the JSONL
            lifecycle stream (``None`` = off).  A stream the scheduler
            opened is closed at ``sweep-end``.
        workers: pool size, for the manifest.
        elastic: the manifest's ``elastic`` field — ``True`` when a
            transport can lose workers (pool, service).
        checkpoint_every: per-shard checkpoint cadence (0 = retried
            shards restart from scratch).
        checkpoint_dir: where shard checkpoints live; needed with
            ``checkpoint_every``.  The scheduler removes each shard's
            checkpoint when the shard completes, never the directory.
        max_retries: retries per shard after worker death or stall.
        stall_timeout: seconds a lease may be held before its worker is
            presumed hung (``None`` = no stall check).
        verbose: print a line per point.
        service: the coordinator's sweep id, stamped on the manifest.
    """

    def __init__(
        self,
        points: Sequence[SweepPoint],
        label: str = "sweep",
        cache: Optional[ResultCache] = None,
        progress_out: Optional[Any] = None,
        workers: int = 1,
        elastic: bool = False,
        checkpoint_every: int = 0,
        checkpoint_dir: Optional[str] = None,
        max_retries: int = 2,
        stall_timeout: Optional[float] = None,
        verbose: bool = False,
        service: Optional[str] = None,
    ) -> None:
        if checkpoint_every and checkpoint_dir is None:
            raise ValueError("checkpoint_every needs a checkpoint_dir")
        self.points = list(points)
        self.label = label
        self.cache = cache
        self.progress = as_progress_stream(progress_out, label)
        self._owns_progress = self.progress is not progress_out
        self.checkpoint_every = checkpoint_every
        self.checkpoint_dir = checkpoint_dir
        self.max_retries = max_retries
        self.stall_timeout = stall_timeout
        self.verbose = verbose
        self.status = "running"  # -> "ok" | "failed"
        self.error: Optional[str] = None
        n = len(self.points)
        self.outcomes: List[Optional[PointOutcome]] = [None] * n
        self.retries = [0] * n
        self.total_retries = 0
        #: Indices awaiting a worker; leases pop from the front.
        self.backlog: List[int] = []
        #: index -> (worker, monotonic lease time) for live leases.
        self.running: Dict[int, Tuple[Any, float]] = {}
        #: Workers that ever held a lease (the service's report size).
        self.workers_seen: Set[Any] = set()
        self.remaining = 0
        self.started = time.perf_counter()
        self.elapsed = 0.0
        self._tasks: Dict[int, Task] = {}
        self._checkpoints: Dict[int, str] = {}
        #: Dispatched indices with no terminal event yet.
        self._open: Set[int] = set()
        #: Leased indices already reported as stalled.
        self._stalled: Set[int] = set()
        self._last_beat = time.monotonic()

        manifest: Dict[str, Any] = {
            "n_points": n,
            "workers": workers,
            "elastic": elastic,
            "cache_dir": str(cache.directory) if cache is not None else None,
            "code_version": cache.version if cache is not None else None,
            "points": [_label_str(p) for p in self.points],
        }
        if service is not None:
            manifest["service"] = service
        self._emit("sweep-begin", **manifest)
        for i, point in enumerate(self.points):
            self._emit("point-queued", index=i, point=_label_str(point))

    # ------------------------------------------------------------------
    # setup

    def start(self) -> None:
        """Serve cache hits and queue the misses."""
        for i, point in enumerate(self.points):
            if self.cache is not None:
                # Keyed on the original kwargs only: injected
                # checkpoint kwargs are execution detail, so every
                # transport shares cache entries.
                hit, value = self.cache.get(
                    self.cache.key_for(point.fn, point.kwargs)
                )
                if hit:
                    value, metrics = _unwrap(value)
                    self.outcomes[i] = PointOutcome(
                        point, value, cached=True, elapsed=0.0,
                        metrics=metrics,
                    )
                    self._emit_outcome(i)
                    self._say(f"{point.label}: cached")
                    continue
            kwargs = dict(point.kwargs)
            if self.checkpoint_every and _accepts_checkpoint(point.fn):
                os.makedirs(self.checkpoint_dir, exist_ok=True)
                path = os.path.join(self.checkpoint_dir, f"shard-{i}.ckpt")
                kwargs["checkpoint_every"] = self.checkpoint_every
                kwargs["checkpoint_path"] = path
                self._checkpoints[i] = path
            self._tasks[i] = Task(i, point.fn, kwargs, _label_str(point))
            self.backlog.append(i)
        self.remaining = len(self.backlog)
        if self.remaining == 0:
            self._end("ok")

    # ------------------------------------------------------------------
    # transport entry points

    def check_index(self, index: Any) -> int:
        """``index`` if it names a shard of this sweep; else ValueError."""
        if (
            isinstance(index, bool)
            or not isinstance(index, int)
            or not 0 <= index < len(self.points)
        ):
            raise ValueError(
                f"shard index {index!r} is not an integer in "
                f"[0, {len(self.points)})"
            )
        return index

    def lease(self, worker: Any = None) -> Optional[Task]:
        """Hand the front of the backlog to ``worker``; None if empty."""
        if self.status != "running" or not self.backlog:
            return None
        index = self.backlog.pop(0)
        self.running[index] = (worker, time.monotonic())
        self._open.add(index)
        self.workers_seen.add(worker)
        fields: Dict[str, Any] = {"retry": self.retries[index]}
        if worker is not None:
            fields["worker"] = worker
        self._emit(
            "point-running", index=index, point=self._name(index), **fields
        )
        return self._tasks[index]

    def complete(
        self, index: Any, value: Any, elapsed: float, worker: Any = None
    ) -> bool:
        """Record a point's value; False if the result is stale.

        The first result for a shard wins: a stalled attempt that
        delivers after its retry did (or after the sweep ended) is
        dropped — determinism makes the duplicates interchangeable.
        """
        index = self.check_index(index)
        if self.status != "running" or self.outcomes[index] is not None:
            return False
        self.running.pop(index, None)
        self._stalled.discard(index)
        point = self.points[index]
        if self.cache is not None:
            # The wrapped WithMetrics pair (when present) is what's
            # cached, so a later hit restores the telemetry too.
            self.cache.put(
                self.cache.key_for(point.fn, point.kwargs),
                value,
                meta={"label": self.label, "point": repr(point.label)},
            )
        result, metrics = _unwrap(value)
        self.outcomes[index] = PointOutcome(
            point, result, cached=False, elapsed=elapsed, metrics=metrics
        )
        self._emit_outcome(index, worker)
        self._open.discard(index)
        self._say(f"{point.label}: executed in {elapsed:.2f}s")
        path = self._checkpoints.get(index)
        if path is not None and os.path.exists(path):
            os.remove(path)
        self.remaining -= 1
        if self.remaining == 0:
            self._end("ok")
        return True

    def fail(self, index: Any, error: str, worker: Any = None) -> None:
        """The point function raised: fail the point, abort the sweep.

        A raising point is a bug in the point, not an infrastructure
        failure, so no retry is spent on it.
        """
        index = self.check_index(index)
        if self.status != "running" or self.outcomes[index] is not None:
            return
        self._point_failed(index, error, worker)
        self.abort(
            f"sweep {self.label!r} point {self.points[index].label!r} "
            f"failed: {error}"
        )

    def lost(self, index: Optional[int], worker: Any = None) -> None:
        """``worker`` is gone; ``index`` is the shard it held, if any.

        The shard is requeued at the front of the backlog on its retry
        budget, resuming from its checkpoint when one exists; past
        ``max_retries`` the point fails and the sweep aborts.
        """
        if self.status != "running":
            return
        died: Dict[str, Any] = {"worker": worker, "index": index}
        if index is not None:
            died["point"] = self._name(index)
        self._emit("worker-died", **died)
        if index is None or index not in self.running:
            return  # idle, or the shard's result already landed
        del self.running[index]
        cause = "stalled" if index in self._stalled else "died"
        self._stalled.discard(index)
        self.retries[index] += 1
        self.total_retries += 1
        retry = self.retries[index]
        if retry > self.max_retries:
            error = (
                f"worker {cause} on attempt {retry}; retries exhausted "
                f"(max_retries={self.max_retries})"
            )
            self._point_failed(index, error, worker)
            self.abort(
                f"sweep {self.label!r} point "
                f"{self.points[index].label!r} failed: {error}"
            )
            return
        path = self._checkpoints.get(index)
        resume = path is not None and os.path.exists(path)
        if resume:
            self._emit(
                "point-checkpointed",
                index=index,
                point=self._name(index),
                path=path,
            )
        self._emit(
            "point-retried",
            index=index,
            point=self._name(index),
            worker=worker,
            retry=retry,
            max_retries=self.max_retries,
            resume=resume,
        )
        self._say(
            f"{self.points[index].label}: worker {worker} {cause}, "
            f"{'resuming from checkpoint' if resume else 'restarting'} "
            f"(retry {retry}/{self.max_retries})"
        )
        self.backlog.insert(0, index)

    def release(self, index: int) -> None:
        """Return a live lease to the front of the backlog, uncharged."""
        if self.status == "running" and index in self.running:
            del self.running[index]
            self._stalled.discard(index)
            self.backlog.insert(0, index)

    def spawned(self, worker: Any) -> None:
        """A worker joined the transport's pool."""
        if self.status == "running":
            self._emit("worker-spawned", worker=worker)

    def tick(self, workers: int, idle: int) -> List[int]:
        """Periodic check; returns leased indices whose holders stalled.

        Each stalled lease is reported once (``worker-stalled``); the
        transport must then kill or drop its worker and call
        :meth:`lost`, which charges the retry.  Also emits a
        ``worker-heartbeat`` every :data:`_PROGRESS_HEARTBEAT_EVERY`
        seconds.
        """
        if self.status != "running":
            return []
        now = time.monotonic()
        stalled: List[int] = []
        if self.stall_timeout is not None:
            for index, (worker, since) in self.running.items():
                held = now - since
                if held > self.stall_timeout and index not in self._stalled:
                    self._stalled.add(index)
                    stalled.append(index)
                    self._emit(
                        "worker-stalled",
                        worker=worker,
                        index=index,
                        point=self._name(index),
                        # Rounded up to the millisecond: a reaped lease
                        # reports more than stall_timeout, never a tie.
                        held_s=math.ceil(held * 1000) / 1000,
                        stall_timeout=self.stall_timeout,
                    )
        if now - self._last_beat >= _PROGRESS_HEARTBEAT_EVERY:
            self._last_beat = now
            self._emit(
                "worker-heartbeat",
                workers=workers,
                busy=len(self.running),
                idle=idle,
                backlog=len(self.backlog),
                remaining=self.remaining,
            )
        return stalled

    def abort(self, error: str) -> None:
        """Fail the sweep, closing every still-open point trail first.

        An in-flight point on another worker, or a retried point back
        in the backlog, has a ``point-running`` with no terminal event;
        consumers may trust that a failed stream still closes every
        dispatched point before ``sweep-end``.
        """
        if self.status != "running":
            return
        self.status = "failed"
        self.error = error
        self.backlog.clear()
        self.running.clear()
        for index in sorted(self._open):
            self._emit(
                "point-failed",
                index=index,
                point=self._name(index),
                error=f"aborted: sweep {self.label!r} failed",
            )
        self._open.clear()
        self._end("failed")

    def report(self, workers: int) -> SweepReport:
        """The finished sweep's report (``status == "ok"`` only)."""
        assert self.status == "ok"
        return SweepReport(
            label=self.label,
            outcomes=[o for o in self.outcomes if o is not None],
            workers=workers,
            elapsed=self.elapsed,
            cache_dir=(
                str(self.cache.directory) if self.cache is not None else None
            ),
            retries=self.total_retries,
        )

    # ------------------------------------------------------------------
    # internals

    def _name(self, index: int) -> str:
        return _label_str(self.points[index])

    def _emit(self, event: str, **fields: Any) -> None:
        if self.progress is not None:
            self.progress.emit(event, **fields)

    def _say(self, message: str) -> None:
        if self.verbose:
            print(f"[sweep {self.label}] {message}")

    def _emit_outcome(self, index: int, worker: Any = None) -> None:
        """``point-done`` (+ ``point-metrics``) for one completed point.

        Called for cache hits too: replaying a hit's cached
        ``WithMetrics`` payload is what keeps reports complete on warm
        caches.
        """
        outcome = self.outcomes[index]
        assert outcome is not None
        done: Dict[str, Any] = {
            "index": index,
            "point": self._name(index),
            "cached": outcome.cached,
            "elapsed": outcome.elapsed,
        }
        if worker is not None:
            done["worker"] = worker
        self._emit("point-done", **done)
        if outcome.metrics is not None:
            self._emit(
                "point-metrics",
                index=index,
                point=self._name(index),
                cached=outcome.cached,
                metrics=outcome.metrics,
            )

    def _point_failed(self, index: int, error: str, worker: Any) -> None:
        self.running.pop(index, None)
        self._open.discard(index)
        failed: Dict[str, Any] = {
            "index": index,
            "point": self._name(index),
            "error": error,
        }
        if worker is not None:
            failed["worker"] = worker
        self._emit("point-failed", **failed)

    def _end(self, status: str) -> None:
        self.status = status
        self.elapsed = time.perf_counter() - self.started
        end: Dict[str, Any] = {
            "status": status,
            "retries": self.total_retries,
            "elapsed": self.elapsed,
        }
        if status == "ok":
            hits = sum(1 for o in self.outcomes if o is not None and o.cached)
            end.update(
                n_points=len(self.points),
                cache_hits=hits,
                executed=len(self.points) - hits,
            )
        else:
            end["error"] = self.error
        self._emit("sweep-end", **end)
        if self.progress is not None and self._owns_progress:
            self.progress.close()
