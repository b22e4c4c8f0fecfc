"""The supervised pipe pool: the local transport for integer ``workers``.

The pool moves tasks and results between a
:class:`~repro.runner.scheduler.Scheduler` and worker processes; every
scheduling decision — backlog order, retries, stalls, progress events
— is the scheduler's.  The pool is built directly on
:mod:`multiprocessing` rather than a ``ProcessPoolExecutor``: a killed
executor worker poisons every outstanding future with
``BrokenProcessPool``, while a supervised pool treats worker death as
an ordinary event — the dead worker's shard goes back to the scheduler
and a replacement worker keeps the pool at strength.

Why pipes, not queues: the pool must survive ``SIGKILL`` at *any*
instant, and ``multiprocessing.Queue`` cannot — its write lock is a
cross-process semaphore taken by a background feeder thread, so a
worker killed mid-flush orphans the lock and every other worker's
``put`` blocks forever.  Each worker therefore gets its own duplex
:func:`multiprocessing.Pipe` (single writer per direction, no shared
locks, no feeder thread); the supervisor multiplexes them with
:func:`multiprocessing.connection.wait`, and a worker killed mid-send
surfaces as ``EOFError`` on the parent end rather than a deadlock.

Tasks are *dispatched* by the supervisor over each worker's pipe
rather than taken from a shared queue: a SIGKILLed process can lose
any message still buffered on its side, so worker self-reports ("I
took task i") are unreliable exactly when they matter.  With
supervisor-side dispatch the parent always knows which task a dead
worker held.  A lost "done" (the worker was killed after finishing,
before the bytes hit the pipe) only costs a redundant re-execution —
results are deterministic, so the retry reproduces the same value.
"""

from __future__ import annotations

import multiprocessing
import time
import traceback
from multiprocessing import connection as mp_connection
from typing import Any, Dict, List

from repro.runner.scheduler import Scheduler, Task, execute

#: Supervisor wake-up interval (seconds): bounds how quickly worker
#: death and stalls are noticed without spinning.
_WAKE = 0.05


def _mp_context():
    # fork keeps already-imported bench modules importable in workers
    # (their functions pickle by reference); fall back where unavailable.
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-fork platforms
        return multiprocessing.get_context()


def _worker(conn) -> None:
    """Worker loop: receive a task on ``conn``, run it, report, repeat."""
    while True:
        try:
            item = conn.recv()
        except (EOFError, OSError):  # pragma: no cover - parent gone
            return
        if item is None:
            conn.close()
            return
        idx, fn, kwargs = item
        try:
            value, elapsed = execute(fn, kwargs)
        except BaseException:
            conn.send(("error", idx, traceback.format_exc()))
        else:
            conn.send(("done", idx, (value, elapsed)))


class _Pool:
    """The supervised worker set (internal to :func:`run_pool`)."""

    def __init__(self, scheduler: Scheduler, n_workers: int) -> None:
        self.ctx = _mp_context()
        self.scheduler = scheduler
        self.procs: Dict[int, Any] = {}
        self.conns: Dict[int, Any] = {}  # pid -> parent pipe end
        self.pid_by_conn: Dict[Any, int] = {}
        self.idle: List[int] = []
        for _ in range(n_workers):
            self.spawn()

    def spawn(self) -> None:
        parent_conn, child_conn = self.ctx.Pipe(duplex=True)
        proc = self.ctx.Process(
            target=_worker, args=(child_conn,), daemon=True
        )
        proc.start()
        # Drop the parent's copy of the child end immediately, so the
        # worker's death closes the last handle and the parent sees EOF.
        child_conn.close()
        self.procs[proc.pid] = proc
        self.conns[proc.pid] = parent_conn
        self.pid_by_conn[parent_conn] = proc.pid
        self.idle.append(proc.pid)
        self.scheduler.spawned(proc.pid)

    def dispatch(self, pid: int, task: Task) -> None:
        self.idle.remove(pid)
        self.conns[pid].send((task.index, task.fn, task.kwargs))

    def mark_idle(self, pid: int) -> None:
        if pid in self.procs and pid not in self.idle:
            self.idle.append(pid)

    def wait(self, timeout: float) -> List[Any]:
        """Pipe ends with data (or EOF) ready, after at most ``timeout``."""
        if not self.conns:  # pragma: no cover - transient only
            time.sleep(timeout)
            return []
        return list(
            mp_connection.wait(list(self.conns.values()), timeout=timeout)
        )

    def reap_dead(self) -> List[int]:
        """Join and drop exited workers; returns their pids."""
        dead = [pid for pid, p in self.procs.items() if not p.is_alive()]
        for pid in dead:
            self.procs.pop(pid).join()
            conn = self.conns.pop(pid)
            self.pid_by_conn.pop(conn, None)
            conn.close()
            if pid in self.idle:
                self.idle.remove(pid)
        return dead

    def kill(self, pid: int) -> None:
        proc = self.procs.get(pid)
        if proc is not None and proc.is_alive():
            proc.kill()

    def shutdown(self) -> None:
        for conn in self.conns.values():
            try:
                conn.send(None)
            except (OSError, ValueError):  # pragma: no cover - worker gone
                pass
        for proc in self.procs.values():
            if proc.is_alive():
                proc.terminate()
        for proc in self.procs.values():
            proc.join()
        for conn in self.conns.values():
            conn.close()
        self.procs.clear()
        self.conns.clear()
        self.pid_by_conn.clear()
        self.idle.clear()


def run_pool(scheduler: Scheduler, workers: int) -> None:
    """Drive ``scheduler`` on ``workers`` processes until the sweep ends."""
    pool = _Pool(scheduler, min(workers, scheduler.remaining))
    owner: Dict[int, int] = {}  # worker pid -> leased index
    try:
        while scheduler.status == "running":
            while pool.idle:
                task = scheduler.lease(pool.idle[0])
                if task is None:
                    break
                owner[pool.idle[0]] = task.index
                pool.dispatch(pool.idle[0], task)

            for conn in pool.wait(_WAKE):
                pid = pool.pid_by_conn.get(conn)
                if pid is None:  # pragma: no cover - already reaped
                    continue
                try:
                    kind, idx, payload = conn.recv()
                except (EOFError, OSError):
                    continue  # dead worker; reap_dead handles it
                if owner.get(pid) == idx:
                    del owner[pid]
                    pool.mark_idle(pid)
                if kind == "error":
                    scheduler.fail(idx, payload, pid)
                else:
                    value, elapsed = payload
                    scheduler.complete(idx, value, elapsed, pid)
                if scheduler.status != "running":
                    return

            for pid in pool.reap_dead():
                scheduler.lost(owner.pop(pid, None), pid)
                if scheduler.status == "running":
                    pool.spawn()

            stalled = scheduler.tick(len(pool.procs), len(pool.idle))
            for pid, idx in list(owner.items()):
                if idx in stalled:
                    # The kill surfaces via reap_dead as a lost shard.
                    pool.kill(pid)
    finally:
        pool.shutdown()
