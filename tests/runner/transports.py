"""Run one sweep on any transport: the harness of the behaviour suite.

The sweep scheduler (:mod:`repro.runner.scheduler`) sits behind three
transports, and every scheduling behaviour — SIGKILL recovery, retry
exhaustion, stall reaping, checkpoint resume, heartbeats, abort trails
— must hold on each that can exhibit it.  The suite's tests loop over
these transports through :func:`run`:

* ``inline`` — ``run_sweep(workers=None)``;
* ``pool`` — ``run_sweep(workers=N)``, the supervised pipe pool;
* ``service`` — ``run_sweep_service`` against a loopback coordinator
  and ``repro work`` agents.

The service fleet is forked from the test process, so point functions
defined in test modules unpickle by reference on the coordinator and
the agents, and environment variables set before :func:`run` reach
them.  One fleet process keeps ``workers`` agents alive — an agent
SIGKILLed by its point is replaced, as an operator's supervisor would
— and owns a process group that teardown kills whole.
"""

import contextlib
import multiprocessing
import os
import signal
import threading
import time

from repro.runner import run_sweep
from repro.runner.service import (
    Coordinator,
    ServiceConfig,
    run_sweep_service,
    run_worker,
)
from repro.runner.service.wire import request_json

TRANSPORTS = ("inline", "pool", "service")

#: Transports that can lose a worker (and so retry a shard).
LOSSY = ("pool", "service")

_CTX = multiprocessing.get_context("fork")


def _coordinate(conn, config):
    conn.send(Coordinator(config).start())
    threading.Event().wait()


def _fleet(conn, config, agents):
    os.setpgrp()  # teardown kills coordinator and agents in one call
    inner, outer = _CTX.Pipe()
    _CTX.Process(target=_coordinate, args=(outer, config)).start()
    url = inner.recv()
    conn.send(url)

    def spawn():
        proc = _CTX.Process(
            target=run_worker, args=(url,), kwargs={"poll_interval": 0.02}
        )
        proc.start()
        return proc

    procs = [spawn() for _ in range(agents)]
    while True:
        time.sleep(0.02)
        for i, proc in enumerate(procs):
            if not proc.is_alive():
                proc.join()
                procs[i] = spawn()


@contextlib.contextmanager
def fleet(root, agents=2, cache_dir=None, checkpoint_dir=None):
    """A loopback coordinator with ``agents`` live workers; yields its URL."""
    config = ServiceConfig(
        cache_dir=str(cache_dir or root / "svc-cache"),
        checkpoint_dir=str(checkpoint_dir or root / "svc-ckpt"),
        progress_dir=str(root / "svc-progress"),
        heartbeat_timeout=1.0,
        heartbeat_every=0.1,
    )
    inner, outer = _CTX.Pipe()
    proc = _CTX.Process(target=_fleet, args=(outer, config, agents))
    proc.start()
    try:
        if not inner.poll(30):
            raise RuntimeError("sweep-service fleet did not start")
        url = inner.recv()
        deadline = time.monotonic() + 30
        while request_json(url, "GET", "/healthz")["workers"] < agents:
            if time.monotonic() > deadline:
                raise RuntimeError("workers did not register")
            time.sleep(0.02)
        yield url
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.kill()  # in case it died before leading its own group
        proc.join(timeout=10)
        assert not proc.is_alive(), "sweep-service fleet survived SIGKILL"


def run(transport, points, root, workers=2, **options):
    """Run ``points`` on ``transport``; returns its ``SweepReport``.

    ``options`` are :func:`~repro.runner.run_sweep` keywords.  For the
    service, ``cache_dir`` and ``checkpoint_dir`` configure the
    coordinator (they live coordinator-side, and checkpoints land in a
    per-sweep subdirectory), and at least two agents serve, so a
    stalled agent never leaves the sweep without a worker.
    """
    if transport == "inline":
        return run_sweep(points, **options)
    if transport == "pool":
        return run_sweep(points, workers=workers, **options)
    assert transport == "service", transport
    root = root / "service"
    root.mkdir(exist_ok=True)
    dirs = {
        "cache_dir": options.pop("cache_dir", None),
        "checkpoint_dir": options.pop("checkpoint_dir", None),
    }
    with fleet(root, agents=max(2, workers), **dirs) as url:
        return run_sweep_service(points, url, timeout=120, **options)
