"""Distributed sweep service: coordinator, worker agent, client.

This package is the HTTP transport of the sweep scheduler
(:class:`~repro.runner.scheduler.Scheduler`): the same state machine
that drives local sweeps, with its workers spread over hosts:

* :class:`~repro.runner.service.coordinator.Coordinator` — the HTTP
  coordinator (``repro serve``, on the standard library's threaded
  HTTP server) holding one scheduler per submitted sweep; it leases
  shards to remote workers, reports dead or stalled workers to the
  scheduler, persists results into the same
  content-addressed :class:`~repro.runner.cache.ResultCache` local
  sweeps use (so local and distributed runs share entries), and writes
  one coordinator-side JSONL progress stream per sweep;
* :func:`~repro.runner.service.worker.run_worker` — the worker agent
  (``repro work``) that leases shards, executes them through the
  existing point machinery, heartbeats from a background thread, and
  posts results back;
* :func:`~repro.runner.service.client.run_sweep_service` — the client
  verb behind ``Experiment.sweep(service=...)``: submit a grid, wait,
  and get back a :class:`~repro.runner.sweep.SweepReport`
  indistinguishable from a local run's.

The wire protocol, trust model, and failure semantics are documented
in ``docs/service.md``.
"""

from repro.runner.service.client import (
    fetch_progress,
    fetch_report,
    run_sweep_service,
    submit_sweep,
    sweep_status,
)
from repro.runner.service.coordinator import Coordinator, ServiceConfig, serve
from repro.runner.service.wire import ServiceError
from repro.runner.service.worker import run_worker

__all__ = [
    "Coordinator",
    "ServiceConfig",
    "ServiceError",
    "fetch_progress",
    "fetch_report",
    "run_sweep_service",
    "run_worker",
    "serve",
    "submit_sweep",
    "sweep_status",
]
