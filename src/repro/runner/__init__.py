"""Sweep runner: parallel simulation fan-out with result caching.

The benchmark suite's tables are sweeps over (protocol, n, sharing)
grids of independent simulations.  :func:`run_sweep` executes such a
grid inline or across a supervised worker pool with per-point
deterministic seeds, and memoizes each point's result on disk keyed by
(function, kwargs, code version) — see :mod:`repro.runner.cache` for
the invalidation rules.  One scheduler
(:class:`~repro.runner.scheduler.Scheduler`) makes every scheduling
decision; the inline loop, the pool (:mod:`repro.runner.pool`) and the
sweep service (:func:`run_sweep_service`) are only its transports.
"""

from repro.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.runner.cache": ("CACHE_DIR_ENV", "ResultCache", "code_version"),
    "repro.runner.seeds": ("derive_seed",),
    "repro.runner.service.client": ("run_sweep_service",),
    "repro.runner.sweep": (
        "DuplicatePointLabelError",
        "SweepError",
        "SweepPoint",
        "SweepReport",
        "WithMetrics",
        "run_sweep",
    ),
})
