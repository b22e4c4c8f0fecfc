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

from repro.runner.cache import (
    CACHE_DIR_ENV,
    ResultCache,
    code_version,
    default_cache_dir,
)
from repro.runner.seeds import derive_seed
from repro.runner.sweep import (
    DuplicatePointLabelError,
    PointOutcome,
    SweepError,
    SweepPoint,
    SweepReport,
    WithMetrics,
    run_sweep,
)


def __getattr__(name):
    # Lazy: the distributed sweep service pulls in the HTTP stack, which
    # local sweeps should never pay for at import time.
    if name == "run_sweep_service":
        from repro.runner.service import run_sweep_service

        return run_sweep_service
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CACHE_DIR_ENV",
    "DuplicatePointLabelError",
    "PointOutcome",
    "ResultCache",
    "SweepError",
    "SweepPoint",
    "SweepReport",
    "WithMetrics",
    "code_version",
    "default_cache_dir",
    "derive_seed",
    "run_sweep",
    "run_sweep_service",
]
