"""Sweeps: grids of independent simulation points, run with caching.

A *sweep* is a list of independent simulation points — (function,
kwargs) pairs, typically one per cell of a results table.
:func:`run_sweep` runs them inline or on a supervised worker pool;
results land in an on-disk :class:`~repro.runner.cache.ResultCache`, so
re-running a bench after an unrelated change is effectively free, and
editing any ``repro`` source invalidates everything (see
``cache.code_version``).  Every scheduling decision — cache pre-pass,
retries, stalls, progress events — belongs to
:class:`~repro.runner.scheduler.Scheduler`, whichever transport runs
the points.

Determinism: each point carries its own explicit seed (pin one in the
kwargs, or derive one with :func:`~repro.runner.seeds.derive_seed`), so
results are identical regardless of transport, worker count, execution
order, retries, or whether a value came from the cache.

Point functions must be module-level (picklable by reference) and their
kwargs must have stable ``repr`` (builtins and the config dataclasses
qualify); both are checked/exercised by the unit tests.

Progress streaming: pass ``progress_out=`` (a path, file-like, or
:class:`~repro.obs.progress.ProgressStream`) and the sweep emits a
schema-stamped JSONL lifecycle stream — manifest, per-point
queued/running/done/failed events, and a terminal summary — written
supervisor-side so it is complete even when workers die (see
:mod:`repro.obs.progress`).  Cache hits replay their stored telemetry
into the stream as ``point-metrics`` events, so a warm-cache sweep
produces the same rollup-ready stream as a cold one.
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from repro.runner.cache import ResultCache, default_cache_dir


class SweepError(RuntimeError):
    """A sweep point raised; carries which point failed."""


class DuplicatePointLabelError(ValueError):
    """Two sweep outcomes share one label; a keyed view would drop data.

    :attr:`SweepReport.by_key` and :attr:`SweepReport.metrics_by_key`
    build dicts keyed by point label.  Silently collapsing colliding
    labels would discard outcomes without a trace, so the collision is
    an error carrying the label and the indices of the points involved.
    """

    def __init__(self, label: Hashable, indices: List[int]) -> None:
        super().__init__(
            f"duplicate sweep point label {label!r} at point indices "
            f"{indices}: a by-key view would silently drop outcomes; "
            f"give the colliding points distinct key= values (or read "
            f".outcomes, which keeps every point)"
        )
        self.label = label
        self.indices = indices


@dataclass(frozen=True)
class SweepPoint:
    """One cell of a sweep: call ``fn(**kwargs)``.

    ``key`` labels the point in reports and in
    :attr:`SweepReport.by_key`; it defaults to the kwargs tuple.
    """

    fn: Callable[..., Any]
    kwargs: Dict[str, Any] = field(default_factory=dict)
    key: Optional[Hashable] = None

    @property
    def label(self) -> Hashable:
        if self.key is not None:
            return self.key
        return tuple(sorted(self.kwargs.items()))


@dataclass(frozen=True)
class WithMetrics:
    """Return this from a point function to attach a telemetry payload.

    The sweep unwraps it: :attr:`PointOutcome.result` is ``value`` and
    :attr:`PointOutcome.metrics` is ``metrics`` (typically
    :func:`repro.obs.machine_metrics`).  The wrapped pair is what gets
    cached, so metrics survive cache hits.
    """

    value: Any
    metrics: Dict[str, Any]


def _unwrap(value: Any) -> Tuple[Any, Optional[Dict[str, Any]]]:
    if isinstance(value, WithMetrics):
        return value.value, value.metrics
    return value, None


@dataclass
class PointOutcome:
    """Result of one point, with provenance."""

    point: SweepPoint
    result: Any
    cached: bool
    #: Wall-clock seconds until the result was available (0 on a hit).
    elapsed: float
    #: Telemetry attached via :class:`WithMetrics`, or None.
    metrics: Optional[Dict[str, Any]] = None


@dataclass
class SweepReport:
    """Everything :func:`run_sweep` learned, in point order."""

    label: str
    outcomes: List[PointOutcome]
    workers: int
    elapsed: float
    cache_dir: Optional[str]
    #: Worker-death/stall retries performed (0 for inline sweeps).
    retries: int = 0

    @property
    def results(self) -> List[Any]:
        return [o.result for o in self.outcomes]

    def _keyed(
        self, entries: Iterable[Tuple[int, Hashable, Any]]
    ) -> Dict[Hashable, Any]:
        """label -> value, raising on collisions instead of dropping."""
        out: Dict[Hashable, Any] = {}
        first: Dict[Hashable, int] = {}
        for index, label, value in entries:
            if label in first:
                raise DuplicatePointLabelError(label, [first[label], index])
            first[label] = index
            out[label] = value
        return out

    @property
    def by_key(self) -> Dict[Hashable, Any]:
        """Results keyed by point label.

        Raises :class:`DuplicatePointLabelError` when two points share a
        label — a dict would silently keep only the last outcome.
        """
        return self._keyed(
            (i, o.point.label, o.result) for i, o in enumerate(self.outcomes)
        )

    @property
    def metrics_by_key(self) -> Dict[Hashable, Dict[str, Any]]:
        """Telemetry payloads for points that returned :class:`WithMetrics`.

        Raises :class:`DuplicatePointLabelError` on label collisions,
        exactly as :attr:`by_key` does.
        """
        return self._keyed(
            (i, o.point.label, o.metrics)
            for i, o in enumerate(self.outcomes)
            if o.metrics is not None
        )

    @property
    def cache_hits(self) -> int:
        return sum(1 for o in self.outcomes if o.cached)

    @property
    def executed(self) -> int:
        return len(self.outcomes) - self.cache_hits

    def summary(self) -> str:
        cache = self.cache_dir if self.cache_dir else "off"
        retries = f", {self.retries} retries" if self.retries else ""
        return (
            f"[sweep {self.label}] {len(self.outcomes)} points: "
            f"{self.cache_hits} cached, {self.executed} executed "
            f"({self.workers} workers, {self.elapsed:.2f}s, "
            f"cache={cache}{retries})"
        )


def _label_str(point: SweepPoint) -> str:
    """Human/JSON-friendly form of a point's label for progress events."""
    label = point.label
    # The emptiness guard matters: all() over an empty tuple is
    # vacuously true, and the join would render the label as "" —
    # progress events and reports must never carry a blank point label.
    if (
        isinstance(label, tuple)
        and label
        and all(
            isinstance(item, tuple) and len(item) == 2 for item in label
        )
    ):
        return ", ".join(f"{k}={v}" for k, v in label)
    return repr(label)




def run_sweep(
    points: Sequence[SweepPoint],
    workers: Optional[int] = None,
    cache_dir: Optional[Any] = None,
    use_cache: bool = True,
    label: str = "sweep",
    verbose: bool = False,
    progress_out: Optional[Any] = None,
    checkpoint_every: int = 0,
    checkpoint_dir: Optional[str] = None,
    max_retries: int = 2,
    stall_timeout: Optional[float] = None,
) -> SweepReport:
    """Run every point, consulting/filling the result cache.

    Args:
        points: the sweep cells; order is preserved in the report.
        workers: ``None`` runs inline, in this process; an integer runs
            a supervised pool of that many processes
            (:mod:`repro.runner.pool`), which replaces workers that die
            or stall and retries their shards.
        cache_dir: result cache directory; ``None`` uses
            :func:`~repro.runner.cache.default_cache_dir`.
        use_cache: set False to force re-execution (cache is not read
            *or* written).
        label: sweep name for the summary line.
        verbose: print a progress line per point.
        progress_out: path, file-like, or ProgressStream for the JSONL
            lifecycle event stream (None = off); see
            :mod:`repro.obs.progress`.
        checkpoint_every: cycle interval for per-shard machine
            checkpoints (0 = retried shards restart from scratch).
            Only applied to point functions that accept the
            ``checkpoint_every``/``checkpoint_path`` kwargs.
        checkpoint_dir: where shard checkpoints live; when omitted, a
            temporary ``repro-sweep-*`` directory that is removed when
            the sweep ends.  A given directory is never removed.
        max_retries: how many times one shard may be retried after
            worker death/stall before the sweep fails.
        stall_timeout: seconds a shard may hold a worker before it is
            presumed hung and its worker killed (None = no stall check).

    Raises:
        SweepError: a point raised (the original exception chains when
            it ran inline), or a shard exhausted its retries.
        ValueError: a pool-only budget (``stall_timeout``,
            ``checkpoint_every``, ``checkpoint_dir``) was given for an
            inline sweep, which has no worker to lose.
    """
    # Imported here: the scheduler builds this module's types.
    from repro.runner.pool import run_pool
    from repro.runner.scheduler import Scheduler, execute

    if workers is None and (
        stall_timeout is not None or checkpoint_every or checkpoint_dir
    ):
        raise ValueError(
            "stall_timeout, checkpoint_every and checkpoint_dir need a "
            "worker pool (workers=N): an inline sweep has no worker to "
            "lose"
        )
    cache = (
        ResultCache(cache_dir if cache_dir is not None else default_cache_dir())
        if use_cache
        else None
    )
    n_workers = 1 if workers is None else max(1, int(workers))
    made = None
    if checkpoint_every and checkpoint_dir is None:
        checkpoint_dir = made = tempfile.mkdtemp(prefix="repro-sweep-")
    try:
        scheduler = Scheduler(
            points,
            label=label,
            cache=cache,
            progress_out=progress_out,
            workers=n_workers,
            elastic=workers is not None,
            checkpoint_every=checkpoint_every,
            checkpoint_dir=checkpoint_dir,
            max_retries=max_retries,
            stall_timeout=stall_timeout,
            verbose=verbose,
        )
        try:
            scheduler.start()
            if workers is not None:
                run_pool(scheduler, n_workers)
            else:
                for task in iter(scheduler.lease, None):
                    try:
                        value, elapsed = execute(task.fn, task.kwargs)
                    except Exception as exc:
                        scheduler.fail(task.index, str(exc))
                        raise SweepError(scheduler.error) from exc
                    scheduler.complete(task.index, value, elapsed)
        except BaseException as exc:
            # e.g. KeyboardInterrupt: the stream still closes every trail.
            scheduler.abort(f"sweep {label!r} failed: {exc}")
            raise
    finally:
        # After run_pool: its workers, the only checkpoint writers, are gone.
        if made is not None:
            shutil.rmtree(made, ignore_errors=True)
    if scheduler.status != "ok":
        raise SweepError(scheduler.error)
    report = scheduler.report(n_workers)
    if verbose:
        print(report.summary())
    return report
