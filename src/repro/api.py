"""Stable public facade: one object, four verbs.

:class:`Experiment` is the supported entry point for driving the
reproduction programmatically.  It takes keyword-only arguments whose
names match both the ``MachineConfig``/workload fields and the CLI
flags one-for-one (``repro run --q 0.05`` ↔ ``Experiment(q=0.05)``),
and exposes:

* :meth:`Experiment.run` — simulate one machine (optionally
  checkpointing), audit it, return a :class:`RunOutcome`;
* :meth:`Experiment.sweep` — fan a grid of variants out, inline or
  over a crash-tolerant, checkpoint-resumable worker pool or a sweep
  service, cached either way (see :mod:`repro.runner.scheduler`);
* :meth:`Experiment.check` — model-check + differential-test the
  experiment's protocol (:func:`verification_pass`, the pass ``repro
  check`` walks too);
* :meth:`Experiment.trace` — run instrumented and export a Perfetto
  trace.

:func:`resume` restores a checkpointed run from disk and finishes it;
:func:`run_point` is the module-level sweep point function (picklable
by reference, cache-keyed on its kwargs) that every sweep transport
and the CLI share.

Everything here is covered by the committed API surface snapshot
(``API_SURFACE.txt``, enforced in CI): changing a signature is a
reviewed event, not an accident.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.config import MachineConfig, ProtocolOptions
from repro.protocols import registry
from repro.runner.seeds import derive_seed
from repro.runner.sweep import SweepPoint, SweepReport, WithMetrics
from repro.system.machine import Machine, SimulationResults
from repro.verification.audit import AuditReport, audit_machine
from repro.workloads.registry import WorkloadContext, make_workload
from repro.workloads.synthetic import Workload

__all__ = ["Experiment", "RunOutcome", "resume", "run_point"]

#: Experiment parameters that size/seed the simulation rather than the
#: machine; everything else maps onto MachineConfig fields.
_RUN_PARAMS = ("refs_per_proc", "warmup_refs")


@dataclass
class RunOutcome:
    """What one :meth:`Experiment.run` produced."""

    #: The drained machine (for histograms, occupancy, further audits).
    machine: Machine
    #: Aggregated measurements (``results.to_dict()`` is the persisted
    #: form, stamped with the results schema version).
    results: SimulationResults
    #: Coherence audit verdict (raised on already if ``strict`` ran).
    audit: AuditReport
    #: Observability hub when the run was instrumented, else None.
    obs: Optional[object] = None


class Experiment:
    """A named, reproducible simulation setup (see module docstring).

    All arguments are keyword-only and shared verbatim with the CLI:

    Args:
        protocol: registry protocol name or alias (``twobit``,
            ``fullmap``, ``write_once``, ...).
        n_processors: processor-cache pairs.
        n_modules: memory-module/controller pairs.
        q: probability a reference is to the shared pool.
        w: probability a shared reference is a write.
        network: interconnect (``xbar``/``bus``/``delta``); None picks
            the protocol's preferred network.
        refs_per_proc: measured references per processor.
        warmup_refs: warm-up references per processor (not measured).
        seed: master seed (workload streams derive from it).
        translation_buffer_entries: §4.4 enhancement 2 capacity (0=off).
        duplicate_directory: §4.4 enhancement 1 toggle.
        faults: fault plan — canned name, ``key=value`` spec string, or
            a :class:`~repro.faults.plan.FaultSpec`; None = fault-free.
        sample_interval: telemetry sampler window for instrumented runs.
        private_blocks_per_proc: per-processor private pool size.
        workload: what the processors execute — a registry spec string
            (``"dubois:low"``, ``"uniform"``, ``"trace:path.trace"``,
            ``"scripted:hot_cold"`` — see
            :mod:`repro.workloads.registry`), a built
            :class:`~repro.workloads.synthetic.Workload` instance, or
            None for the legacy default (the Dubois-Briggs model built
            from ``q``/``w``/``private_blocks_per_proc``/``seed``).
            Those legacy sharing kwargs stay supported as the context a
            spec string inherits: ``workload="dubois:low"`` is the same
            machine as ``q=0.01, w=0.2``.  Workloads with a fixed shape
            (traces, scripts, instances) override ``n_processors``.
    """

    def __init__(
        self,
        *,
        protocol: str = "twobit",
        n_processors: int = 4,
        n_modules: int = 2,
        q: float = 0.05,
        w: float = 0.2,
        network: Optional[str] = None,
        refs_per_proc: int = 3000,
        warmup_refs: int = 500,
        seed: int = 1984,
        translation_buffer_entries: int = 0,
        duplicate_directory: bool = False,
        faults: Optional[object] = None,
        sample_interval: int = 200,
        private_blocks_per_proc: int = 128,
        workload: Optional[object] = None,
    ) -> None:
        self.protocol = registry.canonical_name(protocol)
        self.n_processors = n_processors
        self.n_modules = n_modules
        self.q = q
        self.w = w
        self.network = (
            network
            if network is not None
            else registry.resolve(self.protocol).default_network()
        )
        self.refs_per_proc = refs_per_proc
        self.warmup_refs = warmup_refs
        self.seed = seed
        self.translation_buffer_entries = translation_buffer_entries
        self.duplicate_directory = duplicate_directory
        self.faults = faults
        self.sample_interval = sample_interval
        self.private_blocks_per_proc = private_blocks_per_proc
        if workload is not None and not isinstance(workload, (str, Workload)):
            raise TypeError(
                "workload must be a registry spec string, a Workload "
                f"instance, or None; got {type(workload).__name__}"
            )
        self.workload = workload

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def to_kwargs(self) -> Dict[str, Any]:
        """The constructor kwargs reproducing this experiment.

        Every value has a stable ``repr`` (builtins, or the frozen
        builtins-only :class:`~repro.faults.plan.FaultSpec`), which is
        what the sweep result cache keys on.
        """
        faults = self.faults
        return {
            "protocol": self.protocol,
            "n_processors": self.n_processors,
            "n_modules": self.n_modules,
            "q": self.q,
            "w": self.w,
            "network": self.network,
            "refs_per_proc": self.refs_per_proc,
            "warmup_refs": self.warmup_refs,
            "seed": self.seed,
            "translation_buffer_entries": self.translation_buffer_entries,
            "duplicate_directory": self.duplicate_directory,
            "faults": faults,
            "sample_interval": self.sample_interval,
            "private_blocks_per_proc": self.private_blocks_per_proc,
            "workload": self.workload,
        }

    def variant(self, **overrides: Any) -> "Experiment":
        """A copy of this experiment with some parameters replaced."""
        kwargs = self.to_kwargs()
        unknown = set(overrides) - set(kwargs)
        if unknown:
            raise TypeError(
                f"unknown experiment parameter(s): {sorted(unknown)}"
            )
        kwargs.update(overrides)
        return Experiment(**kwargs)

    # ------------------------------------------------------------------
    # Building
    # ------------------------------------------------------------------
    def build(self, instrument: bool = False, keep_events: bool = False):
        """Assemble the machine (not yet run); returns ``(machine, obs)``."""
        from repro.faults import attach_faults
        from repro.system.builder import build_machine

        workload = make_workload(
            self.workload,
            WorkloadContext(
                n_processors=self.n_processors,
                seed=self.seed,
                q=self.q,
                w=self.w,
                private_blocks_per_proc=self.private_blocks_per_proc,
            ),
        )
        config = MachineConfig(
            # Fixed-shape workloads (traces, scripts, prebuilt instances)
            # dictate the processor count; generative families take it
            # from the experiment's n_processors via the context above.
            n_processors=workload.n_processors,
            n_modules=self.n_modules,
            n_blocks=workload.n_blocks,
            protocol=self.protocol,
            network=self.network,
            seed=self.seed,
            options=ProtocolOptions(
                translation_buffer_entries=self.translation_buffer_entries,
                duplicate_directory=self.duplicate_directory,
            ),
        )
        machine = build_machine(config, workload)
        if self.faults is not None:
            attach_faults(machine, self.faults)
        obs = None
        if instrument:
            from repro.obs import instrument_machine

            obs = instrument_machine(
                machine,
                sample_interval=self.sample_interval,
                keep_events=keep_events,
            )
        return machine, obs

    # ------------------------------------------------------------------
    # Verbs
    # ------------------------------------------------------------------
    def run(
        self,
        checkpoint_every: int = 0,
        checkpoint_path: Optional[str] = None,
        instrument: bool = False,
        keep_events: bool = False,
        strict: bool = True,
        record_trace: Optional[str] = None,
    ) -> RunOutcome:
        """Simulate, audit, and return the outcome.

        Args:
            checkpoint_every: checkpoint the machine every this many
                cycles of the measurement window (0 = never).
            checkpoint_path: checkpoint file (may contain ``{cycle}``);
                required with ``checkpoint_every``.
            instrument: attach the observability hub.
            keep_events: retain raw events/spans for trace export.
            strict: raise on a failed coherence audit.
            record_trace: write the run's reference stream (warm-up
                included) to this path as a replayable trace; replaying
                it via ``workload="trace:<path>"`` with the same
                warm-up/measure split reproduces the run bit-for-bit.
        """
        machine, obs = self.build(
            instrument=instrument, keep_events=keep_events
        )
        recorder = None
        if record_trace is not None:
            from repro.workloads.recorder import attach_recorder

            recorder = attach_recorder(machine)
        machine.run(
            refs_per_proc=self.refs_per_proc,
            warmup_refs=self.warmup_refs,
            checkpoint_every=checkpoint_every,
            checkpoint_path=checkpoint_path,
        )
        if recorder is not None:
            recorder.write(
                record_trace,
                n_processors=machine.config.n_processors,
                n_blocks=machine.config.n_blocks,
            )
        audit = audit_machine(machine)
        if strict:
            audit.raise_if_failed()
        return RunOutcome(
            machine=machine, results=machine.results(), audit=audit, obs=obs
        )

    def sweep(
        self,
        axes: Mapping[str, Sequence[Any]],
        workers: Optional[int] = None,
        service: Optional[str] = None,
        checkpoint_every: int = 0,
        checkpoint_dir: Optional[str] = None,
        cache_dir: Optional[Any] = None,
        use_cache: bool = True,
        label: Optional[str] = None,
        max_retries: int = 2,
        stall_timeout: Optional[float] = None,
        verbose: bool = False,
        instrument: bool = False,
        progress_out: Optional[Any] = None,
    ) -> SweepReport:
        """Run the cross-product of ``axes`` over this experiment.

        Each axis key is an :class:`Experiment` parameter; each grid
        point runs :func:`run_point` with this experiment's parameters
        plus the point's overrides and a per-point derived seed, so
        results are independent of worker count and execution order.

        ``workers=None`` runs the points inline, in this process.  An
        integer runs them on a supervised pool of that many processes
        (:func:`~repro.runner.sweep.run_sweep`): a worker that dies, or
        holds a shard past ``stall_timeout`` seconds, is replaced and
        its shard retried, up to ``max_retries`` times; with
        ``checkpoint_every`` set, a retried shard resumes from its last
        checkpoint instead of recomputing.  Inline sweeps have no
        worker to lose, so they reject ``stall_timeout``,
        ``checkpoint_every`` and ``checkpoint_dir`` with ``ValueError``.

        ``service="http://host:port"`` submits the grid to a running
        sweep-service coordinator (``repro serve``) and its registered
        ``repro work`` fleet instead of local processes
        (:func:`~repro.runner.service.run_sweep_service`).  The
        coordinator runs the same scheduler with the same retry/stall
        budgets; the result cache and checkpoint directories live
        coordinator-side, and cache entries are keyed exactly as local
        runs key them, so a distributed sweep warms the same cache a
        later local sweep hits.  ``progress_out`` must be a path or
        file-like (the coordinator's merged stream is downloaded
        verbatim).  See ``docs/service.md``.

        ``instrument=True`` runs every point with the observability hub
        attached and caches each point's telemetry alongside its result
        (see :attr:`SweepReport.metrics_by_key` and
        :mod:`repro.obs.rollup`); instrumented and bare points occupy
        distinct cache entries.  ``progress_out`` (path, file-like, or
        :class:`~repro.obs.progress.ProgressStream`) streams the
        schema-stamped JSONL lifecycle events described in
        :mod:`repro.obs.progress`.
        """
        from repro.runner.sweep import run_sweep

        points = self.sweep_points(axes, instrument=instrument)
        name = label if label is not None else f"{self.protocol}-grid"
        if service is not None:
            from repro.runner.service import run_sweep_service

            return run_sweep_service(
                points,
                service,
                label=name,
                use_cache=use_cache,
                checkpoint_every=checkpoint_every,
                max_retries=max_retries,
                stall_timeout=stall_timeout,
                progress_out=progress_out,
                verbose=verbose,
            )
        return run_sweep(
            points,
            workers=workers,
            cache_dir=cache_dir,
            use_cache=use_cache,
            label=name,
            verbose=verbose,
            progress_out=progress_out,
            checkpoint_every=checkpoint_every,
            checkpoint_dir=checkpoint_dir,
            max_retries=max_retries,
            stall_timeout=stall_timeout,
        )

    def sweep_points(
        self,
        axes: Mapping[str, Sequence[Any]],
        instrument: bool = False,
    ) -> List[SweepPoint]:
        """The :class:`SweepPoint` grid :meth:`sweep` would run."""
        base = self.to_kwargs()
        unknown = set(axes) - set(base)
        if unknown:
            raise TypeError(f"unknown sweep axis/axes: {sorted(unknown)}")
        names = sorted(axes)
        points = []
        for values in itertools.product(*(axes[name] for name in names)):
            overrides = dict(zip(names, values))
            kwargs = {**base, **overrides}
            kwargs["seed"] = derive_seed(
                self.seed, *(repr(overrides[name]) for name in names)
            )
            if instrument:
                # Part of the point kwargs, hence part of the cache key:
                # instrumented results carry a telemetry payload, so they
                # must never alias a bare point's cache entry.
                kwargs["instrument"] = True
            key = tuple(sorted(overrides.items()))
            points.append(SweepPoint(fn=run_point, kwargs=kwargs, key=key))
        return points

    def check(
        self,
        depth: str = "smoke",
        max_schedules: int = 20_000,
        max_steps: int = 4000,
        differential: int = 3,
    ) -> bool:
        """Model-check + differential-test this experiment's protocol.

        Returns True when every scenario's interleavings pass and the
        differential streams agree; counterexamples print to stdout
        exactly as ``repro check`` would show them.
        """
        from repro.verification import model_check

        ok = True
        for item in verification_pass(
            [self.protocol],
            model_check.scenarios_for(depth),
            max_schedules=max_schedules,
            max_steps=max_steps,
            faults=self.faults,
            differential=differential,
            seed=self.seed,
        ):
            if isinstance(item, model_check.ModelCheckResult):
                if item.ok:
                    continue
                print(item.summary())
                print(item.counterexample.render())
            else:
                _, report = item
                if report.ok:
                    continue
                print(report.render())
            ok = False
        return ok

    def trace(self, out: str, strict: bool = True) -> RunOutcome:
        """Run instrumented and export a Perfetto/Chrome trace to ``out``."""
        from repro.obs import write_chrome_trace

        outcome = self.run(
            instrument=True, keep_events=True, strict=strict
        )
        outcome.obs.flush(outcome.machine.sim.now)
        write_chrome_trace(out, outcome.obs)
        return outcome


def verification_pass(
    protocols: Sequence[str],
    scenarios: Sequence[Any],
    *,
    max_schedules: int,
    max_steps: int,
    faults: Optional[object],
    differential: int,
    seed: int,
):
    """The one pass behind ``repro check`` and :meth:`Experiment.check`.

    Yields each protocol's :class:`~repro.verification.model_check.
    ModelCheckResult` per scenario, protocol by protocol, then one
    ``(stream_seed, DifferentialReport)`` per random lockstep stream
    (seeds ``seed``, ``seed + 1``, ...).  Callers do their own printing.
    """
    from repro.verification import differential as diff_mod
    from repro.verification import model_check

    for protocol in protocols:
        yield from model_check.check_protocol(
            protocol,
            scenarios=scenarios,
            max_schedules=max_schedules,
            max_steps=max_steps,
            faults=faults,
        )
    for stream_seed in range(seed, seed + differential):
        refs = diff_mod.random_refs(stream_seed)
        yield stream_seed, diff_mod.run_differential(
            refs, protocols=protocols, faults=faults
        )


def resume(
    checkpoint_path: str,
    checkpoint_every: int = 0,
    allow_code_mismatch: bool = False,
    strict: bool = True,
) -> RunOutcome:
    """Restore a checkpointed machine and finish its interrupted run.

    The completed run is bit-identical to one that was never
    interrupted.  ``checkpoint_every`` continues checkpointing back to
    the same file at the same cadence (0 = just finish).
    """
    from repro import checkpoint as _checkpoint

    machine = _checkpoint.load(
        checkpoint_path, allow_code_mismatch=allow_code_mismatch
    )
    return _finish_resumed(machine, checkpoint_path, checkpoint_every, strict)


def _finish_resumed(
    machine: Machine, checkpoint_path: str, checkpoint_every: int, strict: bool
) -> RunOutcome:
    """The run half of :func:`resume`, for callers that inspect the
    loaded machine before any simulation work."""
    machine.continue_run(
        checkpoint_every=checkpoint_every,
        checkpoint_path=checkpoint_path if checkpoint_every else None,
    )
    audit = audit_machine(machine)
    if strict:
        audit.raise_if_failed()
    return RunOutcome(
        machine=machine,
        results=machine.results(),
        audit=audit,
        obs=machine.sim.obs,
    )


def run_point(
    checkpoint_every: int = 0,
    checkpoint_path: Optional[str] = None,
    instrument: bool = False,
    **kwargs: Any,
) -> Any:
    """Sweep point function: one experiment -> ``results.to_dict()``.

    Module-level (picklable by reference) and cache-keyed on ``kwargs``
    only — the checkpoint arguments are injected per-execution by the
    sweep scheduler and never reach the cache key.  When
    ``checkpoint_path`` already exists the simulation *resumes* from it
    instead of restarting: that is how a retried shard avoids
    recomputing cycles it already simulated.

    With ``instrument=True`` (part of the cache key when set by
    :meth:`Experiment.sweep_points`) the run is observed and the return
    value is a :class:`~repro.runner.sweep.WithMetrics` wrapping the
    results dict plus :func:`repro.obs.machine_metrics` telemetry —
    cached together, so warm sweeps still have metrics to roll up.
    Instrumentation is observation-only: the results dict is
    bit-identical to a bare run's.
    """
    if checkpoint_path and os.path.exists(checkpoint_path):
        outcome = resume(
            checkpoint_path, checkpoint_every=checkpoint_every
        )
    else:
        outcome = Experiment(**kwargs).run(
            checkpoint_every=checkpoint_every,
            checkpoint_path=checkpoint_path,
            instrument=instrument,
        )
    results = outcome.results.to_dict()
    if outcome.obs is not None:
        from repro.obs import machine_metrics

        return WithMetrics(
            results, machine_metrics(outcome.machine, outcome.obs)
        )
    return results
