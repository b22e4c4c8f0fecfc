"""The assembled multiprocessor and its run harness.

:class:`Machine` owns every wired component and provides warm-up /
measurement-window execution, aggregated results, and post-run audits.
The headline measurement — extra coherence commands received per cache
per memory reference, the unit of Tables 4-1 and 4-2 — is computed in
:meth:`Machine.results`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.core.controller import TwoBitDirectoryController
from repro.core.states import GlobalState
from repro.memory.address import AddressMap
from repro.sim.kernel import Simulator
from repro.stats.counters import CounterRegistry, CounterSet
from repro.config import MachineConfig
from repro.verification.oracle import CoherenceOracle


@dataclass
class SimulationResults:
    """Aggregated measurements from one measurement window."""

    protocol: str
    n_processors: int
    total_refs: int
    cycles: int
    #: Paper's Table 4-1 unit: useless broadcast commands received per
    #: cache per memory reference (averaged over caches).
    extra_commands_per_ref: float
    #: All coherence commands received per cache per reference.
    commands_per_ref: float
    stolen_cycles_per_ref: float
    processor_wait_per_ref: float
    avg_latency: float
    miss_ratio: float
    shared_hit_ratio: Optional[float]
    #: Network occupancy-weighted traffic per reference.
    traffic_per_ref: float
    broadcasts: int
    invalidations_applied: int
    writebacks: int
    totals: Dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form for persistence, stamped with the shared
        results :data:`~repro.schema.SCHEMA_VERSION` (see
        :mod:`repro.schema`)."""
        from dataclasses import asdict

        from repro.schema import SCHEMA_VERSION

        out = asdict(self)
        out["schema_version"] = SCHEMA_VERSION
        return out

    @classmethod
    def from_dict(cls, raw: Dict[str, object]) -> "SimulationResults":
        """Inverse of :meth:`to_dict`; loud on schema mismatch."""
        from repro.schema import check_schema

        data = dict(raw)
        check_schema(data.pop("schema_version", None), "SimulationResults")
        return cls(**data)  # type: ignore[arg-type]

    def summary(self) -> str:
        lines = [
            f"protocol={self.protocol} n={self.n_processors} "
            f"refs={self.total_refs} cycles={self.cycles}",
            f"  extra commands/ref/cache : {self.extra_commands_per_ref:.4f}",
            f"  commands/ref/cache       : {self.commands_per_ref:.4f}",
            f"  stolen cycles/ref        : {self.stolen_cycles_per_ref:.4f}",
            f"  miss ratio               : {self.miss_ratio:.4f}",
            f"  avg latency (cycles)     : {self.avg_latency:.2f}",
            f"  traffic units/ref        : {self.traffic_per_ref:.3f}",
        ]
        if self.shared_hit_ratio is not None:
            lines.insert(5, f"  shared hit ratio         : {self.shared_hit_ratio:.4f}")
        return "\n".join(lines)


@dataclass
class Machine:
    """A fully wired simulated multiprocessor."""

    config: MachineConfig
    sim: Simulator
    oracle: CoherenceOracle
    amap: AddressMap
    workload: object
    processors: List
    caches: List
    controllers: List
    modules: List
    network: object
    managers: List
    registry: CounterRegistry
    #: Attached :class:`repro.faults.FaultInjector` (None = fault-free).
    faults: Optional[object] = None
    #: Livelock-guard budget left in the current phase.  Persisted so a
    #: checkpoint-restored machine resumes with the same remaining
    #: budget an uninterrupted run would have at that point.
    _guard_remaining: Optional[int] = None

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        refs_per_proc: int,
        warmup_refs: int = 0,
        max_events_per_ref: int = 400,
        checkpoint_every: int = 0,
        checkpoint_path: Optional[str] = None,
    ) -> None:
        """Run a warm-up phase (optional) then a measurement window.

        Args:
            refs_per_proc: measurement-window references per processor.
            warmup_refs: optional warm-up references per processor; the
                warm-up phase is never checkpointed (counters are reset
                at its end anyway).
            max_events_per_ref: livelock-guard budget per reference.
            checkpoint_every: checkpoint the whole machine every this
                many cycles during the measurement window (0 = never).
            checkpoint_path: where to write checkpoints; may contain
                ``{cycle}``.  Required when ``checkpoint_every`` is set.
        """
        if checkpoint_every and not checkpoint_path:
            raise ValueError("checkpoint_every requires checkpoint_path")
        if warmup_refs:
            self._run_phase(warmup_refs, max_events_per_ref)
            self.reset_measurement()
        self._run_phase(
            refs_per_proc,
            max_events_per_ref,
            checkpoint_every=checkpoint_every,
            checkpoint_path=checkpoint_path,
        )

    def continue_run(
        self,
        checkpoint_every: int = 0,
        checkpoint_path: Optional[str] = None,
    ) -> None:
        """Finish an interrupted phase (after a checkpoint restore).

        Drains the event queue exactly as the original :meth:`run` would
        have, optionally continuing to checkpoint at the same cadence.
        A machine restored from mid-run plus ``continue_run()`` is
        bit-identical to one that was never interrupted.
        """
        if checkpoint_every and not checkpoint_path:
            raise ValueError("checkpoint_every requires checkpoint_path")
        self._drain_phase(checkpoint_every, checkpoint_path)

    def _run_phase(
        self,
        refs_per_proc: int,
        max_events_per_ref: int,
        checkpoint_every: int = 0,
        checkpoint_path: Optional[str] = None,
    ) -> None:
        for proc in self.processors:
            proc.budget += refs_per_proc
            proc.resume()
        self._guard_remaining = (
            max_events_per_ref * refs_per_proc * self.config.n_processors + 100_000
        )
        self._drain_phase(checkpoint_every, checkpoint_path)

    def _drain_phase(
        self, checkpoint_every: int, checkpoint_path: Optional[str]
    ) -> None:
        sim = self.sim
        guard = self._guard_remaining
        if not checkpoint_every:
            before = sim.events_processed
            sim.run(max_events=guard)
            if guard is not None:
                self._guard_remaining = guard - (sim.events_processed - before)
            self._assert_drained()
            return
        from repro import checkpoint as _checkpoint

        while sim.pending:
            target = sim.now + checkpoint_every
            before = sim.events_processed
            # advance_clock=False: if the queue drains inside this
            # window, the clock must stay at the last event — sliced and
            # uninterrupted runs end with identical ``cycles``.
            sim.run(
                until=target, max_events=self._guard_remaining,
                advance_clock=False,
            )
            if self._guard_remaining is not None:
                self._guard_remaining -= sim.events_processed - before
            if sim.pending and checkpoint_path:
                _checkpoint.save(self, checkpoint_path)
        self._assert_drained()

    def _assert_drained(self) -> None:
        stuck = [p.name for p in self.processors if not p.drained]
        if stuck or self.sim.pending:
            raise RuntimeError(
                f"machine did not drain: busy processors={stuck}, "
                f"pending events={self.sim.pending}"
            )

    def reset_measurement(self) -> None:
        """Open a measurement window: zero all counters and state clocks."""
        self.registry.reset_all()
        for ctrl in self.controllers:
            directory = getattr(ctrl, "directory", None)
            if directory is not None and hasattr(directory, "reset_window"):
                directory.reset_window()
        if self.sim.obs is not None:
            # Telemetry opens the same window: span/latency counts must
            # stay consistent with the (reset) counter totals.
            self.sim.obs.reset(self.sim.now)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def reconcile_sparse_counters(self) -> None:
        """Fold lazy sparse-fan-out bookkeeping into the dense counters.

        Two lazy schemes exist (both idempotent, both no-ops on dense
        machines): the network's phantom broadcast deliveries
        (:meth:`Network.reconcile_sparse_accounting`) and the classical
        invalidation line's per-round ``sparse_line_*`` records.  After
        this call every per-cache counter matches what the dense fan-out
        would have produced, so :meth:`results`, fingerprints, and the
        conformance tests may compare sparse and dense machines
        directly.
        """
        reconcile = getattr(self.network, "reconcile_sparse_accounting", None)
        if reconcile is not None:
            reconcile()
        rounds = sum(
            ctrl.counters.get("sparse_line_rounds") for ctrl in self.controllers
        )
        if not rounds:
            return
        for cache in self.caches:
            # A dense signal under the sparse envelope (duplicate
            # directory on, BIAS off) to a cache without the block is
            # one useless snoop.
            cache.fold_sparse_snoops("sparse_line_", rounds, broadcast=False)

    def results(self) -> SimulationResults:
        self.reconcile_sparse_counters()
        caches = self.caches
        n = len(caches)
        refs = sum(c.counters.get("refs") for c in caches)
        # Generator expressions, not lists: at n=1024 materializing
        # per-cache rows just to average them doubles the footprint of
        # this method for no benefit.
        per_cache_extra = sum(
            c.counters.get("broadcast_useless") / max(c.counters.get("refs"), 1)
            for c in caches
        )
        per_cache_cmds = sum(
            c.counters.get("snoop_commands") / max(c.counters.get("refs"), 1)
            for c in caches
        )
        stolen = sum(c.counters.get("stolen_cycles") for c in caches)
        wait = sum(c.counters.get("processor_wait_cycles") for c in caches)
        latency = sum(p.counters.get("latency_cycles") for p in self.processors)
        completed = sum(p.counters.get("refs") for p in self.processors)
        hits = sum(
            c.counters.get("read_hits") + c.counters.get("write_hits")
            for c in caches
        )
        # write_hits_unmodified complete as hits too (MREQUEST path).
        hits += sum(c.counters.get("write_hits_unmodified") for c in caches)
        shared_refs = sum(p.counters.get("shared_refs") for p in self.processors)
        shared_hits = sum(p.counters.get("shared_hits") for p in self.processors)
        net_counters: CounterSet = self.network.counters  # type: ignore[attr-defined]
        traffic = net_counters.get("traffic_units")
        totals = self.registry.merged().snapshot()
        return SimulationResults(
            protocol=self.config.protocol,
            n_processors=self.config.n_processors,
            total_refs=int(refs),
            cycles=self.sim.now,
            extra_commands_per_ref=(per_cache_extra / n) if n else 0.0,
            commands_per_ref=(per_cache_cmds / n) if n else 0.0,
            stolen_cycles_per_ref=stolen / max(refs, 1),
            processor_wait_per_ref=wait / max(refs, 1),
            avg_latency=latency / max(completed, 1),
            miss_ratio=1.0 - hits / max(refs, 1),
            shared_hit_ratio=(
                shared_hits / shared_refs if shared_refs else None
            ),
            traffic_per_ref=traffic / max(refs, 1),
            broadcasts=int(
                sum(
                    ctrl.counters.get("broadinv_sent")
                    + ctrl.counters.get("broadquery_sent")
                    for ctrl in self.controllers
                )
            ),
            invalidations_applied=int(
                sum(c.counters.get("invalidations_applied") for c in caches)
            ),
            writebacks=int(
                sum(
                    ctrl.counters.get("writebacks_absorbed")
                    for ctrl in self.controllers
                )
            ),
            totals=totals,
        )

    # ------------------------------------------------------------------
    # Directory introspection (two-bit machines)
    # ------------------------------------------------------------------
    def state_occupancy(
        self, blocks: Optional[Iterable[int]] = None
    ) -> Dict[GlobalState, float]:
        """Time-weighted global-state occupancy over ``blocks`` (two-bit
        machines only), e.g. the shared pool — yields measured P(P1),
        P(P*), P(PM) for the analytic model."""
        chosen = list(blocks) if blocks is not None else None
        totals = {state: 0.0 for state in GlobalState}
        weight = 0
        for ctrl in self.controllers:
            if not isinstance(ctrl, TwoBitDirectoryController):
                raise TypeError("state_occupancy requires the two-bit protocol")
            ctrl.directory.close_window()
            local = (
                [b for b in chosen if b in ctrl.directory]
                if chosen is not None
                else None
            )
            if local is not None and not local:
                continue
            occ = ctrl.directory.occupancy(local)
            share = len(local) if local is not None else len(ctrl.directory)
            for state, frac in occ.items():
                totals[state] += frac * share
            weight += share
        if weight == 0:
            return {state: 0.0 for state in GlobalState}
        return {state: value / weight for state, value in totals.items()}

    def translation_buffer_stats(self) -> Dict[str, float]:
        """Aggregate §4.4 translation-buffer statistics."""
        hits = misses = selective = 0.0
        for ctrl in self.controllers:
            tbuf = getattr(ctrl, "tbuf", None)
            if tbuf is None:
                continue
            hits += tbuf.hits
            misses += tbuf.misses
            selective += ctrl.counters.get("selective_invalidations")
            selective += ctrl.counters.get("selective_purges")
        total = hits + misses
        return {
            "hits": hits,
            "misses": misses,
            "hit_ratio": hits / total if total else 0.0,
            "selective_commands": selective,
        }
