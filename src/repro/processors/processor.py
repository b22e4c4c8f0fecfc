"""In-order processor model.

A processor pulls references from its workload stream and blocks on each
one until the cache completes it (the paper's processors stall on misses;
hits complete in a cache cycle).  Reference budgets support warm-up /
measurement windows: the harness raises the budget and calls
:meth:`resume` to continue a drained processor.

Each reference costs two events: the issue (:meth:`Processor._issue_next`)
and the cache's table-driven hit step one cache cycle later
(:meth:`~repro.protocols.base.AbstractCacheController._step`).  Every
reference retires through :meth:`Processor._retire`: a hit inside the
step, an escaped one (miss, upgrade, ...) from the cache's
:meth:`~repro.protocols.base.AbstractCacheController._complete` when the
protocol finishes it.  No :class:`~repro.protocols.base.AccessResult` is
built for the processor's references.  Per-reference counters are
batched in plain ints and flushed when the processor drains.  The
latency distribution is the observability hub's
(:attr:`repro.obs.Observability.latency`), recorded only when one is
attached.
"""

from __future__ import annotations

from heapq import heappush
from typing import Sequence

from repro.protocols.base import AbstractCacheController
from repro.sim.component import Component
from repro.sim.kernel import Simulator
from repro.workloads.reference import MemRef
from repro.workloads.synthetic import ReplayableStream


class Processor(Component):
    """Drives one cache with one reference stream."""

    #: Non-state fields (see :mod:`repro.verification.state`).
    _not_state = {
        "stream": "its position is captured by issued",
        "exhausted": "reporting only; the stream position decides it",
        "_acc": "batched statistics",
        "_ref_issue_cycle": "the oracle's pruning horizon: memory, not verdicts",
    }

    def __init__(
        self,
        sim: Simulator,
        pid: int,
        cache: AbstractCacheController,
        stream: ReplayableStream,
        budget: int = 0,
    ) -> None:
        super().__init__(sim, name=f"P{pid}")
        self.pid = pid
        self.cache = cache
        cache.processor = self
        self.stream = stream
        self.budget = budget
        self.issued = 0
        self.completed = 0
        self.exhausted = False  # stream ran out
        self._waiting = False  # an access is outstanding
        #: Issue cycle of the outstanding access (see in_flight_horizon).
        self._ref_issue_cycle = 0
        self._running = False
        # Per-reference stats accumulate in plain ints (a dict-counter
        # update per stat per reference is measurable at this call rate)
        # and flush to the CounterSet when the processor drains.
        self._acc = [0, 0, 0, 0, 0, 0, 0]

    # ------------------------------------------------------------------
    # Control
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin issuing references (idempotent)."""
        if self._running or self._waiting:
            return
        self._running = True
        self.sim.post(0, self._issue_next)

    def resume(self) -> None:
        """Continue after the budget was raised."""
        self.start()

    @property
    def drained(self) -> bool:
        """True when the processor has stopped issuing."""
        return not self._running and not self._waiting

    # ------------------------------------------------------------------
    # Issue loop
    # ------------------------------------------------------------------
    def _issue_next(self) -> None:
        """Issue the next reference: the inlined issue half of
        :meth:`AbstractCacheController.access`, with batched counters."""
        if self.completed >= self.budget:
            self._stop()
            return
        stream = self.stream
        try:
            it = stream._it
            if it is None:
                it = stream._restore()
            ref = next(it)
            stream.position += 1
        except StopIteration:
            self.exhausted = True
            self._stop()
            return
        self.issued += 1
        sim = self.sim
        now = sim.now
        obs = sim.obs
        if obs is not None:
            obs.span_begin(self.pid, now, ref)
        self._waiting = True
        self._ref_issue_cycle = now
        cache = self.cache
        pend = cache._pend
        pend["refs"] += 1
        if ref.is_write:
            pend["writes"] += 1
        else:
            pend["reads"] += 1
        # Inline _use_array(stolen=False).
        start = cache._array_free_at
        if start < now:
            start = now
        else:
            wait = start - now
            if wait:
                pend["processor_wait_cycles"] += wait
        done = start + cache._cache_cycle
        cache._array_free_at = done
        # Inline post_at(done, ...).
        rng = sim._tie_rng
        seq = sim._seq
        sim._seq = seq + 1
        heappush(
            sim._queue,
            (done, 0.0 if rng is None else rng.random(), seq,
             cache._step, (ref, now)),
        )

    def _retire(self, ref: MemRef, latency: int, hit: bool) -> None:
        """Account one completed reference and schedule the next issue."""
        sim = self.sim
        obs = sim.obs
        if obs is not None:
            obs.span_end(self.pid, sim.now, hit)
        self._waiting = False
        self.completed += 1
        acc = self._acc
        acc[0] += 1
        acc[1] += latency
        if hit:
            acc[2] += 1
        if ref.is_write:
            acc[3] += 1
        if ref.shared:
            acc[4] += 1
            if ref.is_write:
                acc[5] += 1
            if hit:
                acc[6] += 1
        if self._running:
            # Inline post(0, ...).
            rng = sim._tie_rng
            seq = sim._seq
            sim._seq = seq + 1
            heappush(
                sim._queue,
                (sim.now, 0.0 if rng is None else rng.random(), seq,
                 self._issue_next, ()),
            )

    def _flush_counters(self) -> None:
        """Move the batched stats into the CounterSets."""
        acc = self._acc
        add = self.counters.add
        for name, value in zip(
            (
                "refs",
                "latency_cycles",
                "hits",
                "writes",
                "shared_refs",
                "shared_writes",
                "shared_hits",
            ),
            acc,
        ):
            if value:
                add(name, value)
        self._acc = [0, 0, 0, 0, 0, 0, 0]
        self.cache.flush_counters()

    def _stop(self) -> None:
        self._running = False
        self._flush_counters()


def in_flight_horizon(sim: Simulator, processors: Sequence[Processor]) -> int:
    """Oldest issue cycle among the processors' outstanding references,
    or ``sim.now`` when none is outstanding.

    Each processor blocks on one reference, so no read completing from
    now on was issued earlier: the coherence oracle's pruning horizon.
    """
    horizon = sim.now
    for proc in processors:
        if proc._waiting and proc._ref_issue_cycle < horizon:
            horizon = proc._ref_issue_cycle
    return horizon
