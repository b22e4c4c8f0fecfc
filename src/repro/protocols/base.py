"""Shared protocol interfaces.

Every protocol family exposes the same processor-facing cache
controller, so the system harness and the benchmarks are
protocol-agnostic.  A reference completes in one place,
:meth:`AbstractCacheController._complete` (or the table step for a hit):
it retires straight to the cache's
:class:`~repro.processors.processor.Processor`, or, when a harness issued
it through :meth:`AbstractCacheController.access`, reaches that caller
as an :class:`AccessResult`.  Each side's linearization point is written
once here too: :meth:`AbstractCacheController._finish_read` for reads,
:meth:`AbstractCacheController._perform_write` for stores a cache
performs, :meth:`AbstractMemoryController._commit_at_memory` for stores
memory performs.
"""

from __future__ import annotations

from abc import abstractmethod
from typing import TYPE_CHECKING, Callable, Dict, Optional

from repro.cache.array import CacheArray
from repro.cache.line import CacheLine, LocalState
from repro.cache.replacement import LRUPolicy, make_policy
from repro.sim.component import Component
from repro.sim.kernel import Simulator
from repro.config import MachineConfig
from repro.workloads.reference import MemRef

if TYPE_CHECKING:
    from repro.verification.oracle import CoherenceOracle


class ProtocolError(RuntimeError):
    """The protocol's recovery bounds were exhausted (retry give-up)."""


class AccessResult:
    """Outcome of one processor memory reference.

    A slotted plain class: one is allocated per simulated reference, so
    construction cost matters.

    Attributes:
        ref: the reference that completed.
        hit: whether it hit in the cache.
        issue_time: cycle the processor issued it.
        complete_time: cycle it completed.
        version: version returned (reads) or committed (writes).
    """

    __slots__ = ("ref", "hit", "issue_time", "complete_time", "version")

    def __init__(
        self,
        ref: MemRef,
        hit: bool,
        issue_time: int,
        complete_time: int,
        version: int,
    ) -> None:
        self.ref = ref
        self.hit = hit
        self.issue_time = issue_time
        self.complete_time = complete_time
        self.version = version

    @property
    def latency(self) -> int:
        return self.complete_time - self.issue_time

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        outcome = "hit" if self.hit else "miss"
        return (
            f"AccessResult({self.ref}, {outcome}, "
            f"t={self.issue_time}->{self.complete_time}, v{self.version})"
        )


AccessCallback = Callable[[AccessResult], None]


class AbstractCacheController(Component):
    """Processor-facing cache controller.

    One outstanding processor reference at a time (the paper's processors
    block on misses).  This base owns the processor side every protocol
    shares: the cache array, the array-occupancy model that realizes
    "stolen cycles" (the array is a serial resource shared by processor
    references and coherence commands arriving from the network), and
    the table-driven hit step :meth:`_step`.

    The step decides each reference from the protocol's ``(line state,
    command)`` transition table (:mod:`repro.protocols.compiled`): a hit
    row completes it on the spot, an escape row hands it to the
    subclass's :meth:`_classify` — misses, upgrades, write-through
    stores and shared-tagged references.  Subclasses implement only
    those escape rows and the network side, and finish each escaped
    reference through :meth:`_complete`.
    """

    #: Non-state fields (see :mod:`repro.verification.state`).
    _not_state = {"config": "configuration", "_pend": "batched statistics"}

    def __init__(
        self,
        sim: Simulator,
        pid: int,
        config: MachineConfig,
        oracle: CoherenceOracle,
    ) -> None:
        # Imported here: the tables module reaches the protocol registry,
        # whose imports lead back into this package.
        from repro.protocols.compiled import compile_protocol

        super().__init__(sim, name=f"cache{pid}")
        self.pid = pid
        self.config = config
        self.oracle = oracle
        self.array = CacheArray(
            n_sets=config.cache_sets,
            associativity=config.cache_assoc,
            policy=make_policy(config.replacement, seed=config.seed + pid),
        )
        self._array_free_at = 0
        self._cache_cycle = config.timing.cache_cycle
        kernel = compile_protocol(config.protocol)
        #: Directory caches mark the span's ``lookup`` phase.
        self._lookup_phase = kernel.family == "directory"
        self._pre_shared_escape = kernel.pre_shared_escape
        self._r_clean = kernel.r_clean
        self._r_dirty = kernel.r_dirty
        self._w_clean = kernel.w_clean
        self._w_dirty = kernel.w_dirty
        # Exact inline touch is valid only for plain LRU; other policies
        # go through the array's touch.
        self._lru_touch = type(self.array.policy) is LRUPolicy
        #: Batched counter increments of the issue and hit paths, moved
        #: into :attr:`counters` by :meth:`flush_counters`.
        self._pend: Dict[str, int] = dict.fromkeys(kernel.counter_names, 0)
        #: The processor issuing into this cache, if any (set by
        #: :class:`~repro.processors.processor.Processor`).
        self.processor = None
        #: The :meth:`access` caller awaiting the outstanding reference;
        #: None while the reference is the processor's (or none is out).
        self._callback: Optional[AccessCallback] = None

    # ------------------------------------------------------------------
    # Processor interface
    # ------------------------------------------------------------------
    def access(self, ref: MemRef, callback: AccessCallback) -> None:
        """Service ``ref``; invoke ``callback`` with an
        :class:`AccessResult` when it completes.

        The harness's issue path.  The processor's issue loop inlines
        this issue half (batching its counters), schedules the same
        :meth:`_step` and leaves :attr:`_callback` empty, so its
        references retire through :meth:`Processor._retire` instead.
        The slot and the subclass's ``pending`` record refuse a second
        outstanding reference.
        """
        if self._callback is not None or self.pending is not None:
            raise RuntimeError(f"{self.name} already has an outstanding reference")
        if ref.pid != self.pid:
            raise ValueError(f"{self.name} got a reference for P{ref.pid}")
        self._callback = callback
        issue_time = self.sim.now
        self.counters.add("refs")
        self.counters.add("writes" if ref.is_write else "reads")
        done = self._use_array(stolen=False)
        self.sim.post_at(done, self._step, ref, issue_time)

    def _step(self, ref: MemRef, issue_time: int) -> None:
        """The table-driven hit step: one event per reference, one cache
        cycle after issue.

        The fast-vs-escape decision is made before the line is touched:
        an escape re-runs the lookup in :meth:`_classify`, and an early
        touch would tick the replacement clock twice.
        """
        sim = self.sim
        obs = sim.obs
        if obs is not None and self._lookup_phase:
            obs.span_phase(ref.pid, sim.now, "lookup")
        if self._pre_shared_escape and ref.shared:
            self._classify(ref, issue_time)
            return
        array = self.array
        block = ref.block
        line = array._index.get(block)
        if line is None or not line.valid or line.block != block:
            line = array.lookup(block)
            if line is None:
                self._classify(ref, issue_time)
                return
        if ref.is_write:
            micro = (self._w_dirty if line.modified else self._w_clean).get(
                line.local
            )
            if micro is None:
                self._classify(ref, issue_time)
                return
        elif line.modified:
            if not self._r_dirty:
                self._classify(ref, issue_time)
                return
        elif line.local not in self._r_clean:
            self._classify(ref, issue_time)
            return
        if self._lru_touch:
            clock = array._clock + 1
            array._clock = clock
            line.last_use = clock
        else:
            array.touch(line)
        pend = self._pend
        now = sim.now
        if ref.is_write:
            hit_counter, extras, clears_local, outcome = micro
            pend[hit_counter] += 1
            for name in extras:
                pend[name] += 1
            if clears_local:
                line.local = LocalState.NONE
            if outcome is not None and obs is not None:
                obs.span_outcome(ref.pid, outcome)
            oracle = self.oracle
            version = oracle.new_version()
            line.version = version
            line.modified = True
            oracle.commit_write(block, version, now, self.pid)
        else:
            pend["read_hits"] += 1
            version = line.version
            self.oracle.check_read(block, version, issue_time, self.pid)
        latency = now - issue_time
        pend["latency_cycles"] += latency
        callback = self._callback
        if callback is None:
            self.processor._retire(ref, latency, True)
            return
        self._callback = None
        self.flush_counters()
        callback(AccessResult(ref, True, issue_time, now, version))

    @abstractmethod
    def _classify(self, ref: MemRef, issue_time: int) -> None:
        """Run the protocol for a reference the table escaped."""

    def _complete(
        self, ref: MemRef, issue_time: int, hit: bool, version: int
    ) -> None:
        """Finish an escaped reference: retire it to the processor, or
        report it to the :meth:`access` caller."""
        now = self.sim.now
        latency = now - issue_time
        self.counters.add("latency_cycles", latency)
        callback = self._callback
        if callback is None:
            self.processor._retire(ref, latency, hit)
            return
        self._callback = None
        callback(AccessResult(ref, hit, issue_time, now, version))

    def _finish_read(
        self, ref: MemRef, issue_time: int, version: int, hit: bool
    ) -> None:
        """Linearization point of a read: the oracle checks ``version``."""
        self.oracle.check_read(ref.block, version, issue_time, self.pid)
        self._complete(ref, issue_time, hit, version)

    def _perform_write(
        self, line: CacheLine, ref: MemRef, issue_time: int, hit: bool
    ) -> None:
        """Linearization point of a store: the line takes a new version."""
        version = self.oracle.new_version()
        line.version = version
        line.modified = True
        self.oracle.commit_write(ref.block, version, self.sim.now, self.pid)
        self._complete(ref, issue_time, hit, version)

    def flush_counters(self) -> None:
        """Move the batched counter increments into :attr:`counters`."""
        pend = self._pend
        add = self.counters.add
        for name, value in pend.items():
            if value:
                add(name, value)
                pend[name] = 0

    # ------------------------------------------------------------------
    # Array occupancy
    # ------------------------------------------------------------------
    def charge_snoop(
        self, present: bool, broadcast: bool = False, count: int = 1
    ) -> None:
        """Charge ``count`` received coherence commands.

        A command that finds the block steals an array cycle.  One that
        does not is a useless snoop (from a broadcast, the paper's extra
        command), which steals a cycle too unless §4.4's duplicate
        directory filters it.  The sparse fan-out folds charge a batch of
        useless snoops at once; the sparse envelope requires the
        duplicate directory, so a batch never owes an array cycle.  Runs
        for most copies of every broadcast, so it bumps the counter dict
        directly rather than calling ``CounterSet.add`` per name.
        """
        values = self.counters._values
        values["snoop_commands"] += count
        if present:
            values["snoop_useful"] += count
        else:
            values["snoop_useless"] += count
            if broadcast:
                values["broadcast_useless"] += count
            if self.config.options.duplicate_directory:
                values["snoops_filtered_by_dup_directory"] += count
                return
        self._use_array(stolen=True)

    def fold_sparse_snoops(
        self, prefix: str, rounds: int, broadcast: bool
    ) -> None:
        """Charge one useless snoop per sparse round that skipped us.

        ``<prefix>addressed`` and ``<prefix>excluded`` count the rounds
        that reached or excluded this cache; ``<prefix>folded`` counts
        what earlier folds charged, so the fold is idempotent.
        """
        cc = self.counters
        delta = (
            rounds
            - cc.get(prefix + "addressed")
            - cc.get(prefix + "excluded")
            - cc.get(prefix + "folded")
        )
        if delta > 0:
            self.charge_snoop(False, broadcast=broadcast, count=delta)
            cc.add(prefix + "folded", delta)

    def _use_array(self, stolen: bool) -> int:
        """Reserve one cache cycle on the array; return completion time.

        ``stolen`` marks uses by network commands rather than the local
        processor; the wait a processor reference suffers behind stolen
        cycles is recorded as ``processor_wait_cycles``.
        """
        cycle = self._cache_cycle
        now = self.sim.now
        start = self._array_free_at
        if start < now:
            start = now
        if not stolen:
            wait = start - now
            if wait:
                self.counters.add("processor_wait_cycles", wait)
        else:
            self.counters._values["stolen_cycles"] += cycle
        self._array_free_at = start + cycle
        return self._array_free_at

    # ------------------------------------------------------------------
    # Introspection for audits
    # ------------------------------------------------------------------
    def holds(self, block: int) -> Optional[CacheLine]:
        """The valid line holding ``block``, or None."""
        return self.array.lookup(block)


class AbstractMemoryController(Component):
    """Home-side controller fronting one memory module."""

    #: Non-state fields (see :mod:`repro.verification.state`).
    _not_state = {"config": "configuration"}

    def __init__(self, sim: Simulator, index: int, config: MachineConfig) -> None:
        super().__init__(sim, name=f"ctrl{index}")
        self.index = index
        self.config = config
        self._mem_free_at = 0

    def _use_memory(self) -> int:
        """Reserve one memory access slot; return completion time."""
        access = self.config.timing.mem_access
        start = max(self.sim.now, self._mem_free_at)
        self._mem_free_at = start + access
        self.counters.add("memory_busy_cycles", access)
        return self._mem_free_at

    def _commit_at_memory(self, block: int, requester: int) -> int:
        """Linearization point of a store memory performs (write-through
        and uncached stores): memory takes a new version, returned for
        the acknowledgement.  Needs the subclass's ``module`` and
        ``oracle``."""
        version = self.oracle.new_version()
        self.module.write(block, version)
        self.oracle.commit_write(block, version, self.sim.now, requester)
        return version

    @abstractmethod
    def quiescent(self) -> bool:
        """True when no transaction is active or queued here."""
