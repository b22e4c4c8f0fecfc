"""The classical solution (§2.3): write-through + invalidate-all.

Every store is transmitted to memory and its address is signalled to all
other caches over the cache-invalidation line; receiving caches invalidate
the block if present.  Caches are write-through/no-write-allocate, so
memory is always up to date and replacement never writes back.

Modelling note: the invalidation line of the IBM 370/168-style machines is
synchronous with the store's completion at memory — an asynchronous model
would exhibit windows the real hardware excludes.  We therefore apply the
invalidations by direct calls at the commit instant, while still charging
each signal as a received command and a stolen cache cycle.  An in-flight
read-miss fill crossed by an invalidation is discarded and retried, as the
fill-buffer match logic of those machines does.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.interconnect.holders import SPARSE_INDEX, CopyHolderIndex
from repro.interconnect.message import Message, MessageKind
from repro.interconnect.network import Network
from repro.memory.module import MemoryModule
from repro.protocols.base import AbstractCacheController, AbstractMemoryController
from repro.sim.kernel import Simulator
from repro.config import MachineConfig
from repro.verification.oracle import CoherenceOracle
from repro.workloads.reference import MemRef


@dataclass
class _Pending:
    ref: MemRef
    issue_time: int
    #: "fetch" (read miss) or "store" (write-through in flight).
    phase: str
    #: An invalidation crossed the outstanding fetch; discard and retry.
    stale_fill: bool = False


class ClassicalCacheController(AbstractCacheController):
    """Write-through, no-write-allocate cache with an invalidation line."""

    #: Non-state fields (see :mod:`repro.verification.state`).
    _not_state = {
        "home_fn": "a pure function of the address map",
        "holders": SPARSE_INDEX,
    }

    def __init__(
        self,
        sim: Simulator,
        pid: int,
        config: MachineConfig,
        net: Network,
        home_fn: Callable[[int], str],
        oracle: CoherenceOracle,
    ) -> None:
        super().__init__(sim, pid, config, oracle)
        self.net = net
        self.home_fn = home_fn
        self.pending: Optional[_Pending] = None
        #: §2.3's BIAS memory: recently-invalidated addresses, filtering
        #: repeated invalidation signals without a directory lookup.
        self._bias: "OrderedDict[int, None]" = OrderedDict()
        #: Machine-wide copy-holder index, shared with every cache and
        #: memory controller of the write-through machine (the
        #: invalidation line is global).  Wired by the builder; caches
        #: add themselves on fetch and self-clean on received signals.
        self.holders: Optional[CopyHolderIndex] = None

    # ------------------------------------------------------------------
    # Processor interface (escape rows: read misses and every store)
    # ------------------------------------------------------------------
    def _classify(self, ref: MemRef, issue_time: int) -> None:
        if not ref.is_write:
            self.counters.add("read_misses")
            self.pending = _Pending(ref, issue_time, phase="fetch")
            if self.holders is not None:
                # Join the holder set at *send* time: a store committing
                # while the fetch is in flight must still signal us so
                # the crossing invalidation can poison the fill.
                self.holders.add(ref.block, self.pid)
            self._send(MessageKind.WT_FETCH, ref.block)
            return
        # Stores always go to memory; the write commits *there*, so the
        # version is drawn by the controller at the commit instant — two
        # racing stores must get version numbers in their memory
        # serialization order, not their issue order.
        line = self.array.lookup(ref.block)
        self.counters.add("write_hits" if line is not None else "write_misses")
        self.pending = _Pending(ref, issue_time, phase="store")
        self._send(
            MessageKind.WT_WRITE, ref.block, meta={"hit": line is not None}
        )

    # ------------------------------------------------------------------
    # Network interface
    # ------------------------------------------------------------------
    def deliver(self, message: Message) -> None:
        pending = self.pending
        if message.kind is MessageKind.GET:
            if (
                pending is None
                or pending.phase != "fetch"
                or pending.ref.block != message.block
            ):
                raise RuntimeError(f"{self.name}: unexpected fill {message!r}")
            # Keep the access pending until the fill lands so a crossing
            # invalidation can still poison it (stale_fill).
            done = self._use_array(stolen=False)
            self.sim.post_at(done, self._fill, message, pending)
        elif message.kind is MessageKind.WT_ACK:
            if (
                pending is None
                or pending.phase != "store"
                or pending.ref.block != message.block
            ):
                raise RuntimeError(f"{self.name}: unexpected store ack {message!r}")
            self.pending = None
            line = self.array.lookup(message.block)
            if line is not None:
                # Write-through updates the local copy in place.
                assert message.version is not None
                line.version = message.version
                self.array.touch(line)
            self._complete(pending.ref, pending.issue_time,
                           hit=line is not None, version=message.version or 0)
        else:
            raise ValueError(f"{self.name} cannot handle {message!r}")

    def _bias_remember(self, block: int) -> None:
        """Record an invalidated address in the BIAS memory (LRU)."""
        capacity = self.config.options.bias_filter_entries
        if capacity <= 0:
            return
        self._bias[block] = None
        self._bias.move_to_end(block)
        while len(self._bias) > capacity:
            self._bias.popitem(last=False)

    def _fill(self, message: Message, pending: _Pending) -> None:
        assert message.version is not None
        if pending.stale_fill:
            # Invalidated while in flight: refetch.
            self.counters.add("stale_fills_retried")
            pending.stale_fill = False
            self._send(MessageKind.WT_FETCH, message.block)
            return
        self.pending = None
        self._bias.pop(pending.ref.block, None)  # cached again: unfilter
        self.array.fill(pending.ref.block, version=message.version, modified=False)
        if self.holders is not None:
            self.holders.add(pending.ref.block, self.pid)
        self._finish_read(pending.ref, pending.issue_time, message.version,
                          hit=False)

    # ------------------------------------------------------------------
    # Invalidation line (synchronous, called by the memory controller)
    # ------------------------------------------------------------------
    def apply_invalidation(self, block: int, writer_pid: int) -> None:
        """One signal on the cache-invalidation line."""
        if writer_pid == self.pid:
            return
        pending = self.pending
        if block in self._bias:
            # BIAS hit: the block is known absent — no directory lookup,
            # no stolen cycle.  The fill buffer is still checked (a
            # pending fetch crossed by this signal must be poisoned).
            self._bias.move_to_end(block)
            self.counters.add("snoop_commands")
            self.counters.add("snoops_filtered_by_bias")
            self.counters.add("snoop_useless")
            if (
                pending is not None
                and pending.phase == "fetch"
                and pending.ref.block == block
            ):
                pending.stale_fill = True
            elif self.holders is not None and not self._holder_pinned(block):
                self.holders.discard(block, self.pid)
            return
        line = self.array.lookup(block)
        present = line is not None
        if present:
            line.reset()
            self.counters.add("invalidations_applied")
        if self.holders is not None and (
            present or not self._holder_pinned(block)
        ):
            # Self-cleaning: a destroyed copy leaves the index, and a
            # useless signal scrubs a member gone stale through a silent
            # eviction — unless an in-flight fetch/eject pins it.
            self.holders.discard(block, self.pid)
        self._bias_remember(block)
        if (
            pending is not None
            and pending.phase == "fetch"
            and pending.ref.block == block
        ):
            pending.stale_fill = True
        self.charge_snoop(present)

    def _holder_pinned(self, block: int) -> bool:
        """True while this cache must stay in the holder index for
        ``block`` despite holding no valid line (an in-flight fetch whose
        fill can still be poisoned)."""
        pending = self.pending
        return (
            pending is not None
            and pending.phase == "fetch"
            and pending.ref.block == block
        )

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _send(self, kind: MessageKind, block: int, **fields) -> None:
        fields.setdefault("requester", self.pid)
        self.net.send(
            Message(
                kind=kind,
                src=self.name,
                dst=self.home_fn(block),
                block=block,
                **fields,
            )
        )

    def quiescent(self) -> bool:
        return self.pending is None


class ClassicalMemoryController(AbstractMemoryController):
    """Memory-side agent: always-current memory + invalidation broadcast."""

    #: Non-state fields (see :mod:`repro.verification.state`).
    _not_state = {"holders": SPARSE_INDEX}

    def __init__(
        self,
        sim: Simulator,
        index: int,
        config: MachineConfig,
        net: Network,
        module: MemoryModule,
        oracle: CoherenceOracle,
    ) -> None:
        super().__init__(sim, index, config)
        self.net = net
        self.module = module
        self.oracle = oracle
        #: Populated by the builder with every cache in the system.
        self.caches: List[ClassicalCacheController] = []
        #: Shared copy-holder index (same object as the caches'), wired
        #: by the builder only when ``config.sparse_fanout`` is set:
        #: the invalidation line then signals only its members instead
        #: of every cache.  None on the dense path.
        self.holders: Optional[CopyHolderIndex] = None

    def deliver(self, message: Message) -> None:
        if message.kind is MessageKind.WT_FETCH:
            done = self._use_memory()
            self.sim.post_at(done, self._serve_fetch, message)
        elif message.kind is MessageKind.WT_WRITE:
            done = self._use_memory()
            self.sim.post_at(done, self._commit_store, message)
        else:
            raise ValueError(f"{self.name} cannot handle {message!r}")

    def _serve_fetch(self, message: Message) -> None:
        self.counters.add("fetches_served")
        self.net.send(
            Message(
                kind=MessageKind.GET,
                src=self.name,
                dst=message.src,
                block=message.block,
                version=self.module.read(message.block),
                requester=message.requester,
            )
        )

    def _commit_store(self, message: Message, signal: bool = True) -> None:
        """Commit a write-through store and acknowledge it; ``signal``
        runs the invalidation-line round (the two-bit filter skips the
        rounds its map proves pointless)."""
        assert message.requester is not None
        version = self._commit_at_memory(message.block, message.requester)
        self.counters.add("stores_committed")
        if signal:
            self._signal_invalidations(message.block, message.requester)
        self.net.send(
            Message(
                kind=MessageKind.WT_ACK,
                src=self.name,
                dst=message.src,
                block=message.block,
                version=version,
                requester=message.requester,
            )
        )

    def _signal_invalidations(
        self, block: int, writer_pid: int
    ) -> Optional[List[int]]:
        """Run one invalidation-line round.

        Dense: every other cache sees the store address (each signal is
        one command on the line); returns None.  Sparse: only current
        holder-index members are called and their pids returned — the
        paper's cost model (one ``invalidation_signals`` per other
        cache) is still charged in full, and the skipped caches' snoop
        counters are reconciled lazily from the per-round
        ``sparse_line_*`` bookkeeping (see
        ``Machine.reconcile_sparse_counters``).  The target list is
        snapshotted before signalling: ``apply_invalidation`` mutates
        the index, and subclasses (twobit_wt) re-walk the same list to
        collect eviction-notice revocations.
        """
        caches = self.caches
        if self.holders is not None:
            self.counters.add("sparse_line_rounds")
            targets = [
                p for p in sorted(self.holders.holders(block))
                if p != writer_pid
            ]
            for pid in targets:
                cache = caches[pid]
                cache.apply_invalidation(block, writer_pid)
                cache.counters.add("sparse_line_addressed")
            caches[writer_pid].counters.add("sparse_line_excluded")
            self.counters.add("invalidation_signals", len(caches) - 1)
            self.counters.add(
                "sparse_signals_suppressed", len(caches) - 1 - len(targets)
            )
            return targets
        for cache in caches:
            if cache.pid != writer_pid:
                self.counters.add("invalidation_signals")
                cache.apply_invalidation(block, writer_pid)
        return None

    def quiescent(self) -> bool:
        return True
