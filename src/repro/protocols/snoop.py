"""Snooping-bus protocol machinery (§2.5).

Bus schemes distribute the global map over the local caches: every cache
observes every bus transaction and reacts.  :class:`SnoopBusManager`
models the bus transaction as real hardware resolves it — the snoop of
all caches completes *within* the bus tenure (wired-OR response lines),
so snoop reactions are applied synchronously at the transaction's
resolution instant, while bus occupancy, memory latency, and stolen cache
cycles are charged normally.

Concrete protocols (write-once, Illinois) subclass
:class:`SnoopCacheController` and provide the state machine.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.cache.line import CacheLine
from repro.interconnect.bus import Bus
from repro.interconnect.message import DATA_SIZE, MessageKind
from repro.memory.address import AddressMap
from repro.memory.module import MemoryModule
from repro.protocols.base import AbstractCacheController
from repro.sim.component import Component
from repro.sim.kernel import Simulator
from repro.config import MachineConfig
from repro.verification.oracle import CoherenceOracle
from repro.workloads.reference import MemRef


@dataclass
class SnoopReply:
    """One cache's reaction to a snooped transaction."""

    had_copy: bool = False
    #: Version supplied to the requester (None = this cache does not supply).
    supplies: Optional[int] = None
    #: Version this cache flushed to memory during the snoop.
    flushes: Optional[int] = None


@dataclass
class _BusTxn:
    kind: MessageKind
    block: int
    requester: "SnoopCacheController"
    converted: bool = False


def _slots(kind: MessageKind) -> int:
    """Bus occupancy of a transaction (command + any data movement)."""
    if kind in (MessageKind.BUS_READ, MessageKind.BUS_RDX):
        return 1 + DATA_SIZE
    if kind is MessageKind.BUS_WRITE_WORD:
        return 2  # address + one written-through word
    return 1  # BUS_INV


class SnoopBusManager(Component):
    """Serializes bus transactions and resolves snoops synchronously.

    Transactions are *atomic*: the bus tenure is extended until the
    requester has installed the data and updated its state, so the next
    transaction always snoops a consistent system — this is what the
    arbitration and inhibit lines of real buses guarantee.
    """

    #: Non-state fields (see :mod:`repro.verification.state`).
    _not_state = {"config": "configuration"}

    #: Whether several snoopers may offer the block (first one wins);
    #: Illinois allows it (any S copy can supply), write-once must not.
    allow_multiple_suppliers = False

    def __init__(
        self,
        sim: Simulator,
        config: MachineConfig,
        bus: Bus,
        modules: List[MemoryModule],
        amap: AddressMap,
    ) -> None:
        super().__init__(sim, name="snoopbus")
        self.config = config
        self.bus = bus
        self.modules = modules
        self.amap = amap
        self.caches: List["SnoopCacheController"] = []
        self._queue: "deque" = deque()
        self._granted = False

    def module_of(self, block: int) -> MemoryModule:
        return self.modules[self.amap.home(block)]

    # ------------------------------------------------------------------
    # Arbitration: one transaction owns the bus at a time, and it owns it
    # until its data is installed (atomic transactions, see class doc).
    # ------------------------------------------------------------------
    def request(self, kind: MessageKind, block: int, requester) -> None:
        txn = _BusTxn(kind=kind, block=block, requester=requester)
        self.counters.add(f"txn_{kind.name.lower()}")
        self._queue.append(("txn", txn))
        self._pump()

    def writeback(self, block: int, version: int, owner) -> None:
        """Eviction write-back: a data-only bus tenure ending at memory."""
        self.counters.add("writebacks")
        self._queue.append(("wb", (block, version, owner)))
        self._pump()

    def _pump(self) -> None:
        if self._granted or not self._queue:
            return
        self._granted = True
        what, payload = self._queue.popleft()
        if what == "wb":
            block, version, owner = payload
            end = self.bus.acquire(DATA_SIZE)
            self.sim.post_at(end, self._land_writeback, block, version, owner)
        else:
            end = self.bus.acquire(_slots(payload.kind))
            self.sim.post_at(end, self._resolve, payload)

    def _release(self) -> None:
        self._granted = False
        self._pump()

    def _land_writeback(self, block: int, version: int, owner) -> None:
        if owner.writeback_landed(block):
            self.module_of(block).write(block, version)
        else:
            # Superseded by a read-exclusive that consumed the data.
            self.counters.add("writebacks_cancelled")
        self._release()

    def _resolve(self, txn: _BusTxn) -> None:
        # Let the requester re-validate: an upgrade whose line was
        # invalidated while queued must become a full read-exclusive.
        new_kind = txn.requester.recheck(txn.kind, txn.block)
        if new_kind is not txn.kind:
            if txn.converted:
                raise RuntimeError("bus transaction converted twice")
            txn.kind = new_kind
            txn.converted = True
            self.counters.add("conversions")
            end = self.bus.acquire(_slots(new_kind))
            self.sim.post_at(end, self._resolve, txn)
            return
        supplied: Optional[int] = None
        any_copy = False
        for cache in self.caches:
            if cache is txn.requester:
                continue
            reply = cache.snoop(txn.kind, txn.block, txn.requester.pid)
            if reply.had_copy:
                any_copy = True
            if reply.flushes is not None:
                self.module_of(txn.block).write(txn.block, reply.flushes)
                self.counters.add("snoop_flushes")
            if reply.supplies is not None:
                if supplied is None:
                    supplied = reply.supplies
                elif not self.allow_multiple_suppliers:
                    raise RuntimeError(
                        f"two caches supplied block {txn.block} simultaneously"
                    )
        if txn.kind in (MessageKind.BUS_INV, MessageKind.BUS_WRITE_WORD):
            # No data phase; the word write (if any) happens at install.
            self._deliver(txn, None, any_copy)
            return
        if supplied is not None:
            self.counters.add("cache_to_cache_transfers")
            self._deliver(txn, supplied, any_copy)
        else:
            self.counters.add("memory_supplies")
            version = self.module_of(txn.block).read(txn.block)
            done = self.sim.now + self.config.timing.mem_access
            self.bus.hold_until(done)
            self.sim.post_at(done, self._deliver, txn, version, any_copy)

    def _deliver(
        self, txn: _BusTxn, version: Optional[int], any_copy: bool
    ) -> None:
        finish = txn.requester.bus_complete(txn.kind, txn.block, version, any_copy)
        self.bus.hold_until(finish)
        if finish > self.sim.now:
            self.sim.post_at(finish, self._release)
        else:
            self._release()


@dataclass
class _Pending:
    ref: MemRef
    issue_time: int


class SnoopCacheController(AbstractCacheController):
    """Common plumbing for bus-snooping caches."""

    def __init__(
        self,
        sim: Simulator,
        pid: int,
        config: MachineConfig,
        manager: SnoopBusManager,
        oracle: CoherenceOracle,
    ) -> None:
        super().__init__(sim, pid, config, oracle)
        self.manager = manager
        self.pending: Optional[_Pending] = None
        #: Evicted dirty blocks whose write-back has not landed yet;
        #: snoops answer from here to close the eviction race.
        self._wb_pending: Dict[int, int] = {}
        #: Write-backs superseded by an invalidating snoop that consumed
        #: the data; the bus manager skips the memory write for these.
        self._wb_cancelled: set = set()

    # ------------------------------------------------------------------
    # Processor interface
    # ------------------------------------------------------------------
    def _classify(self, ref: MemRef, issue_time: int) -> None:
        # Escape rows only: a resident line here is a write hit that
        # needs the bus (the table step completed every local hit).
        line = self.array.lookup(ref.block)
        if line is not None:
            self.array.touch(line)
            self.counters.add("write_hits")
            self._write_hit(line, ref, issue_time)
            return
        self.counters.add("write_misses" if ref.is_write else "read_misses")
        self._evict_victim(ref.block)
        kind = MessageKind.BUS_RDX if ref.is_write else MessageKind.BUS_READ
        self.pending = _Pending(ref, issue_time)
        self.manager.request(kind, ref.block, self)

    def _evict_victim(self, incoming_block: int) -> None:
        frame = self.array.frame_for(incoming_block)
        if not frame.valid:
            return
        if self._must_write_back(frame):
            assert frame.block is not None
            self.counters.add("ejects_dirty")
            self._wb_pending[frame.block] = frame.version
            self.manager.writeback(frame.block, frame.version, self)
        else:
            self.counters.add("ejects_clean")
        frame.reset()

    def writeback_landed(self, block: int) -> bool:
        """Retire a landed write-back; False if it was superseded."""
        self._wb_pending.pop(block, None)
        if block in self._wb_cancelled:
            self._wb_cancelled.discard(block)
            return False
        return True

    def has_live_writeback(self, block: int) -> bool:
        """A staged, not-superseded write-back for ``block`` exists."""
        return block in self._wb_pending and block not in self._wb_cancelled

    def _supply_from_wb(self, block: int, invalidating: bool) -> Optional[int]:
        """Answer a snoop from the in-flight write-back, if staged.

        A cancelled entry never answers: its data was already handed to a
        new owner and is stale.
        """
        if not self.has_live_writeback(block):
            return None
        if invalidating:
            # Ownership moves to the requester; our write-back must not
            # later clobber memory with the (now stale) data.
            self._wb_cancelled.add(block)
        return self._wb_pending[block]

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------
    def bus_complete(
        self,
        kind: MessageKind,
        block: int,
        version: Optional[int],
        others_had_copy: bool,
    ) -> int:
        """Install data / apply the upgrade; returns the finish time the
        bus manager must hold the tenure until (transaction atomicity)."""
        pending = self.pending
        if pending is None or pending.ref.block != block:
            raise RuntimeError(f"{self.name}: unexpected bus completion")
        self.pending = None
        done = self._use_array(stolen=False)
        self.sim.post_at(done, self._finalize, kind, pending, version, others_had_copy)
        return done

    def _finalize(
        self,
        kind: MessageKind,
        pending: _Pending,
        version: Optional[int],
        others_had_copy: bool,
    ) -> None:
        ref = pending.ref
        if kind is MessageKind.BUS_READ:
            assert version is not None
            line = self.array.fill(ref.block, version, modified=False)
            self._after_read_fill(line, others_had_copy)
            self._finish_read(ref, pending.issue_time, version, hit=False)
            return
        if kind is MessageKind.BUS_RDX:
            assert version is not None
            line = self.array.fill(ref.block, version, modified=False)
            self._perform_write(line, ref, pending.issue_time, hit=False)
            return
        if kind is MessageKind.BUS_INV or kind is MessageKind.BUS_WRITE_WORD:
            line = self.array.lookup(ref.block)
            if line is None:
                raise RuntimeError(
                    f"{self.name}: upgrade completed without a line (recheck "
                    "should have converted it)"
                )
            self._after_upgrade(kind, line, ref, pending.issue_time)
            return
        raise AssertionError(f"unexpected kind {kind}")

    # ------------------------------------------------------------------
    # Protocol hooks
    # ------------------------------------------------------------------
    def _must_write_back(self, line: CacheLine) -> bool:
        """Does evicting ``line`` require a data transfer to memory?"""
        return line.modified

    def _write_hit(self, line: CacheLine, ref: MemRef, issue_time: int) -> None:
        """Start the bus upgrade of a write hit the table escaped."""
        raise NotImplementedError

    def _after_read_fill(self, line: CacheLine, others_had_copy: bool) -> None:
        raise NotImplementedError

    def _after_upgrade(
        self, kind: MessageKind, line: CacheLine, ref: MemRef, issue_time: int
    ) -> None:
        """Finish a write hit's bus upgrade on ``line``."""
        raise NotImplementedError

    def recheck(self, kind: MessageKind, block: int) -> MessageKind:
        """Re-validate a queued transaction at bus-grant time."""
        if kind in (MessageKind.BUS_INV, MessageKind.BUS_WRITE_WORD):
            if self.array.lookup(block) is None:
                # Invalidated while waiting: it is a full write miss now.
                self.counters.add("upgrades_converted")
                return MessageKind.BUS_RDX
        return kind

    def snoop(self, kind: MessageKind, block: int, requester_pid: int) -> SnoopReply:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def quiescent(self) -> bool:
        return self.pending is None and not self._wb_pending
