"""Illinois / MESI scheme (Papamarcos & Patel, §2.5 [5]).

Local states map onto :class:`~repro.cache.line.CacheLine` as: **M** is
``modified``; **E** is ``local==EXCLUSIVE`` (clean, only copy); **S** is
``local==SHARED``; **I** is invalid.

Distinctives relative to write-once:

* a read miss filled from memory with no other holders enters **E**, so a
  later write upgrades silently (no bus transaction);
* cache-to-cache transfer: on a bus read or read-exclusive, a holding
  cache supplies the block instead of memory (priority M > E > S; when
  several S copies offer, the bus priority-selects the first);
* a write hit in S issues an invalidation-only transaction (BUS_INV).
"""

from __future__ import annotations

from repro.cache.line import CacheLine, LocalState
from repro.interconnect.message import MessageKind
from repro.protocols.snoop import (
    SnoopBusManager,
    SnoopCacheController,
    SnoopReply,
    _Pending,
)
from repro.workloads.reference import MemRef


class IllinoisBusManager(SnoopBusManager):
    """Bus manager tolerating multiple S-copy suppliers (first wins)."""

    allow_multiple_suppliers = True


class IllinoisCacheController(SnoopCacheController):
    """Cache controller implementing MESI with cache-to-cache supply."""

    # ------------------------------------------------------------------
    # Requester side
    # ------------------------------------------------------------------
    def _write_hit(self, line: CacheLine, ref: MemRef, issue_time: int) -> None:
        # S -> M: invalidate the other sharers first.  M and E (the
        # silent upgrade) write locally: hit rows of the transition table.
        self.counters.add("upgrade_invalidations")
        self.pending = _Pending(ref, issue_time)
        self.manager.request(MessageKind.BUS_INV, ref.block, self)

    def _after_read_fill(self, line: CacheLine, others_had_copy: bool) -> None:
        line.local = LocalState.SHARED if others_had_copy else LocalState.EXCLUSIVE
        if not others_had_copy:
            self.counters.add("exclusive_fills")

    def _after_upgrade(
        self, kind: MessageKind, line: CacheLine, ref: MemRef, issue_time: int
    ) -> None:
        assert kind is MessageKind.BUS_INV
        line.local = LocalState.NONE  # S -> M
        self._perform_write(line, ref, issue_time, hit=True)

    # ------------------------------------------------------------------
    # Snooper side
    # ------------------------------------------------------------------
    def snoop(self, kind: MessageKind, block: int, requester_pid: int) -> SnoopReply:
        line = self.array.lookup(block)
        present = line is not None or self.has_live_writeback(block)
        self.charge_snoop(present)
        if kind is MessageKind.BUS_READ:
            if line is not None:
                # Cache-to-cache supply; M flushes to memory and degrades.
                reply = SnoopReply(had_copy=True, supplies=line.version)
                if line.modified:
                    reply.flushes = line.version
                    line.modified = False
                    self.counters.add("dirty_supplies")
                line.local = LocalState.SHARED
                return reply
            wb_version = self._supply_from_wb(block, invalidating=False)
            if wb_version is not None:
                return SnoopReply(had_copy=True, supplies=wb_version)
            return SnoopReply()
        if kind is MessageKind.BUS_RDX:
            if line is not None:
                reply = SnoopReply(had_copy=True, supplies=line.version)
                if line.modified:
                    self.counters.add("dirty_supplies")
                line.reset()
                self.counters.add("invalidations_applied")
                return reply
            wb_version = self._supply_from_wb(block, invalidating=True)
            if wb_version is not None:
                return SnoopReply(had_copy=True, supplies=wb_version)
            return SnoopReply()
        if kind is MessageKind.BUS_INV:
            if line is not None:
                line.reset()
                self.counters.add("invalidations_applied")
                return SnoopReply(had_copy=True)
            # No line, but an in-flight write-back must not resurface.
            self._supply_from_wb(block, invalidating=True)
            return SnoopReply()
        raise AssertionError(f"illinois cannot snoop {kind}")