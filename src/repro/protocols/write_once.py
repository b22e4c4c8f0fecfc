"""Goodman's write-once scheme (§2.5, [4]).

Local states: Invalid, **Valid** (clean, possibly shared), **Reserved**
(written exactly once since loaded; memory was updated by that
write-through, so memory is current and the copy is exclusive), **Dirty**
(written more than once; the only valid copy).

Encoding onto :class:`~repro.cache.line.CacheLine`: ``Valid`` is
``valid & !modified & local==NONE``; ``Reserved`` is ``local==RESERVED``;
``Dirty`` is ``modified``.

Transitions:

* first write to a Valid line writes the word through on the bus
  (invalidating all other copies) and moves to Reserved;
* further writes are local and move to Dirty;
* a snooped read finds a Dirty owner, who supplies the block and flushes
  it to memory, both copies ending Valid; a Reserved owner silently
  downgrades to Valid (memory already current);
* eviction writes back only Dirty blocks.
"""

from __future__ import annotations

from repro.cache.line import CacheLine, LocalState
from repro.interconnect.message import MessageKind
from repro.protocols.snoop import SnoopCacheController, SnoopReply, _Pending
from repro.workloads.reference import MemRef


class WriteOnceCacheController(SnoopCacheController):
    """Cache controller implementing the write-once state machine."""

    # ------------------------------------------------------------------
    # Requester side
    # ------------------------------------------------------------------
    def _write_hit(self, line: CacheLine, ref: MemRef, issue_time: int) -> None:
        # Valid: the write-once write-through (bus word write).  Reserved
        # and Dirty copies are exclusive and write locally: hit rows of
        # the transition table.
        self.counters.add("write_through_words")
        self.pending = _Pending(ref, issue_time)
        self.manager.request(MessageKind.BUS_WRITE_WORD, ref.block, self)

    def _after_read_fill(self, line: CacheLine, others_had_copy: bool) -> None:
        line.local = LocalState.NONE  # Valid

    def _after_upgrade(
        self, kind: MessageKind, line: CacheLine, ref: MemRef, issue_time: int
    ) -> None:
        assert kind is MessageKind.BUS_WRITE_WORD
        # The word went through to memory within the bus tenure: memory is
        # current and all other copies were invalidated -> Reserved.  Not
        # _perform_write: memory takes the version too, the line stays clean.
        version = self.oracle.new_version()
        line.version = version
        line.modified = False
        line.local = LocalState.RESERVED
        self.manager.module_of(ref.block).write(ref.block, version)
        self.oracle.commit_write(ref.block, version, self.sim.now, self.pid)
        self._complete(ref, issue_time, True, version)

    def _must_write_back(self, line: CacheLine) -> bool:
        # Reserved blocks are current in memory; only Dirty writes back.
        return line.modified

    # ------------------------------------------------------------------
    # Snooper side
    # ------------------------------------------------------------------
    def snoop(self, kind: MessageKind, block: int, requester_pid: int) -> SnoopReply:
        line = self.array.lookup(block)
        present = line is not None or self.has_live_writeback(block)
        self.charge_snoop(present)
        if kind is MessageKind.BUS_READ:
            if line is not None and line.modified:
                # Dirty owner supplies and flushes; both become Valid.
                line.modified = False
                line.local = LocalState.NONE
                self.counters.add("dirty_supplies")
                return SnoopReply(
                    had_copy=True, supplies=line.version, flushes=line.version
                )
            if line is not None:
                if line.local is LocalState.RESERVED:
                    line.local = LocalState.NONE  # Reserved -> Valid
                return SnoopReply(had_copy=True)
            wb_version = self._supply_from_wb(block, invalidating=False)
            if wb_version is not None:
                # Eviction write-back in flight: supply from the buffer.
                return SnoopReply(had_copy=True, supplies=wb_version)
            return SnoopReply()
        if kind in (MessageKind.BUS_RDX, MessageKind.BUS_WRITE_WORD):
            reply = SnoopReply(had_copy=present)
            if line is not None:
                if line.modified and kind is MessageKind.BUS_RDX:
                    reply.supplies = line.version
                line.reset()
                self.counters.add("invalidations_applied")
            else:
                wb_version = self._supply_from_wb(block, invalidating=True)
                if wb_version is not None and kind is MessageKind.BUS_RDX:
                    reply.supplies = wb_version
            return reply
        raise AssertionError(f"write-once cannot snoop {kind}")
