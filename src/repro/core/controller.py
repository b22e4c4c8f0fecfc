"""The two-bit directory memory controller — the paper's contribution.

One controller fronts each memory module (Figure 3-1's ``K_j``) and owns
the two-bit map for that module's blocks.  Its §3.2 flows are the rows
of :data:`repro.core.spec.TWO_BIT_SPEC`, run by the shared
:class:`~repro.protocols.directory.DirectoryController`:

* ``REQUEST(k, a, rw)`` — read/write miss service, including the
  ``BROADQUERY`` retrieval of a dirty block from its unknown owner;
* ``MREQUEST(k, a)`` — write-hit-on-unmodified grants, including the
  ``BROADINV`` + queued-MREQUEST-scrub race of §3.2.5;
* ``EJECT(k, a, wb)`` — replacement notices, with the stale write-back
  drop rule for ejects superseded by a query response (DESIGN.md #2);
* both §3.2.5 controller designs, as the shared controller's lanes
  (``serialization="global"`` or ``"block"``).

This module supplies what is two-bit-specific: how a row commits to the
2-bit state, the §4.4 translation buffer (which turns broadcasts into
selective ``INVALIDATE``/``PURGE`` commands on owner-identity hits), the
sparse copy-holder index, and the races a map that cannot name holders
must absorb.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Optional, Set, Tuple

from repro.core.spec import TWO_BIT_SPEC, resolve_rows
from repro.core.states import GlobalState, TwoBitDirectory
from repro.core.translation_buffer import TranslationBuffer
from repro.interconnect.holders import SPARSE_INDEX, CopyHolderIndex
from repro.interconnect.message import Message, MessageKind
from repro.interconnect.network import Network
from repro.memory.address import AddressMap
from repro.memory.module import MemoryModule
from repro.protocols.directory import DirectoryController, _Txn
from repro.sim.kernel import SimClock, Simulator
from repro.config import MachineConfig


class TwoBitDirectoryController(DirectoryController):
    """Home controller implementing the two-bit scheme."""

    #: The §3.2 table this controller resolves against its options.
    table = TWO_BIT_SPEC

    #: Non-state and uid fields (see :mod:`repro.verification.state`).
    _not_state = {
        "holders": SPARSE_INDEX,
        "_sparse": "selects the fan-out path; both paths behave alike",
    }
    _uid_fields = {
        "_revoked_ejects": "revoked eject uids by (cache, block)",
        "_cancelled_mreqs": "cancelled MREQUEST uids by (cache, block)",
        "_scrubbed_mreqs": "(cache, MREQUEST uid) pairs",
    }

    def __init__(
        self,
        sim: Simulator,
        index: int,
        config: MachineConfig,
        net: Network,
        module: MemoryModule,
        n_caches: int,
        holders_fn: Optional[Callable[[int], Set[int]]] = None,
    ) -> None:
        opts = config.options
        super().__init__(
            sim, index, config, net, module, n_caches,
            rows=resolve_rows(self.table, opts),
        )
        self.holders_fn = holders_fn
        self.directory = TwoBitDirectory(
            blocks=AddressMap(config.n_modules, config.n_blocks).blocks_of(index),
            clock=SimClock(sim),
            keep_present1=opts.keep_present1,
        )
        self.directory.observer = self._state_changed
        self.tbuf = TranslationBuffer(
            capacity=opts.translation_buffer_entries,
            forced_hit_ratio=opts.tbuf_forced_hit_ratio,
            seed=config.seed + index,
        )
        #: Simulator-side copy-holder index for this module's blocks
        #: (not protocol state — the two-bit map still only knows
        #: *whether* copies exist).  Maintained and consulted only when
        #: ``config.sparse_fanout`` is set, so the dense path pays
        #: nothing for it; stays empty (and unaudited) otherwise.
        self.holders = CopyHolderIndex()
        self._sparse = bool(config.sparse_fanout)
        #: (cache name, block) ejects superseded by a query response.
        self._superseded: Set[Tuple[str, int]] = set()
        #: (cache name, block) -> eject uid revoked by the cache because
        #: an invalidation crossed the clean-eject notice.
        self._revoked_ejects: Dict[Tuple[str, int], int] = {}
        #: (cache name, block) -> MREQUEST uid withdrawn by MREQ_CANCEL;
        #: checked again at dispatch so a cancel that arrives in the same
        #: cycle as the final INV_ACK (possible under randomized event
        #: tie-breaking) still blocks the phantom grant.
        self._cancelled_mreqs: Dict[Tuple[str, int], int] = {}
        #: (cache name, MREQUEST uid) pairs this controller scrubbed from
        #: the queue during an invalidation round; the sender's
        #: MREQ_CANCEL for them must be absorbed here, not parked as a
        #: dispatch marker that nothing will ever consume.
        self._scrubbed_mreqs: Set[Tuple[str, Optional[int]]] = set()

    def _state_changed(
        self, block: int, old: GlobalState, new: GlobalState
    ) -> None:
        """Directory transition probe (installed as ``directory.observer``)."""
        obs = self.sim.obs
        if obs is not None:
            obs.on_state(self.name, self.sim.now, block, old, new)

    # ==================================================================
    # How a row commits to the two-bit state
    # ==================================================================
    def _situation(self, txn: _Txn) -> GlobalState:
        return self.directory.state(txn.msg.block)

    def _on_fetch(self, txn: _Txn) -> None:
        block = txn.msg.block
        requester = self._requester(txn)
        if txn.row.state is GlobalState.ABSENT:
            # No copy existed: the holder set is now exactly known.
            self.tbuf.establish(block, {requester})
            if self._sparse:
                self.holders.set_only(block, requester)
        else:
            self.tbuf.add_owner(block, requester)
            if self._sparse:
                self.holders.add(block, requester)

    def _commit_data(self, txn: _Txn, answer: Optional[Message]) -> bool:
        self.directory.set_state(txn.msg.block, txn.row.next_state)
        return False

    def _commit_modify(self, txn: _Txn) -> None:
        block = txn.msg.block
        requester = self._requester(txn)
        self.directory.set_state(block, GlobalState.PRESENTM)
        self.tbuf.establish(block, {requester})
        if self._sparse:
            self.holders.set_only(block, requester)

    def _commit_eject(self, txn: _Txn) -> None:
        block = txn.msg.block
        row = txn.row
        if row.next_state is not row.state:
            # The sole copy is gone: Present1 -> Absent (the transition
            # that reduces later broadcasts, §3.2.1 note).
            self._commit_writeback(txn)
        elif row.state is GlobalState.PRESENT_STAR:
            # Stays Present* — the directory cannot know the count.
            requester = self._requester(txn)
            self.tbuf.drop_owner(block, requester)
            if self._sparse:
                self.holders.discard(block, requester)
        # Otherwise a stale notice (copy was invalidated while the EJECT
        # flew).  Holder index untouched: the invalidation round's
        # set_only already removed the ejector; under a fault plan a NAK-
        # reordered refetch could even make it a holder again, so a
        # hygiene discard here would break the superset invariant.

    def _commit_writeback(self, txn: _Txn) -> None:
        block = txn.msg.block
        self.directory.set_state(block, GlobalState.ABSENT)
        self.tbuf.establish(block, set())
        if self._sparse:
            self.holders.clear(block)

    # ==================================================================
    # Rounds: translation buffer, sparse fan-out
    # ==================================================================
    def _invalidation_targets(self, txn: _Txn) -> Optional[Set[int]]:
        return self._selective_targets(txn.msg.block, self._requester(txn))

    def _query_target(self, txn: _Txn) -> Optional[int]:
        targets = self._selective_targets(txn.msg.block, self._requester(txn))
        if targets is not None and len(targets) == 1:
            (owner,) = targets
            return owner
        return None

    def _selective_targets(self, block: int, exclude: int) -> Optional[Set[int]]:
        """Owner pids to address selectively, or None to broadcast."""
        if not self.tbuf.enabled:
            return None
        if self.tbuf.forced_hit_ratio is not None:
            if self.tbuf.forced_hit():
                if self.holders_fn is None:
                    raise RuntimeError(
                        "tbuf_forced_hit_ratio requires a holders_fn oracle"
                    )
                return {p for p in self.holders_fn(block) if p != exclude}
            return None
        owners = self.tbuf.lookup(block)
        if owners is None:
            return None
        return {p for p in owners if p != exclude}

    def _sparse_targets(self, block: int, requester: int) -> Optional[Set[str]]:
        """Endpoint names to actually deliver a broadcast to, or None.

        None selects the dense fan-out (the behavioural reference);
        otherwise the current copy-holder superset minus the requester.
        Computed *before* any index mutation for the round.
        """
        if not self._sparse:
            return None
        return {
            self._cache_name(p)
            for p in self.holders.holders(block)
            if p != requester
        }

    def _on_invalidations_sent(self, txn: _Txn) -> None:
        # Every other copy is now doomed; collapsing the index at send
        # time (like the tbuf) keeps a second round in the delivery
        # window correct, because same-path FIFO delivers this round's
        # invalidations first.
        if self._sparse:
            self.holders.set_only(txn.msg.block, self._requester(txn))

    def _invalidations_landed(self, txn: _Txn) -> bool:
        block = txn.msg.block
        if txn.cancelled:
            # The requester withdrew mid-round; granting now would
            # fabricate an owner that holds no copy.  The round's
            # invalidations stand, so force the buffer back to
            # "don't know" rather than asserting a phantom owner set.
            self.tbuf.invalidate(block)
            self.counters.add("mrequests_cancelled_mid_round")
            self._finish(txn)
            return True
        self.tbuf.establish(block, {self._requester(txn)})
        return False

    def _on_query_answered(self, txn: _Txn, put: Message) -> None:
        block = txn.msg.block
        if put.meta.get("from_wb"):
            # The owner's own EJECT for this block is now stale.
            self._superseded.add((put.src, block))
        owners = self._holders_after_query(txn, put)
        self.tbuf.establish(block, owners)
        if self._sparse:
            self.holders.replace(block, owners)
        self.counters.add("query_writebacks")

    def _on_stray_nocopy(self, message: Message) -> None:
        self.counters.add("query_nocopy")

    def _memory_current(self, txn: _Txn, message: Message) -> bool:
        # Two-bit queries are only broadcast when the state is PresentM,
        # so data always arrives; NOCOPY answers occur only for the
        # selective PURGE path racing an eject that we already absorbed.
        self.counters.add("query_nocopy")
        if message.meta.get("had_clean"):
            # Owner held a clean copy (paper-literal read-query mode can
            # produce this); memory is current — serve from memory.
            if self._sparse:
                self.holders.add(message.block, self._requester(txn))
            return True
        if txn.selective:
            # A selective PURGE found nothing (stale buffer entry after a
            # race): fall back to the unmodified scheme's broadcast.
            txn.selective = False
            self.counters.add("purge_fallback_broadcasts")
            self.tbuf.invalidate(message.block)
            self._send_query(txn, None)
        return False

    def copy_holders(self, block: int) -> FrozenSet[int]:
        """Superset of pids currently holding a valid copy of ``block``."""
        return self.holders.holders(block)

    # ==================================================================
    # Races of a map that cannot name the holders
    # ==================================================================
    def _on_begin(self, message: Message) -> None:
        key = (message.src, message.block)
        if message.kind is not MessageKind.MREQUEST:
            # A cancel marker that survived to see a *different* command
            # from the same cache is stale: the cancelled MREQUEST is
            # long gone and this is (at latest) the sender's conversion
            # REQUEST, which FIFO guarantees follows the cancel.
            if self._cancelled_mreqs.pop(key, None) is not None:
                self.counters.add("stale_cancel_markers_dropped")
        if message.kind is not MessageKind.EJECT and self.net.faults is None:
            # Same sweep for revoke markers a late EJECT_REVOKE parked
            # after its eject was already processed.  Under a fault plan
            # the sweep must NOT run: a NAKed eject keeps retrying, so
            # its revoke marker may legitimately outlive intervening
            # commands from the same cache (e.g. a re-fetch REQUEST) —
            # the retried EJECT itself consumes the marker.
            if self._revoked_ejects.pop(key, None) is not None:
                self.counters.add("stale_revoke_markers_dropped")

    def _preempted(self, txn: _Txn, event: str) -> bool:
        msg = txn.msg
        key = (msg.src, msg.block)
        if event == "mrequest":
            marker = self._cancelled_mreqs.pop(key, None)
            if txn.cancelled or (
                marker is not None and marker == msg.meta.get("txn")
            ):
                # Withdrawn in flight: the sender already converted to a
                # write miss and holds no copy; granting would fabricate
                # an owner.  No reply — the sender expects none.
                self.counters.add("mrequests_cancelled_at_dispatch")
                self._finish(txn)
                return True
        elif event == "eject_clean":
            marker = self._revoked_ejects.pop(key, None)
            if marker is not None and marker == msg.meta.get("ej"):
                # The ejector's copy was invalidated while this notice
                # flew; acting on it would destroy the new holder's
                # Present1 state (or corrupt the translation buffer).
                self.counters.add("eject_dropped_revoked")
                self._ack_eject(txn)
                return True
        elif event == "eject_dirty" and key in self._superseded:
            # The write-back was consumed out of band (query answer from
            # the ejector's buffer, or a self-REQUEST absorbing a NAKed
            # eject's parked put): there is no data to wait for.
            self._superseded.discard(key)
            self._eject_data.pop(key, None)
            self.counters.add("eject_dropped_superseded")
            self._ack_eject(txn)
            return True
        return False

    def _absorbed_own_writeback(self, txn: _Txn) -> bool:
        """True if the requester itself is the dirty owner (NAKed EJECT).

        Only reachable under a fault plan: the requester's EJECT notice
        was NAKed while this later REQUEST was admitted, inverting the
        per-path command order.  Its write-back put — sent *before* the
        REQUEST, so already delivered — sits parked in ``_eject_data``;
        querying instead would hang, since the broadcast excludes the
        requester and no other cache holds the block.  Absorb the
        write-back, arrange for the still-retrying notice to be dropped
        when it finally lands, and re-dispatch against current memory.
        """
        key = (txn.msg.src, txn.msg.block)
        if key in self._superseded:
            # The parked data was already outrun by a query answer: the
            # dirty copy moved on to another cache, so the real owner
            # must be queried normally.
            return False
        version = self._eject_data.pop(key, None)
        if version is None:
            return False
        self.counters.add("self_requests_absorbed_eject")
        self._superseded.add(key)
        done = self._use_memory()
        self.sim.post_at(done, self._absorb_and_redispatch, txn, version)
        return True

    def _absorb_and_redispatch(self, txn: _Txn, version: int) -> None:
        self.module.write(txn.msg.block, version)
        self._commit_writeback(txn)
        self.counters.add("writebacks_absorbed")
        self._dispatch(txn)

    def _on_scrubbed(self, removed) -> None:
        for m in removed:
            # Each scrubbed sender is about to be invalidated, convert,
            # and send MREQ_CANCEL for this uid; record it so that
            # cancel is absorbed instead of parked.
            self._scrubbed_mreqs.add((m.src, m.meta.get("txn")))

    def _cancel_unqueued(self, message: Message) -> None:
        uid = message.meta.get("txn")
        scrub_key = (message.src, uid)
        if scrub_key in self._scrubbed_mreqs:
            # This controller already deleted the MREQUEST itself when it
            # launched an invalidation round; the cancel is confirmation,
            # not work.
            self._scrubbed_mreqs.discard(scrub_key)
            self.counters.add("mreq_cancels_for_scrubbed")
            return
        active = self._txns.get(message.block)
        if (
            active is not None
            and active.msg.kind is MessageKind.MREQUEST
            and active.msg.src == message.src
            and active.msg.meta.get("txn") == uid
        ):
            # Late race: the MREQUEST left the queue and is the active
            # transaction (possibly mid-invalidation-round).  Flag it so
            # dispatch / round completion retire it without granting.
            active.cancelled = True
            self.counters.add("mrequests_cancelled_active")
            return
        # The MREQUEST transaction already finished (it was denied before
        # the cancel landed) or was never admitted (NAKed under a fault
        # plan): leave a marker; the sender's conversion REQUEST — which
        # follows the cancel on the same FIFO path — sweeps it in _on_begin.
        self._cancelled_mreqs[(message.src, message.block)] = uid

    def _on_eject_revoke(self, message: Message) -> None:
        if not self._fault_dedupe(message, "ej"):
            return
        self._revoked_ejects[(message.src, message.block)] = message.meta["ej"]

    def quiescent(self) -> bool:
        # _revoked_ejects is deliberately absent: a revoke that raced an
        # already-processed eject legitimately parks a marker that only a
        # later command from the same (cache, block) sweeps (see
        # _on_begin); it is bounded by (caches x blocks) and value-inert.
        return (
            super().quiescent()
            and not self._superseded
            and not self._cancelled_mreqs
            and not self._scrubbed_mreqs
        )
