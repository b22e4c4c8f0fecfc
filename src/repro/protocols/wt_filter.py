"""Two-bit directory over write-through caches ("twobit_wt").

§2.4 opens by noting the directory schemes "can be implemented for both
write-through and write-back" and frames directories as *filters*:
"only those caches with copies of a block being written into need to
receive invalidation signals".  This module is that variant: the caches
are the classical scheme's (write-through, no-write-allocate, an
invalidation line), but each memory module keeps the two-bit map and
uses it to *suppress* invalidation rounds that cannot matter:

* state ``Absent`` — nobody holds the block: no signals at all;
* state ``Present1`` and the writer reports a hit — the writer is the
  sole holder: no signals;
* otherwise — signal all other caches, exactly as the classical scheme
  (the two-bit map knows *whether*, never *whom*).

``PresentM`` is unreachable (write-through memory is always current), so
the map degenerates to three states — the cheapest possible directory.

Eviction notices keep ``Present1`` honest.  The stale-notice hazard
(DESIGN.md #7) is closed *synchronously* here: the invalidation line is
modelled as the wired line it was (direct calls), so the controller can
collect "my in-flight eviction notice is now stale" revocations from the
caches inside the same invalidation round — no network race exists.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.states import GlobalState, TwoBitDirectory
from repro.interconnect.message import Message, MessageKind
from repro.memory.address import AddressMap
from repro.sim.kernel import SimClock
from repro.protocols.classical import (
    ClassicalCacheController,
    ClassicalMemoryController,
)


class WTFilterCacheController(ClassicalCacheController):
    """Classical write-through cache that also reports evictions."""

    #: Uid fields (see :mod:`repro.verification.state`).
    _uid_fields = {"_inflight_ejects": "eviction-notice uids by block"}

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: block -> uid of the eviction notice awaiting EJECT_ACK.
        self._inflight_ejects: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Eviction notices (the classical cache evicts silently; the filter
    # variant tells the home directory so Present1 can return to Absent).
    # ------------------------------------------------------------------
    def _classify(self, ref, issue_time):
        if not ref.is_write:  # a read miss: read hits never escape
            frame = self.array.frame_for(ref.block)
            if frame.valid and frame.block is not None:
                uid = self.sim.uid()
                self._inflight_ejects[frame.block] = uid
                self.counters.add("eviction_notices")
                self._send(
                    MessageKind.EJECT,
                    frame.block,
                    rw="read",
                    meta={"ej": uid},
                )
                frame.reset()
        super()._classify(ref, issue_time)

    def deliver(self, message: Message) -> None:
        if message.kind is MessageKind.EJECT_ACK:
            uid = self._inflight_ejects.get(message.block)
            if uid == message.meta.get("ej"):
                del self._inflight_ejects[message.block]
            return
        super().deliver(message)

    # ------------------------------------------------------------------
    # Synchronous revocation: called by the controller inside the same
    # invalidation round that destroys this cache's copy.
    # ------------------------------------------------------------------
    def stale_eject_uid(self, block: int) -> Optional[int]:
        """The uid of an in-flight eviction notice for ``block``, if any.

        A copy destroyed by the invalidation line can no longer be the
        one its in-flight notice described; the controller must drop the
        notice or a later ``Present1`` holder loses its state.
        """
        return self._inflight_ejects.get(block)

    def _holder_pinned(self, block: int) -> bool:
        # An in-flight eviction notice pins holder-index membership: the
        # controller collects revocations from the caches it signals, so
        # a sparse round must still reach this cache until the notice is
        # acknowledged.
        return block in self._inflight_ejects or super()._holder_pinned(block)

    def quiescent(self) -> bool:
        return super().quiescent() and not self._inflight_ejects


class WTFilterMemoryController(ClassicalMemoryController):
    """Classical memory controller + the two-bit filter map."""

    #: Uid fields (see :mod:`repro.verification.state`).
    _uid_fields = {"_revoked": "revoked eviction-notice uids by (cache, block)"}

    def __init__(self, sim, index, config, net, module, oracle) -> None:
        super().__init__(sim, index, config, net, module, oracle)
        self.directory = TwoBitDirectory(
            blocks=AddressMap(config.n_modules, config.n_blocks).blocks_of(index),
            clock=SimClock(sim),
            keep_present1=config.options.keep_present1,
        )
        #: (cache name, block) -> revoked eviction-notice uid.
        self._revoked: Dict[tuple, int] = {}

    # ------------------------------------------------------------------
    # Network interface
    # ------------------------------------------------------------------
    def deliver(self, message: Message) -> None:
        if message.kind is MessageKind.EJECT:
            self._on_eject(message)
            return
        if message.kind is MessageKind.WT_FETCH:
            # Directory update at the serialization point (delivery):
            # the block gains a (future) holder.
            state = self.directory.state(message.block)
            if state is GlobalState.ABSENT:
                self.directory.set_state(message.block, GlobalState.PRESENT1)
            else:
                self.directory.set_state(
                    message.block, GlobalState.PRESENT_STAR
                )
        super().deliver(message)

    def _on_eject(self, message: Message) -> None:
        block = message.block
        key = (message.src, block)
        marker = self._revoked.pop(key, None)
        if marker is not None and marker == message.meta.get("ej"):
            self.counters.add("eject_dropped_revoked")
        else:
            state = self.directory.state(block)
            if state is GlobalState.PRESENT1:
                self.directory.set_state(block, GlobalState.ABSENT)
                self.counters.add("eject_present1_to_absent")
            else:
                self.counters.add("eject_present_star")
        self.net.send(
            Message(
                kind=MessageKind.EJECT_ACK,
                src=self.name,
                dst=message.src,
                block=block,
                meta={"ej": message.meta.get("ej")},
            )
        )

    # ------------------------------------------------------------------
    # The filter: suppress invalidation rounds the map proves pointless.
    # ------------------------------------------------------------------
    def _commit_store(self, message: Message) -> None:
        block = message.block
        state = self.directory.state(block)
        # The writer's "I had a hit" is send-time evidence and may be
        # stale by the commit instant (an intervening store's round can
        # have destroyed the copy while Present1 moved to that storer).
        # Resolve holdership *now*, at the serialization point — the
        # wired-line status a real write-through bus reports.
        writer = self.caches[message.requester]
        writer_hit = writer.holds(block) is not None
        if writer_hit != bool(message.meta.get("hit")):
            self.counters.add("hit_claims_stale_at_commit")
        skip = state is GlobalState.ABSENT or (
            state is GlobalState.PRESENT1 and writer_hit
        )
        if skip:
            # No other cache can hold a copy: commit without signalling.
            self.counters.add("stores_filtered")
        super()._commit_store(message, signal=not skip)
        # Post-store state: the writer's copy (if it had one) is the
        # only survivor; with no-write-allocate a missing writer leaves
        # the block uncached.
        self.directory.set_state(
            block,
            GlobalState.PRESENT1 if writer_hit else GlobalState.ABSENT,
        )

    def _signal_invalidations(self, block, writer_pid):
        targets = super()._signal_invalidations(block, writer_pid)
        # Inside the (synchronous) invalidation round, collect
        # revocations for eviction notices made stale by it.  Walking
        # the signalled pids is exhaustive on both paths: an in-flight
        # notice pins its sender in the holder index (_holder_pinned),
        # so a sparse round (targets is a pid list) cannot skip a cache
        # with one; a dense round (targets is None) scans every cache.
        signalled = (
            (c for c in self.caches if c.pid != writer_pid)
            if targets is None
            else (self.caches[pid] for pid in targets)
        )
        for cache in signalled:
            uid = cache.stale_eject_uid(block)
            if uid is not None:
                self._revoked[(cache.name, block)] = uid
        return targets
