"""Full distributed map baseline (Censier-Feautrier, §2.4.2).

Each block's directory entry is the full presence vector (one bit per
cache, here a set of pids) plus a modified bit — ``n+1`` bits per block.
Because owner identities are known, every coherence command is sent
*selectively*: ``PURGE`` to the dirty owner, ``INVALIDATE`` to exactly the
holders.  No broadcasts ever occur; this is the reference point against
which the two-bit scheme's extra commands are measured (§4.1: "the number
of 'forced' write-backs and invalidations are independent of the mapping
method").

The protocol is the table :data:`FULL_MAP_SPEC`, keyed by the block's
:class:`Situation` relative to the requesting cache; the shared
:class:`~repro.protocols.directory.DirectoryController` dispatches on
it exactly as it does on the two-bit table, and this module says only
how a row commits to the presence vector and the modified/exclusive
bits.  ``tests/protocols/test_fullmap_conformance.py`` drives every row
through the real controller and checks the commands it sends.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Collection, Dict, FrozenSet, Iterable, Optional, Set

from repro.interconnect.message import Message
from repro.interconnect.network import Network
from repro.memory.address import AddressMap
from repro.memory.module import MemoryModule
from repro.protocols.directory import (
    DirectoryController,
    Transition,
    _Txn,
    render_rows,
)
from repro.sim.enums import IdentityEnum
from repro.sim.kernel import Simulator
from repro.config import MachineConfig


@dataclass
class FullMapEntry:
    """Presence vector + modified bit for one block (``n+1`` bits)."""

    owners: Set[int] = field(default_factory=set)
    modified: bool = False
    #: Exclusive-clean grant outstanding (used by the local-state
    #: variant; always False for the plain full map).
    exclusive: bool = False

    @property
    def possibly_dirty(self) -> bool:
        """Must the owner be queried before trusting memory?"""
        return self.modified or self.exclusive

    def storage_bits(self, n_caches: int) -> int:
        return n_caches + 1


class FullMapDirectory:
    """Map block -> :class:`FullMapEntry` for one module's blocks.

    Only blocks whose entry differs from the initial one (no owners,
    clean) are stored: a commit that empties an entry drops it, so a
    built directory holds nothing.
    """

    #: Non-state fields (see :mod:`repro.verification.state`).
    _not_state = {"blocks": "configuration"}

    def __init__(self, blocks: Collection[int]) -> None:
        #: The blocks homed here (a ``range``, as
        #: :meth:`~repro.memory.address.AddressMap.blocks_of` gives).
        self.blocks = blocks
        self._entries: Dict[int, FullMapEntry] = {}

    def __contains__(self, block: int) -> bool:
        return block in self.blocks

    def __len__(self) -> int:
        return len(self.blocks)

    def entry(self, block: int) -> FullMapEntry:
        """``block``'s entry; a fresh unstored one if it has none (a
        change to it lasts only through :meth:`commit`)."""
        entry = self._entries.get(block)
        if entry is not None:
            return entry
        if block not in self.blocks:
            raise KeyError(f"block {block} not homed at this directory")
        return FullMapEntry()

    def commit(self, block: int, entry: FullMapEntry) -> None:
        """Keep ``entry`` as ``block``'s, or drop it once it is empty."""
        if entry.owners or entry.modified or entry.exclusive:
            self._entries[block] = entry
        else:
            self._entries.pop(block, None)

    def recorded(self) -> Iterable[int]:
        """The blocks with an entry: some cache holds them, or they are
        marked modified or exclusive."""
        return self._entries.keys()

    def storage_bits(self, n_caches: int) -> int:
        """Directory cost in the modelled hardware: ``n+1`` bits per homed
        block, growing with n — the economy contrast of §3.1.  The host
        stores an entry only for a block some cache holds."""
        return (n_caches + 1) * len(self.blocks)


class Situation(IdentityEnum):
    """A block's full-map entry as the requesting cache sees it."""

    UNCACHED = "no cache holds a copy"
    SOLE = "the requester holds the only copy; memory is current"
    SHARED = "other caches hold clean copies; the requester holds none"
    SHARER = "the requester and other caches hold clean copies"
    OWNED = "the requester holds the only copy, possibly dirty"
    DIRTY = "another cache may hold the block dirty"


def _rows_full_map():
    U, SO, SH, SR, OW, D = (
        Situation.UNCACHED,
        Situation.SOLE,
        Situation.SHARED,
        Situation.SHARER,
        Situation.OWNED,
        Situation.DIRTY,
    )
    stale_holder = "stale: the requester's eject is still in flight"
    return (
        # Read miss
        Transition(U, "read_miss", ("GET",), SO),
        Transition(SO, "read_miss", ("GET",), SO, note=stale_holder),
        Transition(SH, "read_miss", ("GET",), SR),
        Transition(SR, "read_miss", ("GET",), SR, note=stale_holder),
        Transition(
            D, "read_miss", ("PURGE", "GET"), SR, memory_write=True,
            note="owner supplies data, keeps a clean copy",
        ),
        Transition(
            OW, "read_miss", ("PURGE", "GET"), SO, memory_write=True,
            note="the requester's own write-back is still in flight",
        ),
        # Write miss
        Transition(U, "write_miss", ("GET",), OW),
        Transition(
            SO, "write_miss", ("INVALIDATE", "GET"), OW,
            note="stale holder: a round with no one to invalidate",
        ),
        Transition(SH, "write_miss", ("INVALIDATE", "GET"), OW),
        Transition(SR, "write_miss", ("INVALIDATE", "GET"), OW, note=stale_holder),
        Transition(
            D, "write_miss", ("PURGE", "GET"), OW, memory_write=True,
            note="owner supplies data and invalidates",
        ),
        Transition(
            OW, "write_miss", ("PURGE", "GET"), OW, memory_write=True,
            note="the requester's own write-back is still in flight",
        ),
        # MREQUEST: write hit on an unmodified copy
        Transition(
            SO, "mrequest", ("MGRANTED+",), OW,
            note="sole holder: no one to invalidate",
            counter="mreq_granted_sole_owner",
        ),
        Transition(SR, "mrequest", ("INVALIDATE", "MGRANTED+"), OW),
        *(
            Transition(
                st, "mrequest", ("MGRANTED-",), st,
                note="requester lost its copy; it reissues a write miss",
                counter="mreq_denied",
            )
            for st in (U, SH, D)
        ),
        Transition(
            OW, "mrequest", ("MGRANTED-",), OW,
            note="stale: the requester already owns the block",
            counter="mreq_denied",
        ),
        # Replacement notices (the requester is the ejector)
        Transition(SO, "eject_clean", ("EJECT_ACK",), U, counter="eject_clean"),
        Transition(SR, "eject_clean", ("EJECT_ACK",), SH, counter="eject_clean"),
        Transition(
            OW, "eject_clean", ("EJECT_ACK",), U, counter="eject_clean",
            note="the exclusive-clean owner leaves",
        ),
        *(
            Transition(
                st, "eject_clean", ("EJECT_ACK",), st, counter="eject_clean",
                note="stale notice: the ejector is already gone",
            )
            for st in (U, SH, D)
        ),
        Transition(
            OW, "eject_dirty", ("EJECT_ACK",), U, memory_write=True,
            counter="writebacks_absorbed",
        ),
        *(
            Transition(
                st, "eject_dirty", ("EJECT_ACK",), st,
                note="stale write-back dropped", counter="eject_dropped_stale",
            )
            for st in (U, SO, SR, SH, D)
        ),
    )


#: The full map's protocol: (situation, request) -> row.
FULL_MAP_SPEC = _rows_full_map()

#: The local-state variant (Yen-Fu, §2.4.3) differs in one row: a read
#: fill from uncached is granted exclusive-clean.
FULL_MAP_LOCAL_SPEC = tuple(
    replace(
        row, next_state=Situation.OWNED,
        note="exclusive-clean fill: a later write hit needs no MREQUEST",
    )
    if (row.state, row.event) == (Situation.UNCACHED, "read_miss")
    else row
    for row in FULL_MAP_SPEC
)


def render_full_map_spec() -> str:
    """The full map's table, then the row the local-state variant
    changes."""
    changed = [row for row in FULL_MAP_LOCAL_SPEC if row not in FULL_MAP_SPEC]
    return "\n\n".join(
        (
            render_rows(FULL_MAP_SPEC, "Full-map directory (§2.4.2)"),
            render_rows(changed, "Full map with local state (§2.4.3): changed rows"),
        )
    )


class FullMapDirectoryController(DirectoryController):
    """Home controller with the n+1-bit presence-vector directory."""

    table = FULL_MAP_SPEC
    selective_inv_counter = "invalidations_sent"
    selective_purge_counter = "purges_sent"

    def __init__(
        self,
        sim: Simulator,
        index: int,
        config: MachineConfig,
        net: Network,
        module: MemoryModule,
        n_caches: int,
    ) -> None:
        super().__init__(
            sim, index, config, net, module, n_caches, rows=self.table
        )
        self.directory = FullMapDirectory(
            blocks=AddressMap(config.n_modules, config.n_blocks).blocks_of(index)
        )

    def _situation(self, txn: _Txn) -> Situation:
        entry = self.directory.entry(txn.msg.block)
        requester = self._requester(txn)
        owners = entry.owners
        if entry.possibly_dirty:
            return Situation.OWNED if owners == {requester} else Situation.DIRTY
        if requester in owners:
            return Situation.SHARER if len(owners) > 1 else Situation.SOLE
        return Situation.SHARED if owners else Situation.UNCACHED

    # ==================================================================
    # Rounds: the presence vector names every target
    # ==================================================================
    def _invalidation_targets(self, txn: _Txn) -> Set[int]:
        return self.directory.entry(txn.msg.block).owners - {self._requester(txn)}

    def _query_target(self, txn: _Txn) -> int:
        block = txn.msg.block
        owners = self.directory.entry(block).owners
        if len(owners) != 1:
            raise RuntimeError(
                f"{self.name}: dirty/exclusive block {block} with owners "
                f"{owners}"
            )
        (owner,) = owners
        return owner

    def _memory_current(self, txn: _Txn, message: Message) -> bool:
        # The exclusive-clean owner answered a PURGE without data.
        self.counters.add("purge_found_clean")
        return True

    def _on_stray_nocopy(self, message: Message) -> None:
        self.counters.add("stray_query_nocopy")

    # ==================================================================
    # How a row commits to the presence vector
    # ==================================================================
    def _commit_data(self, txn: _Txn, answer: Optional[Message]) -> bool:
        entry = self.directory.entry(txn.msg.block)
        requester = self._requester(txn)
        write = txn.msg.rw == "write"
        if answer is not None:
            entry.owners = self._holders_after_query(txn, answer)
        elif write:
            entry.owners = {requester}
        else:
            entry.owners.add(requester)
        entry.modified = write
        entry.exclusive = not write and txn.row.next_state is Situation.OWNED
        self.directory.commit(txn.msg.block, entry)
        return entry.exclusive

    def _commit_modify(self, txn: _Txn) -> None:
        self.directory.commit(
            txn.msg.block, FullMapEntry({self._requester(txn)}, modified=True)
        )

    def _commit_eject(self, txn: _Txn) -> None:
        # A stale notice (copy invalidated in flight) is harmless here:
        # the presence vector already dropped the ejector, and
        # discarding a non-member is a no-op.
        entry = self.directory.entry(txn.msg.block)
        entry.owners.discard(self._requester(txn))
        if not entry.owners:
            entry.exclusive = False
        self.directory.commit(txn.msg.block, entry)

    def _commit_writeback(self, txn: _Txn) -> None:
        self.directory.commit(txn.msg.block, FullMapEntry())

    def copy_holders(self, block: int) -> FrozenSet[int]:
        """Exact pids holding a valid copy of ``block`` (the full map).

        Mirrors ``TwoBitDirectoryController.copy_holders`` so tests can
        compare the sparse superset index against the precise map.
        """
        return frozenset(self.directory.entry(block).owners)
