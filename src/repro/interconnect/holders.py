"""Sparse copy-holder index: which caches (may) hold a copy of a block.

The two-bit directory knows *whether* copies exist, never *whom* — that
is the point of the paper.  But the simulator's dense broadcast fan-out
pays O(n) event scheduling per BROADINV/BROADQUERY even when almost no
cache holds the block, which caps the machine at small n.  This index is
*simulator-side bookkeeping*, not protocol state: the memory side keeps,
per homed block, the set of caches that may hold a valid copy, updated
from the grant/invalidate/eject transitions it already processes.  The
sparse fan-out path delivers broadcast copies only to index members and
phantom-accounts the rest (see ``docs/performance.md#scaling-to-large-n``).

Invariant (audited): at every transaction boundary the member set is a
*superset* of the caches actually holding a valid line, an in-flight
write-back-buffer entry, or an in-flight fill for the block.  Stale
extra members cost one useless delivery — exactly what the dense path
would have done — so over-approximation never changes behaviour.

Storage is sparse both ways: blocks with no holders own no entry at all,
so an n=1024 machine allocates nothing per (cache, block) pair.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, Set

_EMPTY: FrozenSet[int] = frozenset()

#: Why an index's owners declare it non-state (see
#: :mod:`repro.verification.state`).  Only sparse machines maintain it,
#: so sparse/dense twins differ in it and nothing else.  The model
#: checker never builds a sparse machine, so exempting it merges no
#: explored states; the audit's superset check is what guards it.
SPARSE_INDEX = "sparse-path bookkeeping; the audit's superset check guards it"


class CopyHolderIndex:
    """Block -> set of cache pids with a (possible) copy.

    Entries are created on first add and deleted when they empty, so
    ``len(index)`` is the number of blocks with at least one holder and
    memory stays proportional to live sharing, not to n x blocks.
    """

    __slots__ = ("_holders",)

    def __init__(self) -> None:
        self._holders: Dict[int, Set[int]] = {}

    # -- mutation ------------------------------------------------------
    def add(self, block: int, pid: int) -> None:
        """``pid`` gains (or may gain) a copy of ``block``."""
        members = self._holders.get(block)
        if members is None:
            self._holders[block] = {pid}
        else:
            members.add(pid)

    def discard(self, block: int, pid: int) -> None:
        """``pid`` no longer holds ``block`` (no-op if absent)."""
        members = self._holders.get(block)
        if members is not None:
            members.discard(pid)
            if not members:
                del self._holders[block]

    def set_only(self, block: int, pid: int) -> None:
        """``pid`` becomes the sole (possible) holder of ``block``."""
        self._holders[block] = {pid}

    def replace(self, block: int, pids: Iterable[int]) -> None:
        """The holder set becomes exactly ``pids`` (empty clears)."""
        members = set(pids)
        if members:
            self._holders[block] = members
        else:
            self._holders.pop(block, None)

    def clear(self, block: int) -> None:
        """No cache holds ``block`` any more."""
        self._holders.pop(block, None)

    # -- queries -------------------------------------------------------
    def holders(self, block: int) -> FrozenSet[int]:
        """Current (possible) holder pids of ``block``."""
        members = self._holders.get(block)
        return frozenset(members) if members else _EMPTY

    def blocks(self) -> Iterator[int]:
        """Blocks that currently have at least one holder."""
        return iter(self._holders)

    def __len__(self) -> int:
        return len(self._holders)

    def total_members(self) -> int:
        """Sum of holder-set sizes (footprint regression metric)."""
        return sum(len(m) for m in self._holders.values())
