"""Translation buffer — §4.4, enhancement 2.

A small associative memory at each controller "in which to store the
identities of caches which own copies of blocks from that module".  On a
would-be broadcast the controller first consults the buffer: a hit allows
selective message handling exactly as the n+1-bit full map; a miss falls
back to broadcast.

Soundness rule: an entry must list *every* current holder, or a selective
invalidation would miss a cache.  Entries are therefore only (re)created
at transactions whose outcome fully determines membership (a fill from
Absent, an invalidating write, a dirty-owner purge); incremental updates
(adding a reader, removing an ejector) keep existing entries exact.  A
block whose history was partially observed simply has no entry and is
broadcast to — conservative, never wrong.

``forced_hit_ratio`` bypasses the capacity mechanics to reproduce the
paper's headline claim ("if a 90% hit ratio ... could be maintained, 90%
of the added overhead ... is eliminated") independent of buffer geometry;
in that mode ground-truth membership is supplied by the caller.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from typing import Iterable, Optional, Set


class TranslationBuffer:
    """LRU buffer of exact owner-identity sets."""

    #: Non-state fields (see :mod:`repro.verification.state`).
    _not_state = {"hits": "statistics", "misses": "statistics"}

    def __init__(
        self,
        capacity: int,
        forced_hit_ratio: Optional[float] = None,
        seed: int = 0,
    ) -> None:
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        self.capacity = capacity
        self.forced_hit_ratio = forced_hit_ratio
        self._rng = random.Random(seed)
        self._entries: "OrderedDict[int, Set[int]]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, block: int) -> bool:
        return block in self._entries

    @property
    def enabled(self) -> bool:
        return self.capacity > 0 or self.forced_hit_ratio is not None

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def lookup(self, block: int) -> Optional[Set[int]]:
        """Owner set for ``block`` or None (miss -> broadcast).

        In forced mode the caller must handle the hit itself (see
        :meth:`forced_hit`); lookup then never hits.
        """
        if self.forced_hit_ratio is not None:
            return None
        owners = self._entries.get(block)
        if owners is None:
            self.misses += 1
            return None
        self._entries.move_to_end(block)
        self.hits += 1
        return set(owners)

    def forced_hit(self) -> bool:
        """Decide a forced-mode hit; counts toward the hit ratio."""
        if self.forced_hit_ratio is None:
            return False
        if self._rng.random() < self.forced_hit_ratio:
            self.hits += 1
            return True
        self.misses += 1
        return False

    # ------------------------------------------------------------------
    # Maintenance (called from serialized controller transactions)
    # ------------------------------------------------------------------
    def establish(self, block: int, owners: Set[int]) -> None:
        """Create/overwrite an entry with fully-known membership."""
        if self.capacity == 0:
            return
        self._entries[block] = set(owners)
        self._entries.move_to_end(block)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def add_owner(self, block: int, pid: int) -> None:
        """Record a new reader — only if the block is already tracked."""
        owners = self._entries.get(block)
        if owners is not None:
            owners.add(pid)
            self._entries.move_to_end(block)

    def drop_owner(self, block: int, pid: int) -> None:
        """Record a clean ejection — only if the block is tracked."""
        owners = self._entries.get(block)
        if owners is not None:
            owners.discard(pid)

    def invalidate(self, block: int) -> None:
        """Forget a block (membership no longer derivable)."""
        self._entries.pop(block, None)

    def recorded(self) -> Iterable[int]:
        """The blocks with an entry."""
        return self._entries.keys()

    def peek(self, block: int) -> Optional[Set[int]]:
        """Entry contents without LRU/statistics side effects."""
        owners = self._entries.get(block)
        return set(owners) if owners is not None else None
