"""Set-associative cache array.

Pure state + lookup/victim mechanics; all protocol behaviour (what to do on
a miss, when to write back) lives in the cache controllers.  The paper's
``b_k`` — "the position in C_k of the block chosen to be replaced" — is the
frame returned by :meth:`frame_for`.

Frames are made as fills first need them: a set holds the frames filled
so far, in the order a full set would hold them, and a frame never filled
is not stored.  Every replacement policy fills an invalid frame before
evicting, and frames not yet made come after the made ones, so victims
are the ones a fully built array picks.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.cache.line import CacheLine
from repro.cache.replacement import FIFOPolicy, ReplacementPolicy, make_policy


class CacheArray:
    """A ``n_sets x associativity`` array of :class:`CacheLine` frames.

    >>> arr = CacheArray(n_sets=2, associativity=2)
    >>> arr.n_frames
    4
    >>> line = arr.fill(6, version=1)      # set 0
    >>> arr.lookup(6) is line
    True
    """

    #: Non-state fields (see :mod:`repro.verification.state`).
    _not_state = {
        "_clock": "only the order of the lines' use stamps picks victims",
    }

    def __init__(
        self,
        n_sets: int,
        associativity: int,
        policy: Optional[ReplacementPolicy] = None,
    ) -> None:
        if n_sets < 1 or associativity < 1:
            raise ValueError("n_sets and associativity must be >= 1")
        self.n_sets = n_sets
        self.associativity = associativity
        self.policy = policy if policy is not None else make_policy("lru")
        #: set index -> its frames made so far (see the module docstring).
        self._sets: Dict[int, List[CacheLine]] = {}
        self._clock = 0  # internal use-ordering clock
        # block -> line placed by fill(); entries may be stale (the line
        # since evicted or invalidated), so every probe re-validates.
        self._index: dict = {}

    @property
    def n_frames(self) -> int:
        return self.n_sets * self.associativity

    def set_index(self, block: int) -> int:
        """Which set ``block`` maps to."""
        return block % self.n_sets

    def _tick(self) -> int:
        self._clock += 1
        return self._clock

    # ------------------------------------------------------------------
    # Lookup & placement
    # ------------------------------------------------------------------
    def lookup(self, block: int) -> Optional[CacheLine]:
        """Return the valid line holding ``block``, or None (a miss).

        Only :meth:`fill` places blocks, so its index is the whole truth.
        """
        line = self._index.get(block)
        if line is not None and line.valid and line.block == block:
            return line
        return None

    def touch(self, line: CacheLine) -> None:
        """Record a use for replacement ordering."""
        self.policy.touch(line, self._tick())

    def frame_for(self, block: int) -> CacheLine:
        """Frame to receive ``block``: its current line if resident, else
        the victim chosen by the replacement policy.

        The caller is responsible for writing back / notifying eviction of
        the victim's previous contents before calling
        :meth:`CacheLine.fill`.
        """
        resident = self.lookup(block)
        if resident is not None:
            return resident
        lines = self._sets.get(self.set_index(block), ())
        if len(lines) < self.associativity:
            for line in lines:
                if not line.valid:
                    return line
            return CacheLine()  # the set's next frame, made by fill()
        return lines[self.policy.victim(lines, self._clock)]

    def fill(self, block: int, version: int, modified: bool = False) -> CacheLine:
        """Place ``block`` into its frame (assumes eviction already handled)."""
        line = self.frame_for(block)
        if not line.last_use:
            # A frame never filled: every filled one has a use stamp.
            self._sets.setdefault(self.set_index(block), []).append(line)
        line.fill(block, version, modified)
        self._index[block] = line
        now = self._tick()
        if isinstance(self.policy, FIFOPolicy):
            self.policy.stamp_fill(line, now)
        else:
            self.policy.touch(line, now)
        return line

    # ------------------------------------------------------------------
    # Introspection (audits, tests)
    # ------------------------------------------------------------------
    def lines(self) -> Iterator[CacheLine]:
        """Every frame made so far, valid or not, in set order."""
        for index in sorted(self._sets):
            yield from self._sets[index]

    def valid_lines(self) -> Iterator[CacheLine]:
        for line in self.lines():
            if line.valid:
                yield line

    def resident_blocks(self) -> List[int]:
        """Sorted blocks currently cached."""
        return sorted(line.block for line in self.valid_lines())  # type: ignore[arg-type]

    def occupancy(self) -> Tuple[int, int]:
        """(valid frames, total frames)."""
        return sum(1 for _ in self.valid_lines()), self.n_frames

