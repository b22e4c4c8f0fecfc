"""Memory module storage.

Instead of byte payloads, each block stores a monotonically increasing
*version* number stamped by the coherence oracle on every write.  Version
flow is exactly what coherence is about — "a read access to any block
always returns the most recently written value of that block" — and it
makes the checker cheap: a stale copy is a copy with an old version.

A block never written holds version 0 and has no entry: the module
stores only written versions, so a built machine's memory holds nothing.
"""

from __future__ import annotations

from typing import Collection, Dict, Iterable

from repro.sim.component import Component
from repro.sim.kernel import Simulator


class MemoryModule(Component):
    """One main-memory module, holding the versions of its home blocks.

    Timing (the ``access_time`` cycles) is applied by the controller that
    fronts the module, not here; the module itself is pure state.
    """

    #: Non-state fields (see :mod:`repro.verification.state`).
    _not_state = {"blocks": "configuration"}

    def __init__(
        self,
        sim: Simulator,
        index: int,
        blocks: Collection[int],
        access_time: int = 10,
    ) -> None:
        super().__init__(sim, name=f"mem{index}")
        self.index = index
        self.access_time = access_time
        #: The blocks homed here (a ``range``, as
        #: :meth:`~repro.memory.address.AddressMap.blocks_of` gives).
        self.blocks = blocks
        #: The written blocks and their versions (0 is never stored).
        self._versions: Dict[int, int] = {}

    def owns(self, block: int) -> bool:
        """True when ``block`` is homed at this module."""
        return block in self.blocks

    def recorded(self) -> Iterable[int]:
        """The blocks with an entry: those written with a version > 0."""
        return self._versions.keys()

    def read(self, block: int) -> int:
        """Return the stored version of ``block``."""
        version = self.peek(block)
        self.counters.add("reads")
        return version

    def write(self, block: int, version: int) -> None:
        """Store ``version`` for ``block`` (a write-back landing)."""
        self._check(block)
        self.counters.add("writes")
        if version:
            self._versions[block] = version
        else:
            self._versions.pop(block, None)

    def peek(self, block: int) -> int:
        """Read without counting (used by audits and tests)."""
        version = self._versions.get(block)
        if version is not None:
            return version
        self._check(block)
        return 0

    def _check(self, block: int) -> None:
        if block not in self.blocks:
            raise KeyError(f"{self.name} does not own block {block}")
