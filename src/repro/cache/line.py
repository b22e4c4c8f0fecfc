"""Cache line state.

A line carries the paper's local information — a valid bit and a modified
bit — plus an ``extra`` slot for protocol-specific local states (the
Yen-Fu exclusive-clean state, Goodman's Reserved/Dirty, MESI's E), and the
data *version* used by the coherence oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.sim.enums import SLOTS, IdentityEnum


class LocalState(IdentityEnum):
    """Protocol-specific local states layered over valid/modified.

    The base two-bit and full-map protocols use only ``NONE`` (the
    valid/modified bits are authoritative).  Extended protocols refine:

    * ``EXCLUSIVE``: only cached copy, clean (Yen-Fu / MESI E).
    * ``RESERVED``: written exactly once, memory current (write-once).
    * ``SHARED``: one of several clean copies (MESI S; informational).
    """

    NONE = "none"
    EXCLUSIVE = "exclusive"
    RESERVED = "reserved"
    SHARED = "shared"


@dataclass(**SLOTS)
class CacheLine:
    """One cache frame (the paper's position ``b_k``)."""

    block: Optional[int] = None
    valid: bool = False
    modified: bool = False
    version: int = 0
    local: LocalState = LocalState.NONE
    #: LRU timestamp maintained by the replacement policy.
    last_use: int = 0

    def reset(self) -> None:
        """Invalidate the frame entirely."""
        self.block = None
        self.valid = False
        self.modified = False
        self.version = 0
        self.local = LocalState.NONE

    def fill(self, block: int, version: int, modified: bool = False) -> None:
        """Load ``block`` into this frame."""
        self.block = block
        self.valid = True
        self.modified = modified
        self.version = version
        self.local = LocalState.NONE

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        if not self.valid:
            return "<line invalid>"
        bits = "M" if self.modified else "-"
        return f"<line blk={self.block} {bits} v{self.version} {self.local.value}>"
