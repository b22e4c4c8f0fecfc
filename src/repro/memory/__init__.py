"""Memory subsystem: block addressing and memory modules."""

from repro.memory.address import AddressMap
from repro.memory.module import MemoryModule

__all__ = ["AddressMap", "MemoryModule"]
