"""Memory reference stream primitives."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Callable, Hashable, Optional


class Op(Enum):
    """A processor memory operation (the paper's LOAD/STORE)."""

    READ = "R"
    WRITE = "W"

    @classmethod
    def parse(cls, text: str) -> "Op":
        op = _OP_BY_TEXT.get(text) or _OP_BY_TEXT.get(text.strip().upper())
        if op is None:
            raise ValueError(f"cannot parse operation {text!r}")
        return op


#: Every spelling :meth:`Op.parse` accepts, after ``strip().upper()``.
_OP_BY_TEXT = {
    spelling: op for op in Op for spelling in (op.value, op.name)
}


@dataclass(frozen=True)
class MemRef:
    """One memory reference issued by processor ``pid``.

    Coherence operates at block granularity, so the address is the block
    number; the within-block displacement ``d`` of the paper is immaterial
    and not carried.
    """

    pid: int
    op: Op
    block: int
    #: True when the generator classifies this as a writeable-shared block
    #: reference (the paper's ``q``-stream); used by measurement, and by
    #: the static scheme, which never caches shared-writeable data.
    shared: bool = False

    def __post_init__(self) -> None:
        # ``is_write`` is consulted several times per reference on the
        # simulator hot path; resolve it once instead of per access.  Not
        # a dataclass field, so equality/repr are unaffected.
        object.__setattr__(self, "is_write", self.op is Op.WRITE)

    def __str__(self) -> str:
        tag = "s" if self.shared else "p"
        return f"{self.pid} {self.op.value} {self.block} {tag}"

    @classmethod
    def parse(cls, line: str) -> "MemRef":
        """Inverse of :meth:`__str__` (trace file line format)."""
        parts = line.split()
        if len(parts) not in (3, 4):
            raise ValueError(f"malformed trace line: {line!r}")
        pid, op, block = int(parts[0]), Op.parse(parts[1]), int(parts[2])
        tag = parts[3] if len(parts) == 4 else "p"
        if tag not in ("p", "s"):
            raise ValueError(f"unknown sharing tag {tag!r} (expected p or s)")
        return cls(pid=pid, op=op, block=block, shared=tag == "s")


#: Most entries one :class:`RefTable` holds.  A full table is emptied and
#: refills on demand, so a stream with many distinct references (a trace
#: over a huge address space) stays in bounded memory.
INTERN_LIMIT = 4096


class RefTable(dict):
    """Intern table: one shared :class:`MemRef` per distinct key.

    A miss builds the entry with ``build(key)`` and keeps it, so a stream
    serves the same immutable object every time a reference recurs
    instead of constructing a new one.  Generators key a table by block
    (see :func:`ref_table`); the trace reader keys one by raw line.
    """

    __slots__ = ("build",)

    def __init__(self, build: Callable[[Hashable], Optional[MemRef]]) -> None:
        super().__init__()
        self.build = build

    def __missing__(self, key: Hashable) -> Optional[MemRef]:
        if len(self) >= INTERN_LIMIT:
            self.clear()
        ref = self[key] = self.build(key)
        return ref


def ref_table(pid: int, op: Op, shared: bool) -> RefTable:
    """Processor ``pid``'s ``op`` references, interned by block number."""
    return RefTable(partial(MemRef, pid, op, shared=shared))
