"""Protocol messages.

The vocabulary follows Table 3-1 of the paper (``REQUEST``, ``MREQUEST``,
``EJECT``, ``BROADINV``, ``BROADQUERY``, ``MGRANTED``, data transfers
``get``/``put``) plus the selective commands of the full-map baseline
(``PURGE``, ``INVALIDATE``) and the acknowledgements any implementable
variant needs to terminate its transactions (``QUERY_NOCOPY``,
``INV_ACK``, ``EJECT_ACK``).  Snooping bus protocols use the ``BUS_*``
kinds.

Control commands have size 1 (one command slot); data transfers carry a
block and are ``DATA_SIZE`` times larger, which the networks use for
occupancy accounting.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.sim.enums import IdentityEnum

#: Relative size of a block data transfer vs a control command.
DATA_SIZE = 4


class MessageKind(IdentityEnum):
    """Every message type used by any protocol in the library."""

    # -- cache -> home controller (Table 3-1) -------------------------
    REQUEST = "REQUEST"          # (k, a, rw): miss service request
    MREQUEST = "MREQUEST"        # (k, a): write hit on unmodified block
    EJECT = "EJECT"              # (k, olda, wb): replacement notice
    PUT = "put"                  # data transfer cache -> memory

    # -- home controller -> cache(s) (Table 3-1) ----------------------
    BROADINV = "BROADINV"        # (a, k): invalidate everywhere but k
    BROADQUERY = "BROADQUERY"    # (a, rw): locate + purge the dirty owner
    MGRANTED = "MGRANTED"        # (k, y/n): modification grant
    GET = "get"                  # data transfer memory -> cache

    # -- selective commands (full-map baselines) ----------------------
    PURGE = "PURGE"              # (a, i, rw): directed write-back demand
    INVALIDATE = "INVALIDATE"    # (a, i): directed invalidation

    # -- acknowledgements (implementability additions) -----------------
    QUERY_NOCOPY = "QUERY_NOCOPY"  # cache -> controller: no copy held
    INV_ACK = "INV_ACK"            # cache -> controller: invalidated
    EJECT_ACK = "EJECT_ACK"        # controller -> cache: write-back taken
    MREQ_CANCEL = "MREQ_CANCEL"    # cache -> controller: withdraw MREQUEST
    EJECT_REVOKE = "EJECT_REVOKE"  # cache -> controller: clean eject is stale
    NAK = "NAK"                    # controller -> cache: resend later (stalled)

    # -- classical write-through scheme --------------------------------
    WT_WRITE = "WT_WRITE"        # write-through store to memory
    WT_ACK = "WT_ACK"            # memory -> cache: store + bcast done
    WT_FETCH = "WT_FETCH"        # read-miss fetch request
    WT_INV = "WT_INV"            # broadcast invalidation of a stored block

    # -- snooping bus transactions --------------------------------------
    BUS_READ = "BUS_READ"        # read miss on the bus
    BUS_RDX = "BUS_RDX"          # read-exclusive (write miss)
    BUS_INV = "BUS_INV"          # invalidation-only (upgrade)
    BUS_WRITE_WORD = "BUS_WRITE_WORD"  # write-once first-write write-through
    BUS_REPLY = "BUS_REPLY"      # data supplied to the requester

    # -- static (software) scheme ---------------------------------------
    MEM_READ = "MEM_READ"        # uncached shared read
    MEM_WRITE = "MEM_WRITE"      # uncached shared write
    MEM_REPLY = "MEM_REPLY"      # memory response


#: Kinds that carry a block of data (occupy DATA_SIZE network slots).
DATA_KINDS = frozenset(
    {
        MessageKind.PUT,
        MessageKind.GET,
        MessageKind.BUS_REPLY,
        MessageKind.MEM_REPLY,
    }
)

# Resolve data-ness per kind once, as plain attributes on the members:
# Message construction then avoids a frozenset membership test (enum
# hashing is measurable at message allocation rates).
for _kind in MessageKind:
    _kind.is_data_kind = _kind in DATA_KINDS
    _kind.wire_size = DATA_SIZE if _kind.is_data_kind else 1
del _kind

_new_message = object.__new__


class Message:
    """One command or data transfer on the interconnect.

    A slotted plain class (not a dataclass): messages are the single most
    allocated object on the simulator hot path, so construction cost and
    per-instance footprint matter.  ``size`` is resolved once at creation.

    Attributes:
        kind: message type.
        src: name of the sending component.
        dst: name of the receiving component; None for a broadcast.
        block: the block address the message concerns (the paper's ``a``).
        requester: index ``k`` of the processor-cache that initiated the
            enclosing transaction (the BROADINV ``k`` parameter).
        rw: "read" or "write" where the kind is parameterized (REQUEST,
            BROADQUERY, EJECT's ``wb`` rides here too).
        version: data payload for PUT/GET-like transfers.
        flag: boolean payload (MGRANTED yes/no, EJECT dirtiness).
        meta: free-form extras for protocol-specific needs.
        size: network occupancy units (commands 1, data DATA_SIZE).
    """

    #: Uid fields (see :mod:`repro.verification.state`).
    _uid_fields = {"meta": "the txn and ej values; its other values are flags"}

    __slots__ = (
        "kind",
        "src",
        "dst",
        "block",
        "requester",
        "rw",
        "version",
        "flag",
        "meta",
        "size",
        "is_data",
    )

    def __init__(
        self,
        kind: MessageKind,
        src: str,
        dst: Optional[str],
        block: int,
        requester: Optional[int] = None,
        rw: Optional[str] = None,
        version: Optional[int] = None,
        flag: Optional[bool] = None,
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.kind = kind
        self.src = src
        self.dst = dst
        self.block = block
        self.requester = requester
        self.rw = rw
        self.version = version
        self.flag = flag
        self.meta = {} if meta is None else meta
        self.is_data = kind.is_data_kind
        self.size = kind.wire_size

    def copy_for(self, dst: str) -> "Message":
        """A per-recipient broadcast copy with its own meta dict."""
        copy = _new_message(Message)
        copy.kind = self.kind
        copy.src = self.src
        copy.dst = dst
        copy.block = self.block
        copy.requester = self.requester
        copy.rw = self.rw
        copy.version = self.version
        copy.flag = self.flag
        copy.meta = dict(self.meta)
        copy.is_data = self.is_data
        copy.size = self.size
        return copy

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        dst = self.dst if self.dst is not None else "*"
        extras = []
        if self.rw is not None:
            extras.append(self.rw)
        if self.requester is not None:
            extras.append(f"k={self.requester}")
        if self.version is not None:
            extras.append(f"v{self.version}")
        if self.flag is not None:
            extras.append(str(self.flag))
        inner = ",".join(extras)
        return f"<{self.kind.value} {self.src}->{dst} a={self.block} {inner}>"
