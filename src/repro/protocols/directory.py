"""The table-driven home controller shared by the directory protocols.

A directory protocol is a table of rows, (directory situation, request)
→ (commands sent, next situation), plus the rule by which a row commits
to that directory's own state.  :class:`DirectoryController` owns the
rest of §3.2's choreography, once, for every directory protocol:

* admit-and-serialize: initiating commands (REQUEST/MREQUEST/EJECT) pass
  the fault gate and wait in their *lane* until it is free.  A lane is
  the block (§3.2.5's design 2, one command per block) or one lane
  shared by every block (design 1, ``serialization="global"``); each
  lane runs one transaction at a time, and ``_txns`` is the only record
  of what is active;
* dispatch: after the directory access the block's row is looked up and
  its first command names the step that runs (:data:`_STEPS`) — there is
  no per-state control flow, so the table *is* the protocol;
* the invalidation round (``BROADINV``/``INVALIDATE``, with ack
  counting) and the query round (``BROADQUERY``/``PURGE``);
* data (``GET``) and modify (``MGRANTED``) grants;
* replacement notices, with eject data parked until its EJECT runs, and
  the queue surgery ("logic to insert and delete (anywhere) elements in
  the queue", :meth:`DirectoryController.scrub`) behind ``MREQ_CANCEL``
  and the invalidation round's deletion of superseded MREQUESTs.

A row names *which* round runs; whether it goes out as a broadcast or
selectively is the directory's call (:meth:`_invalidation_targets`,
:meth:`_query_target`): the two-bit map asks its translation buffer, the
full map always knows the holders.  Race handling specific to one
directory plugs in through the no-op hooks at the end of the class.
"""

from __future__ import annotations

from abc import abstractmethod
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import (
    Callable, Deque, Dict, Hashable, Iterable, List, Optional, Set, Tuple
)

from repro.config import MachineConfig
from repro.interconnect.message import Message, MessageKind
from repro.interconnect.network import Network
from repro.memory.module import MemoryModule
from repro.protocols.base import AbstractMemoryController
from repro.sim.kernel import Simulator
from repro.stats.tables import Table

#: Request kinds a home controller serializes (Table 3-1's commands as
#: classified by the four §3.2 instances).
EVENTS = (
    "read_miss",     # REQUEST(k, a, "read")
    "write_miss",    # REQUEST(k, a, "write")
    "mrequest",      # MREQUEST(k, a)
    "eject_clean",   # EJECT(k, a, "read")
    "eject_dirty",   # EJECT(k, a, "write") + put(b_k, a)
)


@dataclass(frozen=True)
class Transition:
    """One row of a directory protocol: what it sends and becomes."""

    #: The directory situation the row applies to (the two-bit global
    #: state, or the full map's view relative to the requester).
    state: Hashable
    event: str
    #: Command kinds the controller emits, in order.  The first names
    #: the step that runs: a round ("BROADINV"/"INVALIDATE",
    #: "BROADQUERY"/"PURGE"), a grant to the requester ("GET",
    #: "MGRANTED+"/"MGRANTED-"), or "EJECT_ACK" closing a replacement.
    sends: Tuple[str, ...]
    next_state: Hashable
    #: Main memory is written during this transition (write-back landing).
    memory_write: bool = False
    note: str = ""
    #: Controller counter the row increments (grants, denials, ejects).
    counter: str = ""


def event_of(message: Message) -> str:
    """The :data:`EVENTS` entry an initiating command belongs to."""
    if message.kind is MessageKind.REQUEST:
        return "read_miss" if message.rw == "read" else "write_miss"
    if message.kind is MessageKind.MREQUEST:
        return "mrequest"
    return "eject_clean" if message.rw == "read" else "eject_dirty"


def render_rows(rows: Iterable[Transition], title: str) -> str:
    """A directory table as text: one line per row, then the notes."""
    rows = tuple(rows)
    table = Table(
        header=["state", "request", "controller sends", "next state", "mem"],
        title=title,
    )
    for row in rows:
        table.add_row(
            [
                row.state.name,
                row.event,
                " -> ".join(row.sends),
                row.next_state.name,
                "W" if row.memory_write else "",
            ]
        )
    lines = [table.render(), "", "notes:"]
    for row in rows:
        if row.note:
            lines.append(
                f"  {row.state.name:<12} {row.event:<11} {row.note}"
            )
    return "\n".join(lines)


@dataclass
class _Txn:
    """Book-keeping for one in-flight controller transaction."""

    msg: Message
    #: The row dispatch chose (None until the directory access is done).
    row: Optional[Transition] = None
    phase: str = "start"
    acks_expected: int = 0
    #: Distinct caches that acked the invalidation round (identity-based
    #: so a duplicated ack can never over-credit the round).
    ack_sources: Set[str] = field(default_factory=set)
    #: True when the pending round was sent selectively.
    selective: bool = False
    #: Set when an MREQ_CANCEL caught this transaction *after* it left
    #: the queue and became active (the §3.2.5 late race): dispatch and
    #: the invalidation round must retire it without granting.
    cancelled: bool = False


#: Message kind -> handler name, resolved per delivery with getattr so
#: subclass overrides and instance-level patching keep working.
_HANDLERS = {
    MessageKind.REQUEST: "_admit",
    MessageKind.MREQUEST: "_admit",
    MessageKind.EJECT: "_admit",
    MessageKind.PUT: "_on_put",
    MessageKind.INV_ACK: "_on_inv_ack",
    MessageKind.QUERY_NOCOPY: "_on_query_nocopy",
    MessageKind.MREQ_CANCEL: "_on_mreq_cancel",
    MessageKind.EJECT_REVOKE: "_on_eject_revoke",
}

#: A row's first command -> the step that carries it out.
_STEPS = {
    "GET": "_fetch",
    "MGRANTED+": "_grant_modify",
    "MGRANTED-": "_grant_modify",
    "BROADINV": "_invalidate",
    "INVALIDATE": "_invalidate",
    "BROADQUERY": "_query",
    "PURGE": "_query",
    "EJECT_ACK": "_eject",
}


class DirectoryController(AbstractMemoryController):
    """Home controller whose §3.2 flows are driven by a row table."""

    #: Non-state and uid fields (see :mod:`repro.verification.state`).
    _not_state = {
        "_rows": "the protocol table, fixed at build",
        "max_concurrency": "statistics",
        "max_queue_depth": "statistics",
    }
    _uid_fields = {"_admitted_cmds": "(src, kind, block, txn/ej uid) keys"}

    #: Counters of the selective rounds (the two-bit map names them
    #: apart from its broadcasts; for the full map they are the rounds).
    selective_inv_counter = "selective_invalidations"
    selective_purge_counter = "selective_purges"

    def __init__(
        self,
        sim: Simulator,
        index: int,
        config: MachineConfig,
        net: Network,
        module: MemoryModule,
        n_caches: int,
        rows: Iterable[Transition],
    ) -> None:
        super().__init__(sim, index, config)
        self.net = net
        self.module = module
        self.n_caches = n_caches
        #: (situation, event) -> row: the protocol this controller runs.
        self._rows: Dict[Tuple[Hashable, str], Transition] = {
            (row.state, row.event): row for row in rows
        }
        #: block -> its active transaction (at most one per lane).
        self._txns: Dict[int, _Txn] = {}
        #: lane -> initiating commands waiting for it, in arrival order.
        #: A lane has an entry exactly while it runs a transaction.
        self._waiting: Dict[Hashable, Deque[Message]] = {}
        #: put(for="eject") data parked until its EJECT transaction runs.
        self._eject_data: Dict[Tuple[str, int], int] = {}
        #: Commands admitted under a fault plan, for duplicate rejection:
        #: (src, kind name, block, txn/ej uid).  Only populated when an
        #: injector is attached; empty (and unconsulted) otherwise.
        self._admitted_cmds: set = set()
        #: Most transactions ever active at once.
        self.max_concurrency = 0
        #: Deepest backlog ever observed (the paper's controller queue).
        self.max_queue_depth = 0

    # ==================================================================
    # Network interface
    # ==================================================================
    def deliver(self, message: Message) -> None:
        handler = _HANDLERS.get(message.kind)
        if handler is None:
            raise ValueError(f"{self.name} cannot handle {message!r}")
        getattr(self, handler)(message)

    def _admit(self, message: Message) -> None:
        if not self._fault_admit(message):
            return
        self.counters.add(f"rx_{message.kind.name.lower()}")
        lane = self._lane(message.block)
        waiting = self._waiting.get(lane)
        if waiting is None:
            self._waiting[lane] = deque()
            self._begin(message)
            return
        waiting.append(message)
        # A command that started at once never counts as backlog.
        self.max_queue_depth = max(self.max_queue_depth, self.n_queued)

    def _fault_admit(self, message: Message) -> bool:
        """Gate an initiating command under an attached fault plan.

        Fault-free machines always admit (single ``is None`` test on the
        hot path).  Under a plan:

        * a command already admitted once is a network duplicate — drop
          it (the protocol's transactions are not idempotent);
        * a command arriving inside a memory stall window is NAKed and
          *not* recorded, so the sender's retry (same uid) is admitted
          when the window closes — and a late duplicate of a command
          whose retry was admitted still dedupes correctly.
        """
        net = self.net
        faults = net.faults
        if faults is None:
            return True
        meta = message.meta
        key = (
            message.src, message.kind.name, message.block,
            meta.get("txn", meta.get("ej")),
        )
        if key in self._admitted_cmds:
            self.counters.add("duplicate_commands_dropped")
            faults.counters.add("duplicates_dropped")
            return False
        if faults.stalled(self.name, self.sim.now):
            self.counters.add("naks_sent")
            nak_meta = {"kind": message.kind.name}
            for uid_key in ("txn", "ej"):
                if uid_key in meta:
                    nak_meta[uid_key] = meta[uid_key]
            net.send(
                Message(
                    kind=MessageKind.NAK,
                    src=self.name,
                    dst=message.src,
                    block=message.block,
                    requester=message.requester,
                    rw=message.rw,
                    meta=nak_meta,
                )
            )
            return False
        self._admitted_cmds.add(key)
        return True

    def _fault_dedupe(self, message: Message, uid_key: str) -> bool:
        """Drop one-shot notices (cancels, revokes, eject data) that a
        fault plan duplicated.  No NAK — these carry no reply."""
        if self.net.faults is None:
            return True
        key = (
            message.src, message.kind.name, message.block,
            message.meta.get(uid_key),
        )
        if key in self._admitted_cmds:
            self.counters.add("duplicate_commands_dropped")
            return False
        self._admitted_cmds.add(key)
        return True

    def _on_mreq_cancel(self, message: Message) -> None:
        """Withdraw a queued MREQUEST whose sender converted to a write
        miss (see DESIGN.md ambiguity #6 — granting it would create a
        phantom owner)."""
        if not self._fault_dedupe(message, "txn"):
            return
        removed = self.scrub(
            message.block,
            lambda m: (
                m.kind is MessageKind.MREQUEST
                and m.src == message.src
                and m.meta.get("txn") == message.meta.get("txn")
            ),
        )
        self.counters.add("mrequests_cancelled", len(removed))
        if not removed:
            self._cancel_unqueued(message)

    def _on_eject_revoke(self, message: Message) -> None:
        # A map that names its holders makes stale clean ejects harmless:
        # discarding a non-member changes nothing.
        self.counters.add("eject_revokes_ignored")

    # ==================================================================
    # Lanes: §3.2.5's two controller designs and its queue surgery
    # ==================================================================
    def _lane(self, block: int) -> Hashable:
        """The lane ``block``'s commands wait in: the block itself, or
        one lane shared by every block under ``serialization="global"``."""
        return None if self.config.options.serialization == "global" else block

    def scrub(
        self, block: int, predicate: Callable[[Message], bool]
    ) -> List[Message]:
        """Delete waiting commands on ``block`` that match ``predicate``.

        Active transactions are never scrubbed.  Returns the removed
        messages (the paper's controller deletes them silently; callers
        may count them).
        """
        waiting = self._waiting.get(self._lane(block))
        if not waiting:
            return []
        removed: List[Message] = []
        kept: List[Message] = []
        for msg in waiting:
            if msg.block == block and predicate(msg):
                removed.append(msg)
            else:
                kept.append(msg)
        if removed:
            waiting.clear()
            waiting.extend(kept)
        return removed

    @property
    def n_active(self) -> int:
        """Transactions running now."""
        return len(self._txns)

    @property
    def n_queued(self) -> int:
        """Initiating commands waiting for their lane."""
        return sum(len(waiting) for waiting in self._waiting.values())

    # ==================================================================
    # Transaction dispatch
    # ==================================================================
    def _begin(self, message: Message) -> None:
        self._on_begin(message)
        txn = _Txn(msg=message)
        self._txns[message.block] = txn
        self.max_concurrency = max(self.max_concurrency, len(self._txns))
        done = self.sim.now + self.config.timing.directory_access
        self.counters.add("transactions")
        self.sim.post_at(done, self._dispatch, txn)

    def _dispatch(self, txn: _Txn) -> None:
        msg = txn.msg
        obs = self.sim.obs
        if (
            obs is not None
            and msg.requester is not None
            and msg.kind is not MessageKind.EJECT
        ):
            # EJECTs also carry a requester, but they service the victim
            # block — marking them would pollute the requester's active
            # miss span with an unrelated directory visit.
            obs.span_phase(msg.requester, self.sim.now, "directory")
        event = event_of(msg)
        if self._preempted(txn, event):
            return
        row = txn.row = self._rows[(self._situation(txn), event)]
        getattr(self, _STEPS[row.sends[0]])(txn, row)

    def _finish(self, txn: _Txn) -> None:
        """Retire ``txn`` and start the next command in its lane."""
        block = txn.msg.block
        del self._txns[block]
        lane = self._lane(block)
        waiting = self._waiting[lane]
        if waiting:
            self._begin(waiting.popleft())
        else:
            del self._waiting[lane]

    # ==================================================================
    # Grants
    # ==================================================================
    def _fetch(self, txn: _Txn, row: Transition) -> None:
        """Memory is current: read it, then grant the data."""
        self._on_fetch(txn)
        done = self._use_memory()
        self.sim.post_at(done, self._grant_data, txn, None, None)

    def _grant_data(
        self, txn: _Txn, version: Optional[int], answer: Optional[Message]
    ) -> None:
        """Send get(k, a) to the requester and retire the transaction.

        ``version`` is the purged data when it came from a cache (None:
        serve from, and leave, the memory copy); ``answer`` is the
        owner's reply when a query ran.
        """
        block = txn.msg.block
        requester = self._requester(txn)
        obs = self.sim.obs
        if obs is not None:
            obs.span_phase(requester, self.sim.now, "grant")
        if version is None:
            version = self.module.read(block)
        else:
            self.module.write(block, version)
        # Echo the REQUEST uid so the cache can reject a duplicated grant
        # from an earlier miss on the same block (faults only).
        meta = {"txn": txn.msg.meta.get("txn")}
        if self._commit_data(txn, answer):
            meta["exclusive"] = True
        self._send(
            MessageKind.GET,
            dst=self._cache_name(requester),
            block=block,
            version=version,
            requester=requester,
            meta=meta,
        )
        self.counters.add("data_grants")
        self._finish(txn)

    def _grant_modify(self, txn: _Txn, row: Transition) -> None:
        requester = self._requester(txn)
        if row.counter:
            self.counters.add(row.counter)
        obs = self.sim.obs
        if obs is not None:
            obs.span_phase(requester, self.sim.now, "grant")
        granted = row.sends[-1] == "MGRANTED+"
        if granted:
            self._commit_modify(txn)
        self._send(
            MessageKind.MGRANTED,
            dst=self._cache_name(requester),
            block=txn.msg.block,
            flag=granted,
            requester=requester,
            meta={"txn": txn.msg.meta.get("txn")},
        )
        self._finish(txn)

    # ==================================================================
    # §3.2.1 replacement notices
    # ==================================================================
    def _eject(self, txn: _Txn, row: Transition) -> None:
        if txn.msg.rw == "read":
            self._commit_eject(txn)
            self.counters.add(row.counter)
            self._ack_eject(txn)
            return
        # Dirty eject: wait for the put(b_k, olda) data transfer.
        key = (txn.msg.src, txn.msg.block)
        if key in self._eject_data:
            self._consume_eject_data(txn, self._eject_data.pop(key))
        else:
            txn.phase = "eject-data"

    def _consume_eject_data(self, txn: _Txn, version: int) -> None:
        row = txn.row
        if row.memory_write:
            done = self._use_memory()
            self.sim.post_at(done, self._absorb_writeback, txn, version)
            return
        self.counters.add(row.counter)
        self._ack_eject(txn)

    def _absorb_writeback(self, txn: _Txn, version: int) -> None:
        self.module.write(txn.msg.block, version)
        self._commit_writeback(txn)
        self.counters.add(txn.row.counter)
        self._ack_eject(txn)

    def _ack_eject(self, txn: _Txn) -> None:
        msg = txn.msg
        # A clean notice's ack names its uid (the cache may have revoked it).
        meta = {"ej": msg.meta.get("ej")} if msg.rw == "read" else None
        self._send(MessageKind.EJECT_ACK, dst=msg.src, block=msg.block, meta=meta)
        self._finish(txn)

    # ==================================================================
    # Invalidation rounds (BROADINV or selective INVALIDATE)
    # ==================================================================
    def _invalidate(self, txn: _Txn, row: Transition) -> None:
        txn.phase = "inv"
        block = txn.msg.block
        requester = self._requester(txn)
        obs = self.sim.obs
        if obs is not None:
            obs.span_phase(requester, self.sim.now, "fanout")
        opts = self.config.options
        if opts.scrub_queued_mrequests:
            removed = self.scrub(
                block,
                lambda m: (
                    m.kind is MessageKind.MREQUEST and m.requester != requester
                ),
            )
            if removed:
                self.counters.add("mrequests_scrubbed", len(removed))
                self._on_scrubbed(removed)
        targets = self._invalidation_targets(txn)
        if targets is not None:
            txn.selective = True
            txn.acks_expected = len(targets) if opts.invalidation_acks else 0
            self.counters.add(self.selective_inv_counter, len(targets))
            # §4.1: selective sends are sequential (recipient selection +
            # message handling), unlike a broadcast's single launch.
            stagger = self.config.timing.selective_send_overhead
            for i, pid in enumerate(sorted(targets)):
                self.sim.post(
                    i * stagger,
                    partial(
                        self._send,
                        MessageKind.INVALIDATE,
                        dst=self._cache_name(pid),
                        block=block,
                        requester=requester,
                    ),
                )
        else:
            sent = self._broadcast(txn, MessageKind.BROADINV)
            txn.acks_expected = sent if opts.invalidation_acks else 0
            self.counters.add("broadinv_sent")
            self.counters.add("broadinv_commands", sent)
        self._on_invalidations_sent(txn)
        if txn.acks_expected == 0:
            self._invalidations_done(txn)
        else:
            txn.phase = "inv-wait"

    def _on_inv_ack(self, message: Message) -> None:
        txn = self._txns.get(message.block)
        if (
            txn is None
            or txn.phase != "inv-wait"
            or message.src in txn.ack_sources
        ):
            self.counters.add("stray_inv_acks")
            return
        txn.ack_sources.add(message.src)
        if len(txn.ack_sources) >= txn.acks_expected:
            self._invalidations_done(txn)

    def _invalidations_done(self, txn: _Txn) -> None:
        if self._invalidations_landed(txn):
            return
        row = txn.row
        if row.sends[-1] == "GET":
            # Write miss: now fetch the (current) memory copy.
            done = self._use_memory()
            self.sim.post_at(done, self._grant_data, txn, None, None)
        else:
            self._grant_modify(txn, row)

    # ==================================================================
    # Query rounds (BROADQUERY or selective PURGE)
    # ==================================================================
    def _query(self, txn: _Txn, row: Transition) -> None:
        if self._absorbed_own_writeback(txn):
            return
        txn.phase = "query"
        self._send_query(txn, self._query_target(txn))

    def _send_query(self, txn: _Txn, owner: Optional[int]) -> None:
        """PURGE ``owner``, or broadcast BROADQUERY when it is None.

        The query carries the REQUEST's uid and its answer echoes it, so
        a late duplicate answer to an earlier query on the block cannot
        complete this one (:meth:`_answers_query`).
        """
        block = txn.msg.block
        requester = self._requester(txn)
        obs = self.sim.obs
        if obs is not None:
            obs.span_phase(requester, self.sim.now, "fanout")
        tag = {"txn": txn.msg.meta.get("txn")}
        if owner is not None:
            txn.selective = True
            self.counters.add(self.selective_purge_counter)
            self._send(
                MessageKind.PURGE,
                dst=self._cache_name(owner),
                block=block,
                rw=txn.msg.rw,
                requester=requester,
                meta=tag,
            )
        else:
            sent = self._broadcast(
                txn, MessageKind.BROADQUERY, rw=txn.msg.rw, meta=tag
            )
            self.counters.add("broadquery_sent")
            self.counters.add("broadquery_commands", sent)

    def _on_put(self, message: Message) -> None:
        block = message.block
        if message.meta.get("for") == "eject":
            if not self._fault_dedupe(message, "ej"):
                return
            txn = self._txns.get(block)
            assert message.version is not None
            if (
                txn is not None
                and txn.msg.kind is MessageKind.EJECT
                and txn.msg.src == message.src
                and txn.phase == "eject-data"
            ):
                self._consume_eject_data(txn, message.version)
            else:
                self._eject_data[(message.src, block)] = message.version
            return
        # Answer to an outstanding query.
        txn = self._answers_query(message)
        if txn is None:
            if self.net.faults is not None:
                # Duplicated query answers are an injected fault, not a
                # broken transport: absorb them (the first copy was
                # consumed and retired the query).
                self.counters.add("duplicate_query_data_dropped")
                return
            raise RuntimeError(f"{self.name}: unexpected query data {message!r}")
        assert message.version is not None
        # Exactly one data response may be consumed; a second (possible
        # only with a corrupted/lossy transport) must fail loudly.
        txn.phase = "query-done"
        done = self._use_memory()
        self._on_query_answered(txn, message)
        self.sim.post_at(done, self._grant_data, txn, message.version, message)

    def _on_query_nocopy(self, message: Message) -> None:
        txn = self._answers_query(message)
        if txn is None:
            self._on_stray_nocopy(message)
            return
        if not self._memory_current(txn, message):
            return
        # The owner held no dirty copy: memory is current, serve from it.
        txn.phase = "query-done"
        done = self._use_memory()
        self.sim.post_at(done, self._grant_data, txn, None, message)

    def _answers_query(self, answer: Message) -> Optional[_Txn]:
        """The transaction whose outstanding query ``answer`` (a PUT or
        QUERY_NOCOPY) answers, or None for a stray or late duplicate."""
        txn = self._txns.get(answer.block)
        if (
            txn is None
            or txn.phase != "query"
            or answer.meta.get("txn") != txn.msg.meta.get("txn")
        ):
            return None
        return txn

    def _holders_after_query(self, txn: _Txn, answer: Message) -> Set[int]:
        """The requester, plus a read query's responder when it keeps
        its (now clean) copy."""
        holders = {self._requester(txn)}
        responder = answer.requester
        if (
            txn.msg.rw == "read"
            and not self.config.options.owner_invalidates_on_read_query
            and not answer.meta.get("from_wb")
            and responder is not None
        ):
            holders.add(responder)
        return holders

    # ==================================================================
    # Helpers
    # ==================================================================
    def _broadcast(
        self, txn: _Txn, kind: MessageKind, rw: Optional[str] = None,
        meta: Optional[dict] = None,
    ) -> int:
        block = txn.msg.block
        requester = self._requester(txn)
        return self.net.broadcast(
            Message(
                kind=kind,
                src=self.name,
                dst=None,
                block=block,
                rw=rw,
                requester=requester,
                meta=meta,
            ),
            exclude={self._cache_name(requester)},
            targets=self._sparse_targets(block, requester),
        )

    @staticmethod
    def _cache_name(pid: int) -> str:
        return f"cache{pid}"

    def _requester(self, txn: _Txn) -> int:
        requester = txn.msg.requester
        if requester is None:
            raise ValueError(f"message without requester: {txn.msg!r}")
        return requester

    def _send(self, kind: MessageKind, dst: str, block: int, **fields) -> None:
        self.net.send(
            Message(kind=kind, src=self.name, dst=dst, block=block, **fields)
        )

    def quiescent(self) -> bool:
        return not self._txns and not self._waiting and not self._eject_data

    # ==================================================================
    # The directory's own state: situations and commits
    # ==================================================================
    @abstractmethod
    def _situation(self, txn: _Txn) -> Hashable:
        """The row key for ``txn``'s block, as the directory sees it."""

    @abstractmethod
    def _invalidation_targets(self, txn: _Txn) -> Optional[Set[int]]:
        """Pids to INVALIDATE selectively, or None to broadcast."""

    @abstractmethod
    def _query_target(self, txn: _Txn) -> Optional[int]:
        """The owner to PURGE selectively, or None to broadcast."""

    @abstractmethod
    def _memory_current(self, txn: _Txn, message: Message) -> bool:
        """An owner answered ``txn``'s query without data: True to serve
        the requester from memory."""

    @abstractmethod
    def _on_stray_nocopy(self, message: Message) -> None:
        """A QUERY_NOCOPY arrived with no query outstanding."""

    @abstractmethod
    def _commit_data(self, txn: _Txn, answer: Optional[Message]) -> bool:
        """Record a data grant; True when it is an exclusive-clean one."""

    @abstractmethod
    def _commit_modify(self, txn: _Txn) -> None:
        """Record a granted MREQUEST: the requester owns the block."""

    @abstractmethod
    def _commit_eject(self, txn: _Txn) -> None:
        """Record a clean replacement notice."""

    @abstractmethod
    def _commit_writeback(self, txn: _Txn) -> None:
        """Record an absorbed write-back: no cache holds the block."""

    # ==================================================================
    # Hooks (no-ops here; the two-bit map's race handling uses them)
    # ==================================================================
    def _on_begin(self, message: Message) -> None:
        """A transaction is about to start for ``message``."""

    def _preempted(self, txn: _Txn, event: str) -> bool:
        """True if a race already retired ``txn`` before its row runs."""
        return False

    def _on_fetch(self, txn: _Txn) -> None:
        """A memory fetch for the requester is about to start."""

    def _on_scrubbed(self, removed) -> None:
        """Queued MREQUESTs were deleted by an invalidation round."""

    def _on_invalidations_sent(self, txn: _Txn) -> None:
        """Every other copy is now doomed."""

    def _invalidations_landed(self, txn: _Txn) -> bool:
        """Every other copy is gone; True if a race retired ``txn``
        while the round was in flight."""
        return False

    def _absorbed_own_writeback(self, txn: _Txn) -> bool:
        """True if the requester's own parked write-back answered the
        query that the row asks for."""
        return False

    def _on_query_answered(self, txn: _Txn, put: Message) -> None:
        """The owner's data answered the query."""

    def _cancel_unqueued(self, message: Message) -> None:
        """An MREQ_CANCEL found no queued MREQUEST to scrub."""

    def _sparse_targets(self, block: int, requester: int) -> Optional[Set[str]]:
        """Endpoints a broadcast is delivered to (None: all of them)."""
        return None
