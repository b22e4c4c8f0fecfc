"""Cache-side controller for the directory protocols.

One class, :class:`DirectoryCacheController`, runs the processor-cache
``P_k - C_k`` side of §3.2 for the two-bit scheme and the full-map
baselines.  It has two halves:

* the processor half runs the §3.2 instances the processor-side table
  (:mod:`repro.protocols.compiled`) escapes: replacement (§3.2.1), read
  and write misses (§3.2.2, §3.2.3) and the write hit on an unmodified
  block (§3.2.4); hits complete in the shared table step of
  :class:`AbstractCacheController`;
* the network half is a declared table, :data:`CACHE_SIDE_SPEC`.  A row
  keys a command of Table 3-1 as the cache receives it, the situation
  of the block's line, and the cache's own outstanding work on that
  block, and names the steps that run, in order.  :meth:`deliver`
  computes the key and runs the row; there is no other dispatch, so the
  table *is* the protocol, as ``TWO_BIT_SPEC``/``FULL_MAP_SPEC`` are for
  the homes.  ``repro spec`` prints it.

The rows carry the §3.2.5 races: a ``BROADINV`` that overtakes an
``MREQUEST`` acts as ``MGRANTED(false)``, an invalidation crossing a
landing fill poisons it, a query reaching a landing fill waits for it,
and a query racing a dirty ``EJECT`` is answered from the write-back
buffer (DESIGN.md ambiguity #2).  Broadcast and selective kinds share
rows, because only the sender's targeting differs; the one exception is
a cache without the block, which answers a ``PURGE`` and ignores a
``BROADQUERY``.  A snoop steals an array cycle; §4.4's duplicate
directory, when enabled, filters absent-block snoops for free.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

from repro.cache.line import CacheLine, LocalState
from repro.cache.wbbuffer import WriteBackBuffer
from repro.faults.plan import DEFAULT_MAX_RETRIES, DEFAULT_RETRY_BACKOFF
from repro.interconnect.message import Message, MessageKind
from repro.interconnect.network import Network
from repro.protocols.base import AbstractCacheController, ProtocolError
from repro.protocols.compiled import LineState, line_state
from repro.sim.kernel import Simulator
from repro.config import MachineConfig
from repro.verification.oracle import CoherenceOracle
from repro.workloads.reference import MemRef


@dataclass
class PendingOp:
    """The single outstanding processor reference being serviced."""

    #: Uid fields (see :mod:`repro.verification.state`).
    _uid_fields = {"uid": "the transaction uid its messages carry as txn"}

    ref: MemRef
    issue_time: int
    #: "mreq" while waiting for MGRANTED; "miss" while waiting for GET.
    phase: str
    uid: int
    #: GET arrived; the fill is scheduled on the array (transient state).
    data_received: bool = False
    #: An invalidation crossed the in-flight fill: the arriving data must
    #: not be installed (the read may still complete with it uncached).
    stale: bool = False
    #: Queries that arrived between our GET and the fill completing; they
    #: target the copy we are about to install and are answered after it.
    deferred: List[Message] = field(default_factory=list)
    #: NAK recovery: how often this op has been resent, and whether a
    #: resend is already scheduled (a duplicated NAK must not fork the
    #: transaction into two concurrent resends).
    retries: int = 0
    retry_scheduled: bool = False


@dataclass
class EjectRecord:
    """A replacement notice (§3.2.1) awaiting its EJECT_ACK.

    ``uid``, ``retries`` and ``retry_scheduled`` mean what they mean on
    :class:`PendingOp`, so one NAK-recovery step serves both.
    """

    #: Uid fields (see :mod:`repro.verification.state`).
    _uid_fields = {"uid": "the eject uid its notices carry as ej"}

    uid: int
    #: EJECT(k, a, "write"): the data waits in the write-back buffer.
    dirty: bool
    retries: int = 0
    retry_scheduled: bool = False
    #: The notice no longer carries the block: an EJECT_REVOKE went out
    #: (clean), or a query answer took the buffered data (dirty).
    revoked: bool = False


@dataclass
class ResendTimer:
    """The payload of a NAKed command's backoff event."""

    #: Uid fields (see :mod:`repro.verification.state`).
    _uid_fields = {"uid": "the op's uid when the NAK arrived"}

    kind: str
    block: int
    uid: int


# ======================================================================
# The table
# ======================================================================
class Absent(Enum):
    """Line situations of a block the array does not hold.

    A resident line's situation is its
    :class:`~repro.protocols.compiled.LineState`.
    """

    #: Ejected dirty; the write-back buffer still holds the live data.
    WRITE_BACK = "write-back"
    #: Ejected clean; the notice is in flight and not yet revoked.
    CLEAN_EJECT = "clean-eject"
    NOTHING = "absent"


class Pending(Enum):
    """The cache's own outstanding work on the command's block."""

    NONE = "-"
    #: MREQUEST sent, MGRANTED awaited (§3.2.4).
    MREQ = "mreq"
    #: REQUEST sent, GET awaited (§3.2.2, §3.2.3).
    MISS = "miss"
    #: The GET landed; the fill occupies the array for a few cycles.
    FILL = "fill"
    #: An invalidation crossed the landing fill: it must not be cached.
    POISONED = "poisoned"
    #: An EJECT_ACK or NAK names the block's in-flight eject.
    EJECT = "eject"
    #: A response names a transaction that is no longer outstanding.
    STALE = "stale"


#: A row cell that matches every situation of its column.
ANY = "*"

_V, _E, _D = LineState.VALID, LineState.EXCLUSIVE, LineState.DIRTY
RESIDENT = (_V, _E, _D)
_CLEAN = (_V, _E)
LINES = RESIDENT + tuple(Absent)
_LANDING = (Pending.FILL, Pending.POISONED)


@dataclass(frozen=True)
class CacheRow:
    """One row of the cache side: commands meeting a situation."""

    #: Command column: the message kind, refined where the reaction
    #: depends on the message itself (see ``DirectoryCacheController.deliver``).
    commands: Tuple[str, ...]
    #: Line situations the row covers (``LineState``/``Absent``), or ANY.
    lines: Union[str, Tuple[Enum, ...]]
    #: Pending situations the row covers, or ANY.
    pending: Union[str, Tuple[Pending, ...]]
    #: Steps (``DirectoryCacheController`` methods, minus the leading
    #: underscore), run in order.
    steps: Tuple[str, ...]
    #: Cache counter the row increments once its steps ran.
    counter: str = ""
    note: str = ""


_INV = ("BROADINV", "INVALIDATE")
_QUERY = ("BROADQUERY", "PURGE")
_GRANTS = ("MGRANTED+", "MGRANTED-")

#: The cache side of §3.2, first row first: a key (command, line,
#: pending) belongs to the first row that covers it, so the general rows
#: come last.  Combinations the protocol never reaches (a clean eject
#: in flight while a fill of the same block lands) fall to the first
#: row that matches.
CACHE_SIDE_SPEC: Tuple[CacheRow, ...] = (
    # -- invalidations --------------------------------------------------
    CacheRow(("own BROADINV", "own INVALIDATE"), ANY, ANY, (),
             note="BROADINV(a,k) spares the requester k's copy (§3.2.4)"),
    CacheRow(_INV, RESIDENT, (Pending.MREQ,),
             ("snoop_useful", "drop_line", "cancel_mreq",
              "reissue_write_miss", "ack_invalidation"),
             "invalidations_applied",
             "§3.2.5: acts as MGRANTED(false); the cancel goes out before "
             "the ack (DESIGN.md #6)"),
    CacheRow(_INV, RESIDENT, ANY,
             ("snoop_useful", "drop_line", "ack_invalidation"),
             "invalidations_applied"),
    CacheRow(_INV, ANY, (Pending.MREQ,),
             ("snoop_useless", "cancel_mreq", "reissue_write_miss",
              "ack_invalidation"),
             note="as above; a write query already took our copy"),
    CacheRow(_INV, (Absent.CLEAN_EJECT,), ANY,
             ("snoop_useless", "revoke_eject", "ack_invalidation"),
             "clean_ejects_revoked",
             "the notice in flight is stale; revoke it once, before the "
             "ack (DESIGN.md #7)"),
    CacheRow(_INV, ANY, _LANDING,
             ("snoop_useless", "poison_fill", "ack_invalidation"),
             "fills_invalidated_in_flight",
             "the landing fill is for a doomed copy: use it uncached"),
    CacheRow(_INV, ANY, ANY, ("snoop_useless", "ack_invalidation")),
    # -- queries --------------------------------------------------------
    CacheRow(_QUERY, ANY, (Pending.FILL,), ("defer_query",),
             "queries_deferred",
             "we own the landing data: answer once the fill completes"),
    CacheRow(_QUERY, (_D,), ANY, ("snoop_useful", "supply_from_line"),
             "query_data_supplied",
             "a read query keeps a clean copy (DESIGN.md #1), a write "
             "query resets the valid bit (§3.2.3)"),
    CacheRow(_QUERY, (Absent.WRITE_BACK,), ANY,
             ("snoop_useful", "supply_from_write_back"),
             "query_answered_from_wb_buffer",
             "the dirty EJECT is in flight: answer from the buffer "
             "(DESIGN.md #2)"),
    CacheRow(_QUERY, _CLEAN, ANY, ("snoop_useful", "answer_clean"),
             "query_found_clean_copy",
             "exclusive-clean owner (§2.4.3); anomalous elsewhere"),
    CacheRow(("PURGE",), ANY, ANY, ("snoop_useless", "answer_nocopy"),
             note="the selective home awaits the addressee's answer"),
    CacheRow(("BROADQUERY",), ANY, ANY, ("snoop_useless",),
             note="an uninvolved cache stays silent"),
    # -- data and modification grants -----------------------------------
    CacheRow(("GET",), ANY, (Pending.MISS,), ("fill",),
             note="the miss data lands and occupies the array"),
    CacheRow(("GET",), ANY, ANY, ("absorb_duplicate",),
             "duplicate_gets_dropped",
             "a duplicated GET: only a fault plan makes one"),
    CacheRow(("MGRANTED+",), RESIDENT, (Pending.MREQ,), ("complete_write",),
             note="§3.2.4: the store completes on our copy"),
    CacheRow(("MGRANTED+",), ANY, (Pending.MREQ,), ("lost_grant",),
             note="error: the copy to write is gone"),
    CacheRow(("MGRANTED-",), RESIDENT, (Pending.MREQ,),
             ("drop_line", "reissue_write_miss"), "mgranted_denied",
             "§3.2.5: our copy is stale; retry as a write miss"),
    CacheRow(("MGRANTED-",), ANY, (Pending.MREQ,), ("reissue_write_miss",),
             "mgranted_denied"),
    CacheRow(_GRANTS, ANY, ANY, (), "stale_mgranted",
             "grant for an MREQUEST already converted (§3.2.5)"),
    # -- NAK recovery and replacement acks (fault plans) ----------------
    CacheRow(("NAK(REQUEST)",), ANY, (Pending.MISS,) + _LANDING, ("retry",)),
    CacheRow(("NAK(MREQUEST)",), ANY, (Pending.MREQ,), ("retry",)),
    CacheRow(("NAK(EJECT)",), ANY, (Pending.EJECT,), ("retry",)),
    CacheRow(("NAK(REQUEST)", "NAK(MREQUEST)", "NAK(EJECT)"), ANY, ANY, (),
             "stale_naks", "the command converted, completed or was acked"),
    CacheRow(("EJECT_ACK(clean)",), ANY, (Pending.EJECT,), ("retire_eject",)),
    CacheRow(("EJECT_ACK(clean)",), ANY, ANY, (),
             note="a stale or duplicated ack: nothing left to retire"),
    CacheRow(("EJECT_ACK(dirty)",), ANY, (Pending.EJECT,),
             ("retire_eject", "release_write_back")),
    CacheRow(("EJECT_ACK(dirty)",), ANY, ANY, ("absorb_duplicate",),
             "duplicate_eject_acks_dropped",
             "a duplicated ack: only a fault plan makes one"),
)

#: Responses matched to the pending op by its transaction uid.
_TXN_RESPONSES = frozenset(
    {"GET", "MGRANTED+", "MGRANTED-", "NAK(REQUEST)", "NAK(MREQUEST)"}
)
#: Responses that name a replacement notice.
_EJECT_RESPONSES = frozenset(
    {"NAK(EJECT)", "EJECT_ACK(clean)", "EJECT_ACK(dirty)"}
)
#: Message kind -> command column, for the kinds taken as they are.
_COMMANDS = {
    kind: kind.name
    for kind in (
        MessageKind.BROADINV,
        MessageKind.INVALIDATE,
        MessageKind.BROADQUERY,
        MessageKind.PURGE,
        MessageKind.GET,
    )
}
_BROADCASTS = (MessageKind.BROADINV, MessageKind.BROADQUERY)


def expand_rows(
    rows: Iterable[CacheRow],
) -> Dict[Tuple[str, str, str], CacheRow]:
    """Key every (command, line, pending) the rows cover, by value.

    The first row covering a key owns it; a row that owns no key is
    shadowed by the rows above it, which is a table error.
    """
    table: Dict[Tuple[str, str, str], CacheRow] = {}
    for row in rows:
        lines = LINES if row.lines == ANY else row.lines
        pendings = tuple(Pending) if row.pending == ANY else row.pending
        owned = False
        for key in itertools.product(
            row.commands,
            [line.value for line in lines],
            [pending.value for pending in pendings],
        ):
            if key not in table:
                table[key] = row
                owned = True
        if not owned:
            raise ValueError(f"cache-side row is shadowed: {row}")
    return table


def _cell(cell) -> str:
    if cell == ANY:
        return ANY
    return "|".join(situation.value for situation in cell)


def render_cache_side_spec() -> str:
    """:data:`CACHE_SIDE_SPEC` as text: one line per row, then notes."""
    from repro.stats.tables import Table

    table = Table(
        header=["#", "command", "line", "pending", "cache steps", "counter"],
        title="Cache side (§3.2): reactions to the home's commands",
    )
    notes = []
    for number, row in enumerate(CACHE_SIDE_SPEC, 1):
        table.add_row(
            [
                str(number),
                "|".join(row.commands),
                _cell(row.lines),
                _cell(row.pending),
                " -> ".join(row.steps) or "-",
                row.counter,
            ]
        )
        if row.note:
            notes.append(f"  {number:>2}  {row.note}")
    return "\n".join([table.render(), "", "notes:", *notes])


# ======================================================================
# The controller
# ======================================================================
class DirectoryCacheController(AbstractCacheController):
    """Write-back cache controller speaking the directory protocols."""

    #: Non-state fields (see :mod:`repro.verification.state`).
    _not_state = {"home_fn": "a pure function of the address map"}

    #: (command, line, pending) -> row: the network half's only
    #: dispatch.  Shared by every instance; a test that edits rows
    #: assigns its own expansion to one instance.
    _rows = expand_rows(CACHE_SIDE_SPEC)

    def __init__(
        self,
        sim: Simulator,
        pid: int,
        config: MachineConfig,
        net: Network,
        home_fn: Callable[[int], str],
        oracle: CoherenceOracle,
    ) -> None:
        super().__init__(sim, pid, config, oracle)
        self.net = net
        self.home_fn = home_fn
        self.wb_buffer = WriteBackBuffer(capacity=config.options.wb_capacity)
        self.pending: Optional[PendingOp] = None
        #: block -> its replacement notice awaiting EJECT_ACK.  One per
        #: block: a miss on a block whose eject is unacknowledged waits
        #: for the ack under a fault plan, and otherwise the ack arrives
        #: ahead of the miss's GET on the same FIFO path.
        self._ejects: Dict[int, EjectRecord] = {}

    # ==================================================================
    # Processor interface
    # ==================================================================
    def _classify(self, ref: MemRef, issue_time: int) -> None:
        # The escape rows of the §3.2 table: hits completed in the
        # table step, so a resident line here is a write hit on an
        # unmodified block.
        line = self.array.lookup(ref.block)
        obs = self.sim.obs
        if line is not None:
            # §3.2.4: write hit on previously unmodified block.
            self.array.touch(line)
            self.counters.add("write_hits_unmodified")
            if obs is not None:
                # Sticks even if the MREQUEST is denied and converted to
                # a write miss (§3.2.5), so span counts match the
                # write_hits_unmodified counter exactly.
                obs.span_outcome(ref.pid, "WH-unmod")
            # Ask the home controller for modification rights.
            self.pending = PendingOp(ref=ref, issue_time=issue_time,
                                     phase="mreq", uid=self.sim.uid())
            self._to_home(MessageKind.MREQUEST, ref.block,
                          meta={"txn": self.pending.uid})
            return
        # Miss: replacement (§3.2.1) then REQUEST (§3.2.2 / §3.2.3).
        self.counters.add("write_misses" if ref.is_write else "read_misses")
        if obs is not None:
            obs.span_outcome(ref.pid, "WM" if ref.is_write else "RM")
        self._begin_miss(ref, issue_time, 0)

    def _begin_miss(self, ref: MemRef, issue_time: int, attempt: int) -> None:
        """Evict the victim and issue the REQUEST — unless the eviction
        needs a write-back slot and the buffer is full, in which case the
        miss backs off and retries (structured backpressure; the buffer
        drains as EJECT_ACKs arrive)."""
        if self.net.faults is not None and ref.block in self._ejects:
            # Our own EJECT of this very block is still bouncing on
            # NAKs.  Re-requesting now inverts admission order at the
            # home: the REQUEST gets served, then the late EJECT lands
            # and destroys the fresh grant's directory state (clean
            # case) or absorbs a stale write-back over it (dirty case).
            # Hold the miss until the eject is acked; the eject's own
            # give-up bound caps how long that can take.
            self._back_off(
                ref, issue_time, attempt, 4 * self._max_retries(),
                "self_eject_miss_stalls",
                f"miss on block {ref.block} stalled behind its own "
                f"in-flight eject after {attempt} backoff attempts",
            )
            return
        frame = self.array.frame_for(ref.block)
        if frame.valid and frame.modified and self.wb_buffer.full:
            self._back_off(
                ref, issue_time, attempt, self._max_retries(),
                "wb_backpressure_stalls",
                f"write-back buffer still full after {attempt} backoff "
                f"attempts (miss on block {ref.block})",
            )
            return
        self._evict_frame(frame)
        self.pending = PendingOp(ref=ref, issue_time=issue_time,
                                 phase="miss", uid=self.sim.uid())
        self._to_home(MessageKind.REQUEST, ref.block,
                      rw="write" if ref.is_write else "read",
                      meta={"txn": self.pending.uid})

    def _back_off(self, ref: MemRef, issue_time: int, attempt: int,
                  limit: int, counter: str, stalled: str) -> None:
        """Retry the miss after a backoff; give up past ``limit`` attempts."""
        if attempt >= limit:
            raise ProtocolError(f"{self.name}: {stalled}")
        self.counters.add(counter)
        self._note_retry(ref.pid)
        self.sim.post(self._backoff_delay(attempt + 1),
                      self._begin_miss, ref, issue_time, attempt + 1)

    def _evict_frame(self, frame: CacheLine) -> None:
        """§3.2.1 replacement protocol for the frame a miss will occupy.

        The caller found the frame once, so the backpressured miss path
        never re-runs the replacement policy (a second policy draw would
        perturb seeded victim selection).
        """
        if not frame.valid:
            return  # case 1: valid bit off, nothing to do
        victim = frame.block
        assert victim is not None
        dirty = frame.modified
        uid = self.sim.uid()
        self._ejects[victim] = EjectRecord(uid=uid, dirty=dirty)
        # case 2: EJECT(k, olda, "read"), keeping Present1 accurate;
        # case 3: EJECT(k, olda, "write") followed by put(b_k, olda).
        self.counters.add("ejects_dirty" if dirty else "ejects_clean")
        if dirty:
            self.wb_buffer.insert(victim, frame.version)
        self._to_home(MessageKind.EJECT, victim, rw="write" if dirty else "read",
                      meta={"ej": uid})
        if dirty:
            self._to_home(MessageKind.PUT, victim, version=frame.version,
                          meta={"for": "eject", "ej": uid})
        frame.reset()

    # ==================================================================
    # Completion
    # ==================================================================
    def _fill_and_complete(self, message: Message, pending: PendingOp) -> None:
        self.pending = None
        version = message.version
        assert version is not None
        ref, issue_time = pending.ref, pending.issue_time
        if pending.stale:
            # An invalidation crossed the fill: the data was current when
            # our transaction was serialized, so a read may still consume
            # it, but it must not be cached.
            if ref.is_write:
                raise RuntimeError(
                    f"{self.name}: write-miss fill invalidated in flight "
                    "(must be impossible under per-block serialization)"
                )
            self.counters.add("stale_fills_uncached")
            self._finish_read(ref, issue_time, version, hit=False)
        else:
            line = self.array.fill(ref.block, version=version, modified=False)
            if message.meta.get("exclusive"):
                line.local = LocalState.EXCLUSIVE
            if ref.is_write:
                self._perform_write(line, ref, issue_time, hit=False)
            else:
                self._finish_read(ref, issue_time, version, hit=False)
        # Answer the queries that arrived while the fill was landing.
        for query in pending.deferred:
            self.counters.add("deferred_queries_replayed")
            self.deliver(query)

    # ==================================================================
    # Network interface: the row dispatch
    # ==================================================================
    @staticmethod
    def _refined_command(message: Message) -> str:
        """The command column of a kind the reaction splits."""
        kind = message.kind
        if kind is MessageKind.MGRANTED:
            return "MGRANTED+" if message.flag else "MGRANTED-"
        if kind is MessageKind.NAK:
            return f"NAK({message.meta.get('kind')})"
        if kind is MessageKind.EJECT_ACK:
            # A clean notice's ack names its uid; a dirty one's does not.
            return "EJECT_ACK(clean)" if "ej" in message.meta else "EJECT_ACK(dirty)"
        return kind.name  # no row: the dispatch rejects it

    def deliver(self, message: Message) -> None:
        """Run the row ``message`` meets in this cache's situation."""
        command = _COMMANDS.get(message.kind)
        if command is None:
            command = self._refined_command(message)
        elif message.requester == self.pid and command in _INV:
            command = "own " + command
        block = message.block
        line = self.array.lookup(block)
        if line is not None:
            where = line_state(line).value
        else:
            record = self._ejects.get(block)
            if record is None or record.revoked:
                where = "absent"
            elif record.dirty:
                where = "write-back"
            else:
                where = "clean-eject"
        pending = self.pending
        if command in _EJECT_RESPONSES:
            phase = "eject" if self._names_eject(command, message) else "stale"
        elif pending is None or pending.ref.block != block:
            phase = "-"
        elif (
            command in _TXN_RESPONSES
            and message.meta.get("txn") != pending.uid
        ):
            phase = "stale"
        elif pending.phase == "mreq":
            phase = "mreq"
        elif not pending.data_received:
            phase = "miss"
        else:
            phase = "poisoned" if pending.stale else "fill"
        row = self._rows.get((command, where, phase))
        if row is None:
            raise ValueError(f"{self.name} cannot handle {message!r}")
        for step in row.steps:
            _STEPS[step](self, message, line, pending)
        if row.counter:
            self.counters.add(row.counter)

    def _names_eject(self, command: str, message: Message) -> bool:
        """Whether an eject response is for the block's in-flight eject."""
        if command == "EJECT_ACK(dirty)":
            return message.block in self.wb_buffer
        record = self._ejects.get(message.block)
        return record is not None and record.uid == message.meta.get("ej")

    # ------------------------------------------------------------------
    # Steps: every one takes (message, line, pending), where ``line`` is
    # the resident line or None and ``pending`` the outstanding op.
    # ------------------------------------------------------------------
    def _snoop_useful(self, message, line, pending) -> None:
        self.charge_snoop(True)

    def _snoop_useless(self, message, line, pending) -> None:
        self.charge_snoop(False, message.kind in _BROADCASTS)

    def _drop_line(self, message, line, pending) -> None:
        line.reset()

    def _cancel_mreq(self, message, line, pending) -> None:
        """Withdraw the overtaken MREQUEST (DESIGN.md #6): it may still be
        queued at the home, and granting it once we hold no copy would
        install a phantom owner.  Sent before our INV_ACK, so per-path
        FIFO gets it to the home before the round can complete."""
        self._to_home(MessageKind.MREQ_CANCEL, message.block,
                      meta={"txn": pending.uid})

    def _reissue_write_miss(self, message, line, pending) -> None:
        """Retry the store as a write miss (§3.2.5) under a fresh uid."""
        self.counters.add("mreq_converted_to_miss")
        pending.phase = "miss"
        pending.uid = self.sim.uid()
        # Fresh command, fresh retry budget: a NAK against the new
        # REQUEST must not be mistaken for a duplicate of one answered
        # while we were still an MREQUEST (the scheduled resend, if any,
        # drops itself on the uid mismatch).
        pending.retries = 0
        pending.retry_scheduled = False
        self._to_home(MessageKind.REQUEST, message.block, rw="write",
                      meta={"txn": pending.uid})

    def _revoke_eject(self, message, line, pending) -> None:
        """Revoke our stale clean EJECT: processed later, it would
        collapse Present1 to Absent for the new holder (DESIGN.md #7).
        It goes out before our INV_ACK, once per notice (the revoke is
        idempotent at the home, and the sparse fan-out stops addressing
        this cache after the first round)."""
        record = self._ejects[message.block]
        record.revoked = True
        self._to_home(MessageKind.EJECT_REVOKE, message.block,
                      meta={"ej": record.uid})

    def _poison_fill(self, message, line, pending) -> None:
        pending.stale = True

    def _ack_invalidation(self, message, line, pending) -> None:
        if self.config.options.invalidation_acks:
            self._send(MessageKind.INV_ACK, message.src, message.block,
                       meta={"had_copy": line is not None})

    def _defer_query(self, message, line, pending) -> None:
        pending.deferred.append(message)

    def _keeps_copy(self, message: Message) -> bool:
        """A read query leaves the owner a clean copy, except in the
        paper-literal mode, where the directory records only the
        requester afterwards (§3.2.2: the state becomes Present1)."""
        return (
            message.rw != "write"
            and not self.config.options.owner_invalidates_on_read_query
        )

    def _supply_from_line(self, message, line, pending) -> None:
        version = line.version
        if self._keeps_copy(message):
            line.modified = False
        else:
            line.reset()
        self._answer(message, MessageKind.PUT, version=version,
                     meta={"for": "query", "from_wb": False})

    def _supply_from_write_back(self, message, line, pending) -> None:
        entry = self.wb_buffer.supersede(message.block)
        self._ejects[message.block].revoked = True
        self._answer(message, MessageKind.PUT, version=entry.version,
                     meta={"for": "query", "from_wb": True})

    def _answer_clean(self, message, line, pending) -> None:
        if self._keeps_copy(message):
            line.local = LocalState.NONE
        else:
            line.reset()
        self._answer(message, MessageKind.QUERY_NOCOPY, meta={"had_clean": True})

    def _answer_nocopy(self, message, line, pending) -> None:
        self._answer(message, MessageKind.QUERY_NOCOPY, meta={"had_clean": False})

    def _answer(self, query: Message, kind: MessageKind, meta: dict,
                **fields) -> None:
        """Reply to ``query``, echoing its transaction uid: the home
        consumes only the answer to the query it has outstanding."""
        meta["txn"] = query.meta.get("txn")
        self._send(kind, dst=query.src, block=query.block, meta=meta, **fields)

    def _fill(self, message, line, pending) -> None:
        pending.data_received = True
        done = self._use_array(stolen=False)
        self.sim.post_at(done, self._fill_and_complete, message, pending)

    def _absorb_duplicate(self, message, line, pending) -> None:
        """The injected copy carries what the consumed original did."""
        if self.net.faults is None:
            raise RuntimeError(
                f"{self.name}: unexpected data or ack arrival {message!r}"
            )

    def _complete_write(self, message, line, pending) -> None:
        self.pending = None
        self._perform_write(line, pending.ref, pending.issue_time, hit=True)

    def _lost_grant(self, message, line, pending) -> None:
        raise RuntimeError(f"{self.name}: MGRANTED(true) for a block we lost")

    def _retry(self, message, line, pending) -> None:
        """NAK recovery (fault plans only): resend after a backoff, within
        a bounded budget."""
        kind = message.meta["kind"]
        block = message.block
        op = self._ejects[block] if kind == "EJECT" else pending
        if op.retry_scheduled:
            self.counters.add("duplicate_naks_dropped")
            return
        if op.retries >= self._max_retries():
            raise ProtocolError(
                f"{self.name}: {kind} for block {block} NAKed "
                f"{op.retries + 1} times; giving up"
            )
        op.retries += 1
        op.retry_scheduled = True
        self._note_retry(self.pid)
        self.sim.post(self._backoff_delay(op.retries),
                      self._resend, ResendTimer(kind, block, op.uid))

    def _resend(self, timer: ResendTimer) -> None:
        kind, block, uid = timer.kind, timer.block, timer.uid
        op = self._ejects.get(block) if kind == "EJECT" else self.pending
        if op is None or op.uid != uid:
            # Converted (BROADINV turned the MREQUEST into a write miss),
            # completed, or acked while the backoff ran.
            self.counters.add("retries_abandoned")
            return
        op.retry_scheduled = False
        self.counters.add("retries_sent")
        if kind == "EJECT":
            # Resend only the notice: a dirty eject's put(b_k, olda) was
            # never NAKed and is parked at the home.
            fields = {"rw": "write" if op.dirty else "read", "meta": {"ej": uid}}
        else:
            fields = {"meta": {"txn": uid}}
            if kind == "REQUEST":
                fields["rw"] = "write" if op.ref.is_write else "read"
        self._to_home(MessageKind[kind], block, **fields)

    def _retire_eject(self, message, line, pending) -> None:
        self._ejects.pop(message.block, None)

    def _release_write_back(self, message, line, pending) -> None:
        self.wb_buffer.release(message.block)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _fault_spec(self):
        faults = self.net.faults
        return None if faults is None else faults.spec

    def _max_retries(self) -> int:
        spec = self._fault_spec()
        return spec.max_retries if spec is not None else DEFAULT_MAX_RETRIES

    def _backoff_delay(self, attempt: int) -> int:
        spec = self._fault_spec()
        base = spec.retry_backoff if spec is not None else DEFAULT_RETRY_BACKOFF
        return base << min(attempt - 1, 4)

    def _note_retry(self, pid: int) -> None:
        self.counters.add("retries_scheduled")
        obs = self.sim.obs
        if obs is not None:
            obs.span_phase(pid, self.sim.now, "retry")

    def _send(self, kind: MessageKind, dst: str, block: int, **fields) -> None:
        fields.setdefault("requester", self.pid)
        self.net.send(Message(kind=kind, src=self.name, dst=dst, block=block, **fields))

    def _to_home(self, kind: MessageKind, block: int, **fields) -> None:
        self._send(kind, self.home_fn(block), block, **fields)

    # ------------------------------------------------------------------
    # Introspection for audits
    # ------------------------------------------------------------------
    def quiescent(self) -> bool:
        """No outstanding reference and no unacknowledged eject."""
        return self.pending is None and len(self.wb_buffer) == 0 and not self._ejects


#: Step name -> the method a row runs.
_STEPS = {
    step: getattr(DirectoryCacheController, f"_{step}")
    for row in CACHE_SIDE_SPEC
    for step in row.steps
}
