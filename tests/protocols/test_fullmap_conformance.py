"""Conformance harness for the full-map baseline (§2.4.2).

Mirror of the two-bit conformance suite: a stub network plays every
cache, each directory situation is injected directly, and the emitted
command sequence plus the resulting presence vector are checked against
the expected behaviour.  Situations are described relative to the
requester: who else holds the block, and whether it is dirty/exclusive
(:class:`~repro.protocols.fullmap.Situation`).  The controller dispatches
on the rows of ``FULL_MAP_SPEC``, so the suite checks the message
choreography each row produces; every declared row has a case.
"""

from typing import List, NamedTuple, Optional, Set, Tuple

import pytest

from repro.config import MachineConfig, ProtocolOptions
from repro.interconnect.message import Message, MessageKind
from repro.memory.module import MemoryModule
from repro.protocols.fullmap import (
    FULL_MAP_LOCAL_SPEC,
    FULL_MAP_SPEC,
    FullMapDirectoryController,
    Situation,
)
from repro.protocols.fullmap_local import LocalStateFullMapController
from repro.sim.kernel import Simulator
from repro.stats.counters import CounterSet

N_CACHES = 4
LATENCY = 2
BLOCK = 2
DIRTY_VERSION = 88
CLEAN_VERSION = 11


class StubNet:
    """Interconnect + every cache, for one directory controller."""

    def __init__(self, sim, dirty_owner: Optional[int]):
        self.sim = sim
        self.dirty_owner = dirty_owner
        self.counters = CounterSet("stubnet")
        self.faults = None
        self.ctrl = None
        self.sent: List[str] = []

    def _label(self, message: Message) -> str:
        if message.kind is MessageKind.MGRANTED:
            return "MGRANTED+" if message.flag else "MGRANTED-"
        if message.kind in (MessageKind.INVALIDATE, MessageKind.PURGE):
            return f"{message.kind.name}->{message.dst}"
        return message.kind.name

    def send(self, message: Message) -> None:
        self.sent.append(self._label(message))
        pid = int(message.dst.replace("cache", "")) if message.dst.startswith("cache") else None
        if message.kind is MessageKind.INVALIDATE:
            self.sim.post(LATENCY, self._ack, message, pid)
        elif message.kind is MessageKind.PURGE:
            self.sim.post(LATENCY, self._purge_reply, message, pid)

    def broadcast(self, message, exclude=None):  # pragma: no cover
        raise AssertionError("the full map must never broadcast")

    def _ack(self, message: Message, pid: int) -> None:
        self.ctrl.deliver(
            Message(
                kind=MessageKind.INV_ACK,
                src=f"cache{pid}",
                dst=self.ctrl.name,
                block=message.block,
                requester=pid,
            )
        )

    def _purge_reply(self, message: Message, pid: int) -> None:
        if pid == self.dirty_owner:
            if message.rw == "write":
                pass  # owner invalidates; nothing extra to model
            self.ctrl.deliver(
                Message(
                    kind=MessageKind.PUT,
                    src=f"cache{pid}",
                    dst=self.ctrl.name,
                    block=message.block,
                    requester=pid,
                    version=DIRTY_VERSION,
                    # Echo the query's uid, as a real cache does.
                    meta={"for": "query", "from_wb": False,
                          "txn": message.meta.get("txn")},
                )
            )
        else:
            # Exclusive-clean owner: clean acknowledgement.
            self.ctrl.deliver(
                Message(
                    kind=MessageKind.QUERY_NOCOPY,
                    src=f"cache{pid}",
                    dst=self.ctrl.name,
                    block=message.block,
                    requester=pid,
                    meta={"had_clean": True, "txn": message.meta.get("txn")},
                )
            )


def make(owners: Set[int], modified: bool, exclusive: bool = False,
         local_state: bool = False):
    sim = Simulator()
    config = MachineConfig(
        n_processors=N_CACHES, n_modules=1, n_blocks=4,
        options=ProtocolOptions(),
    )
    module = MemoryModule(sim, 0, blocks=range(4))
    module.write(BLOCK, CLEAN_VERSION)
    dirty_owner = next(iter(owners)) if modified else None
    net = StubNet(sim, dirty_owner)
    cls = LocalStateFullMapController if local_state else FullMapDirectoryController
    ctrl = cls(sim, 0, config, net, module, n_caches=N_CACHES)
    net.ctrl = ctrl
    entry = ctrl.directory.entry(BLOCK)
    entry.owners = set(owners)
    entry.modified = modified
    entry.exclusive = exclusive
    ctrl.directory.commit(BLOCK, entry)
    return sim, net, ctrl, module


def request(ctrl, kind, requester, rw=None):
    ctrl.deliver(
        Message(
            kind=kind,
            src=f"cache{requester}",
            dst=ctrl.name,
            block=BLOCK,
            rw=rw,
            requester=requester,
            meta={"txn": 5},
        )
    )


def eject(ctrl, ejector, dirty):
    """A replacement notice; a dirty one is followed by its put data."""
    ctrl.deliver(
        Message(
            kind=MessageKind.EJECT,
            src=f"cache{ejector}",
            dst=ctrl.name,
            block=BLOCK,
            rw="write" if dirty else "read",
            requester=ejector,
            meta={"ej": 7},
        )
    )
    if dirty:
        ctrl.deliver(
            Message(
                kind=MessageKind.PUT,
                src=f"cache{ejector}",
                dst=ctrl.name,
                block=BLOCK,
                requester=ejector,
                version=DIRTY_VERSION,
                meta={"for": "eject", "ej": 7},
            )
        )


# ----------------------------------------------------------------------
# Read misses
# ----------------------------------------------------------------------
def test_read_miss_absent_serves_memory():
    sim, net, ctrl, module = make(set(), modified=False)
    request(ctrl, MessageKind.REQUEST, requester=0, rw="read")
    sim.run(max_events=10_000)
    assert net.sent == ["GET"]
    assert ctrl.directory.entry(BLOCK).owners == {0}


def test_read_miss_shared_adds_reader_no_commands():
    sim, net, ctrl, module = make({1, 2}, modified=False)
    request(ctrl, MessageKind.REQUEST, requester=0, rw="read")
    sim.run(max_events=10_000)
    assert net.sent == ["GET"]
    assert ctrl.directory.entry(BLOCK).owners == {0, 1, 2}


def test_read_miss_dirty_purges_exactly_the_owner():
    sim, net, ctrl, module = make({3}, modified=True)
    request(ctrl, MessageKind.REQUEST, requester=0, rw="read")
    sim.run(max_events=10_000)
    assert net.sent == ["PURGE->cache3", "GET"]
    entry = ctrl.directory.entry(BLOCK)
    assert entry.owners == {0, 3} and not entry.modified
    assert module.peek(BLOCK) == DIRTY_VERSION


# ----------------------------------------------------------------------
# Write misses
# ----------------------------------------------------------------------
def test_write_miss_shared_invalidates_each_holder():
    sim, net, ctrl, module = make({1, 3}, modified=False)
    request(ctrl, MessageKind.REQUEST, requester=0, rw="write")
    sim.run(max_events=10_000)
    assert net.sent == ["INVALIDATE->cache1", "INVALIDATE->cache3", "GET"]
    entry = ctrl.directory.entry(BLOCK)
    assert entry.owners == {0} and entry.modified


def test_write_miss_dirty_purges_owner():
    sim, net, ctrl, module = make({2}, modified=True)
    request(ctrl, MessageKind.REQUEST, requester=0, rw="write")
    sim.run(max_events=10_000)
    assert net.sent == ["PURGE->cache2", "GET"]
    entry = ctrl.directory.entry(BLOCK)
    assert entry.owners == {0} and entry.modified


# ----------------------------------------------------------------------
# MREQUESTs
# ----------------------------------------------------------------------
def test_mrequest_sole_owner_granted_silently():
    sim, net, ctrl, module = make({1}, modified=False)
    request(ctrl, MessageKind.MREQUEST, requester=1)
    sim.run(max_events=10_000)
    assert net.sent == ["MGRANTED+"]
    assert ctrl.directory.entry(BLOCK).modified


def test_mrequest_with_sharers_invalidates_others_only():
    sim, net, ctrl, module = make({0, 1, 2}, modified=False)
    request(ctrl, MessageKind.MREQUEST, requester=1)
    sim.run(max_events=10_000)
    assert net.sent == ["INVALIDATE->cache0", "INVALIDATE->cache2", "MGRANTED+"]
    entry = ctrl.directory.entry(BLOCK)
    assert entry.owners == {1} and entry.modified


def test_mrequest_from_non_owner_denied():
    sim, net, ctrl, module = make({2}, modified=False)
    request(ctrl, MessageKind.MREQUEST, requester=0)
    sim.run(max_events=10_000)
    assert net.sent == ["MGRANTED-"]
    assert not ctrl.directory.entry(BLOCK).modified


# ----------------------------------------------------------------------
# Local-state variant (Yen-Fu)
# ----------------------------------------------------------------------
def test_local_state_lone_read_granted_exclusive():
    sim, net, ctrl, module = make(set(), modified=False, local_state=True)
    request(ctrl, MessageKind.REQUEST, requester=0, rw="read")
    sim.run(max_events=10_000)
    assert net.sent == ["GET"]
    assert ctrl.directory.entry(BLOCK).exclusive


def test_local_state_exclusive_clean_purge_serves_memory():
    sim, net, ctrl, module = make(
        {2}, modified=False, exclusive=True, local_state=True
    )
    net.dirty_owner = None  # owner never silently upgraded: clean reply
    request(ctrl, MessageKind.REQUEST, requester=0, rw="read")
    sim.run(max_events=10_000)
    assert net.sent == ["PURGE->cache2", "GET"]
    entry = ctrl.directory.entry(BLOCK)
    assert entry.owners == {0, 2}
    assert not entry.exclusive
    assert module.peek(BLOCK) == CLEAN_VERSION  # memory was current


def test_local_state_silently_upgraded_purge_collects_data():
    sim, net, ctrl, module = make(
        {2}, modified=False, exclusive=True, local_state=True
    )
    net.dirty_owner = 2  # the owner did silently upgrade
    request(ctrl, MessageKind.REQUEST, requester=0, rw="read")
    sim.run(max_events=10_000)
    assert net.sent == ["PURGE->cache2", "GET"]
    assert module.peek(BLOCK) == DIRTY_VERSION


# ----------------------------------------------------------------------
# Storage
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n", [4, 16, 64])
def test_storage_grows_with_processor_count(n):
    from repro.protocols.fullmap import FullMapDirectory

    directory = FullMapDirectory(blocks=range(8))
    assert directory.storage_bits(n) == (n + 1) * 8


# ----------------------------------------------------------------------
# Write miss on an uncached block; ejects; MREQUEST on a modified block
# ----------------------------------------------------------------------
def test_write_miss_uncached_fetches_memory():
    sim, net, ctrl, module = make(set(), modified=False)
    request(ctrl, MessageKind.REQUEST, requester=0, rw="write")
    sim.run(max_events=10_000)
    assert net.sent == ["GET"]
    entry = ctrl.directory.entry(BLOCK)
    assert entry.owners == {0} and entry.modified


def test_clean_eject_drops_the_ejector():
    sim, net, ctrl, module = make({0, 1}, modified=False)
    eject(ctrl, 0, dirty=False)
    sim.run(max_events=10_000)
    assert net.sent == ["EJECT_ACK"]
    assert ctrl.directory.entry(BLOCK).owners == {1}
    assert ctrl.counters["eject_clean"] == 1


def test_last_clean_eject_clears_exclusive():
    sim, net, ctrl, module = make(
        {0}, modified=False, exclusive=True, local_state=True
    )
    eject(ctrl, 0, dirty=False)
    sim.run(max_events=10_000)
    assert net.sent == ["EJECT_ACK"]
    entry = ctrl.directory.entry(BLOCK)
    assert entry.owners == set() and not entry.exclusive


def test_dirty_eject_from_the_owner_is_absorbed():
    sim, net, ctrl, module = make({0}, modified=True)
    eject(ctrl, 0, dirty=True)
    sim.run(max_events=10_000)
    assert net.sent == ["EJECT_ACK"]
    entry = ctrl.directory.entry(BLOCK)
    assert entry.owners == set() and not entry.modified
    assert module.peek(BLOCK) == DIRTY_VERSION
    assert ctrl.counters["writebacks_absorbed"] == 1


def test_stale_dirty_eject_is_dropped():
    # A purge already moved ownership to cache 2; cache 0's write-back
    # is stale and must not overwrite memory.
    sim, net, ctrl, module = make({2}, modified=True)
    eject(ctrl, 0, dirty=True)
    sim.run(max_events=10_000)
    assert net.sent == ["EJECT_ACK"]
    entry = ctrl.directory.entry(BLOCK)
    assert entry.owners == {2} and entry.modified
    assert module.peek(BLOCK) == CLEAN_VERSION
    assert ctrl.counters["eject_dropped_stale"] == 1


def test_mrequest_on_modified_block_denied():
    sim, net, ctrl, module = make({2}, modified=True)
    request(ctrl, MessageKind.MREQUEST, requester=0)
    sim.run(max_events=10_000)
    assert net.sent == ["MGRANTED-"]
    entry = ctrl.directory.entry(BLOCK)
    assert entry.owners == {2} and entry.modified


# ----------------------------------------------------------------------
# Every row of the table
# ----------------------------------------------------------------------
class Case(NamedTuple):
    """One row's setup (the entry; cache 0 always asks) and outcome."""

    owners: Set[int]
    modified: bool
    exclusive: bool
    sends: Tuple[str, ...]
    #: Entry afterwards: (owners, modified, exclusive).
    after: Tuple[Set[int], bool, bool]
    memory: int = CLEAN_VERSION


S = Situation
GET, ACK = ("GET",), ("EJECT_ACK",)
PURGE2, PURGE0 = ("PURGE->cache2", "GET"), ("PURGE->cache0", "GET")

#: (situation, event) -> the case that drives the row with cache 0.
ROW_CASES = {
    (S.UNCACHED, "read_miss"): Case(set(), False, False, GET, ({0}, False, False)),
    (S.SOLE, "read_miss"): Case({0}, False, False, GET, ({0}, False, False)),
    (S.SHARED, "read_miss"): Case({1, 3}, False, False, GET,
                                  ({0, 1, 3}, False, False)),
    (S.SHARER, "read_miss"): Case({0, 1}, False, False, GET,
                                  ({0, 1}, False, False)),
    (S.DIRTY, "read_miss"): Case({2}, True, False, PURGE2,
                                 ({0, 2}, False, False), DIRTY_VERSION),
    (S.OWNED, "read_miss"): Case({0}, True, False, PURGE0,
                                 ({0}, False, False), DIRTY_VERSION),
    (S.UNCACHED, "write_miss"): Case(set(), False, False, GET, ({0}, True, False)),
    (S.SOLE, "write_miss"): Case({0}, False, False, GET, ({0}, True, False)),
    (S.SHARED, "write_miss"): Case(
        {1, 3}, False, False,
        ("INVALIDATE->cache1", "INVALIDATE->cache3", "GET"), ({0}, True, False),
    ),
    (S.SHARER, "write_miss"): Case(
        {0, 1}, False, False, ("INVALIDATE->cache1", "GET"), ({0}, True, False),
    ),
    (S.DIRTY, "write_miss"): Case({2}, True, False, PURGE2,
                                  ({0}, True, False), DIRTY_VERSION),
    (S.OWNED, "write_miss"): Case({0}, True, False, PURGE0,
                                  ({0}, True, False), DIRTY_VERSION),
    (S.SOLE, "mrequest"): Case({0}, False, False, ("MGRANTED+",),
                               ({0}, True, False)),
    (S.SHARER, "mrequest"): Case(
        {0, 1}, False, False, ("INVALIDATE->cache1", "MGRANTED+"),
        ({0}, True, False),
    ),
    (S.UNCACHED, "mrequest"): Case(set(), False, False, ("MGRANTED-",),
                                   (set(), False, False)),
    (S.SHARED, "mrequest"): Case({1, 3}, False, False, ("MGRANTED-",),
                                 ({1, 3}, False, False)),
    (S.DIRTY, "mrequest"): Case({2}, True, False, ("MGRANTED-",),
                                ({2}, True, False)),
    (S.OWNED, "mrequest"): Case({0}, True, False, ("MGRANTED-",),
                                ({0}, True, False)),
    (S.SOLE, "eject_clean"): Case({0}, False, False, ACK, (set(), False, False)),
    (S.SHARER, "eject_clean"): Case({0, 1}, False, False, ACK,
                                    ({1}, False, False)),
    (S.OWNED, "eject_clean"): Case({0}, False, True, ACK, (set(), False, False)),
    (S.UNCACHED, "eject_clean"): Case(set(), False, False, ACK,
                                      (set(), False, False)),
    (S.SHARED, "eject_clean"): Case({1, 3}, False, False, ACK,
                                    ({1, 3}, False, False)),
    (S.DIRTY, "eject_clean"): Case({2}, True, False, ACK, ({2}, True, False)),
    (S.OWNED, "eject_dirty"): Case({0}, True, False, ACK,
                                   (set(), False, False), DIRTY_VERSION),
    (S.UNCACHED, "eject_dirty"): Case(set(), False, False, ACK,
                                      (set(), False, False)),
    (S.SOLE, "eject_dirty"): Case({0}, False, False, ACK, ({0}, False, False)),
    (S.SHARER, "eject_dirty"): Case({0, 1}, False, False, ACK,
                                    ({0, 1}, False, False)),
    (S.SHARED, "eject_dirty"): Case({1, 3}, False, False, ACK,
                                    ({1, 3}, False, False)),
    (S.DIRTY, "eject_dirty"): Case({2}, True, False, ACK, ({2}, True, False)),
}

#: The local-state variant's one different row: an exclusive-clean fill.
LOCAL_CASES = {
    **ROW_CASES,
    (S.UNCACHED, "read_miss"): Case(set(), False, False, GET, ({0}, False, True)),
}


def _drive(ctrl, event):
    if event.startswith("eject"):
        eject(ctrl, 0, dirty=event == "eject_dirty")
    elif event == "mrequest":
        request(ctrl, MessageKind.MREQUEST, requester=0)
    else:
        rw = "read" if event == "read_miss" else "write"
        request(ctrl, MessageKind.REQUEST, requester=0, rw=rw)


@pytest.mark.parametrize("local_state", [False, True], ids=["fullmap", "local"])
@pytest.mark.parametrize(
    "situation,event", list(ROW_CASES),
    ids=[f"{s.name}-{e}" for s, e in ROW_CASES],
)
def test_every_row_runs_as_declared(situation, event, local_state):
    case = (LOCAL_CASES if local_state else ROW_CASES)[(situation, event)]
    sim, net, ctrl, module = make(
        case.owners, case.modified, case.exclusive, local_state=local_state
    )
    dispatched = []
    situation_of = ctrl._situation

    def recording(txn):
        dispatched.append(situation_of(txn))
        return dispatched[-1]

    ctrl._situation = recording
    _drive(ctrl, event)
    sim.run(max_events=10_000)
    assert dispatched == [situation]  # the case exercises the row it names
    assert net.sent == list(case.sends)
    entry = ctrl.directory.entry(BLOCK)
    assert (entry.owners, entry.modified, entry.exclusive) == case.after
    assert module.peek(BLOCK) == case.memory
    assert ctrl.quiescent()


def test_every_declared_row_has_a_case():
    for table, cases in ((FULL_MAP_SPEC, ROW_CASES),
                         (FULL_MAP_LOCAL_SPEC, LOCAL_CASES)):
        declared = [(row.state, row.event) for row in table]
        assert len(declared) == len(set(declared))  # one row per pair
        assert set(declared) == set(cases)
