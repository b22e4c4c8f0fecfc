"""Conformance: the message choreography of every §3.2 table row.

The controller dispatches on the rows of ``repro.core.spec``.  A harness
hosts one TwoBitDirectoryController over a stub network that plays the
role of every cache (answering queries with data and invalidations with
acks), injects each request kind from each global state, and checks
that the steps the row names emit its commands in order and leave its
next state and memory effect.
"""

from typing import List, Optional, Set

import pytest

from repro.config import MachineConfig, ProtocolOptions
from repro.core.controller import TwoBitDirectoryController
from repro.core.spec import EVENTS, TWO_BIT_SPEC, expected, render_spec
from repro.core.states import GlobalState
from repro.interconnect.message import Message, MessageKind
from repro.memory.module import MemoryModule
from repro.sim.kernel import Simulator
from repro.stats.counters import CounterSet

N_CACHES = 3
LATENCY = 2
BLOCK = 1
DIRTY_VERSION = 55
CLEAN_VERSION = 7


class StubNet:
    """Plays the interconnect *and* every cache for one controller."""

    def __init__(self, sim, holders: Set[int], dirty: bool):
        self.sim = sim
        self.holders = set(holders)
        self.dirty = dirty
        self.counters = CounterSet("stubnet")
        self.faults = None
        self.ctrl: Optional[TwoBitDirectoryController] = None
        self.sent: List[str] = []

    def _label(self, message: Message) -> str:
        if message.kind is MessageKind.MGRANTED:
            return "MGRANTED+" if message.flag else "MGRANTED-"
        return message.kind.name

    def send(self, message: Message) -> None:
        self.sent.append(self._label(message))

    def broadcast(self, message: Message, exclude=None, targets=None) -> int:
        self.sent.append(self._label(message))
        excluded = set(exclude or ())
        recipients = [
            pid for pid in range(N_CACHES) if f"cache{pid}" not in excluded
        ]
        for pid in recipients:
            self.sim.post(LATENCY, self._react, message, pid)
        return len(recipients)

    def _react(self, message: Message, pid: int) -> None:
        """A snooping cache's response, per the cache-side protocol."""
        assert self.ctrl is not None
        if message.kind is MessageKind.BROADINV:
            if pid in self.holders:
                self.holders.discard(pid)
            self.ctrl.deliver(
                Message(
                    kind=MessageKind.INV_ACK,
                    src=f"cache{pid}",
                    dst=self.ctrl.name,
                    block=message.block,
                    requester=pid,
                )
            )
        elif message.kind is MessageKind.BROADQUERY:
            if pid in self.holders and self.dirty:
                if message.rw == "write":
                    self.holders.discard(pid)
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


SETUP = {
    GlobalState.ABSENT: (set(), False),
    GlobalState.PRESENT1: ({1}, False),
    GlobalState.PRESENT_STAR: ({1, 2}, False),
    GlobalState.PRESENTM: ({1}, True),
}


def make_harness(state: GlobalState, options: ProtocolOptions):
    sim = Simulator()
    config = MachineConfig(
        n_processors=N_CACHES,
        n_modules=1,
        n_blocks=4,
        cache_sets=1,
        cache_assoc=2,
        options=options,
    )
    module = MemoryModule(sim, 0, blocks=range(4))
    module.write(BLOCK, CLEAN_VERSION)
    holders, dirty = SETUP[state]
    net = StubNet(sim, holders, dirty)
    ctrl = TwoBitDirectoryController(
        sim, 0, config, net, module, n_caches=N_CACHES
    )
    net.ctrl = ctrl
    ctrl.directory.set_state(BLOCK, state)
    return sim, net, ctrl, module


def inject(sim, ctrl, event: str, state: GlobalState) -> None:
    holders, _dirty = SETUP[state]
    if event in ("read_miss", "write_miss"):
        requester = 0
        ctrl.deliver(
            Message(
                kind=MessageKind.REQUEST,
                src="cache0",
                dst=ctrl.name,
                block=BLOCK,
                rw="read" if event == "read_miss" else "write",
                requester=requester,
            )
        )
    elif event == "mrequest":
        requester = min(holders) if holders else 0
        ctrl.deliver(
            Message(
                kind=MessageKind.MREQUEST,
                src=f"cache{requester}",
                dst=ctrl.name,
                block=BLOCK,
                requester=requester,
                meta={"txn": 99},
            )
        )
    elif event == "eject_clean":
        # From the holder when the state tracks one; otherwise a stale
        # notice from an uninvolved cache.
        src = min(holders) if (holders and not _dirty_state(state)) else 2
        ctrl.deliver(
            Message(
                kind=MessageKind.EJECT,
                src=f"cache{src}",
                dst=ctrl.name,
                block=BLOCK,
                rw="read",
                requester=src,
                meta={"ej": 7},
            )
        )
    elif event == "eject_dirty":
        src = min(holders) if _dirty_state(state) else 2
        ctrl.deliver(
            Message(
                kind=MessageKind.EJECT,
                src=f"cache{src}",
                dst=ctrl.name,
                block=BLOCK,
                rw="write",
                requester=src,
            )
        )
        ctrl.deliver(
            Message(
                kind=MessageKind.PUT,
                src=f"cache{src}",
                dst=ctrl.name,
                block=BLOCK,
                requester=src,
                version=DIRTY_VERSION,
                meta={"for": "eject"},
            )
        )
    else:  # pragma: no cover
        raise AssertionError(event)


def _dirty_state(state: GlobalState) -> bool:
    return state is GlobalState.PRESENTM


OPTION_VARIANTS = [
    pytest.param(ProtocolOptions(), id="default"),
    pytest.param(
        ProtocolOptions(owner_invalidates_on_read_query=True),
        id="owner-invalidates",
    ),
    pytest.param(ProtocolOptions(keep_present1=False), id="no-present1"),
]


@pytest.mark.parametrize("options", OPTION_VARIANTS)
@pytest.mark.parametrize(
    "state,event",
    [(row.state, row.event) for row in TWO_BIT_SPEC],
    ids=[f"{row.state.name}-{row.event}" for row in TWO_BIT_SPEC],
)
def test_controller_conforms_to_spec(state, event, options):
    if state is GlobalState.PRESENT1 and not options.keep_present1:
        pytest.skip("Present1 unreachable in this variant")
    row = expected(state, event, options)
    sim, net, ctrl, module = make_harness(state, options)
    inject(sim, ctrl, event, state)
    sim.run(max_events=10_000)
    assert net.sent == list(row.sends), (state, event)
    assert ctrl.directory.state(BLOCK) is row.next_state
    if row.memory_write:
        assert module.peek(BLOCK) == DIRTY_VERSION
    else:
        assert module.peek(BLOCK) == CLEAN_VERSION
    assert ctrl.quiescent()


def test_spec_covers_every_reachable_pair():
    covered = {(row.state, row.event) for row in TWO_BIT_SPEC}
    for state in GlobalState:
        for event in EVENTS:
            if event == "mrequest" or (state, event) in covered:
                continue
            # Every non-mrequest (state, event) pair must be specified;
            # mrequest from Present*'s non-holders etc. are race
            # leftovers covered by the ABSENT/PRESENTM rows.
            assert (state, event) in covered, (state, event)


def test_render_spec_readable():
    text = render_spec()
    assert "BROADQUERY" in text
    assert "PRESENT1" in text and "eject_clean" in text
    assert "notes:" in text
