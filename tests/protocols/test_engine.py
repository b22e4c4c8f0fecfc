"""Transaction serialization in the home controller (both §3.2.5 designs).

Commands are delivered straight to a real :class:`DirectoryController`
and transactions are retired with its own ``_finish``; the simulator is
never run, so the dispatch events the controller posts stay pending and
each test controls exactly when a lane frees up.
"""

from repro.config import ProtocolOptions
from repro.interconnect.message import Message, MessageKind

from tests.conftest import scripted_machine


def msg(block, kind=MessageKind.REQUEST, src="cache0"):
    return Message(
        kind=kind, src=src, dst="ctrl0", block=block, rw="read",
        requester=int(src[len("cache"):]),
    )


def make(serialization="block"):
    """A two-bit home for every block, and the commands it starts."""
    machine = scripted_machine(
        [[] for _ in range(4)],
        options=ProtocolOptions(serialization=serialization),
    )
    ctrl = machine.controllers[0]
    started = []
    begin = ctrl._begin

    def spy(message):
        started.append(message)
        begin(message)

    ctrl._begin = spy
    return ctrl, started


def complete(ctrl, block):
    ctrl._finish(ctrl._txns[block])


def test_block_mode_starts_distinct_blocks_concurrently():
    ctrl, started = make("block")
    a, b = msg(1), msg(2)
    ctrl.deliver(a)
    ctrl.deliver(b)
    assert started == [a, b]
    assert ctrl.n_active == 2
    assert ctrl.max_concurrency == 2


def test_block_mode_queues_same_block():
    ctrl, started = make("block")
    a, b = msg(1), msg(1, src="cache1")
    ctrl.deliver(a)
    ctrl.deliver(b)
    assert started == [a]
    assert ctrl.n_queued == 1
    assert ctrl.max_queue_depth == 1
    complete(ctrl, 1)
    assert started == [a, b]
    complete(ctrl, 1)
    assert ctrl.quiescent()


def test_global_mode_single_active():
    ctrl, started = make("global")
    a, b = msg(1), msg(2, src="cache1")
    ctrl.deliver(a)
    ctrl.deliver(b)
    assert started == [a]
    assert ctrl.n_active == 1 and ctrl.n_queued == 1
    complete(ctrl, 1)
    assert started == [a, b]
    assert ctrl._txns[2].msg is b
    complete(ctrl, 2)
    assert ctrl.quiescent()
    assert ctrl.max_concurrency == 1


def test_active_for():
    ctrl, _ = make("block")
    a = msg(3)
    ctrl.deliver(a)
    assert ctrl._txns[3].msg is a
    assert 4 not in ctrl._txns


def test_scrub_removes_matching_queued_only():
    ctrl, started = make("block")
    active = msg(1)
    queued_mreq = msg(1, kind=MessageKind.MREQUEST, src="cache1")
    queued_req = msg(1, src="cache2")
    for m in (active, queued_mreq, queued_req):
        ctrl.deliver(m)
    removed = ctrl.scrub(1, lambda m: m.kind is MessageKind.MREQUEST)
    assert removed == [queued_mreq]
    complete(ctrl, 1)
    assert started[-1] is queued_req


def test_scrub_never_touches_active():
    ctrl, _ = make("block")
    active = msg(1, kind=MessageKind.MREQUEST)
    ctrl.deliver(active)
    assert ctrl.scrub(1, lambda m: True) == []
    assert ctrl._txns[1].msg is active


def test_scrub_global_mode():
    ctrl, started = make("global")
    ctrl.deliver(msg(1))
    other_block = msg(1, kind=MessageKind.MREQUEST, src="cache3")
    target = msg(2, kind=MessageKind.MREQUEST, src="cache1")
    keeper = msg(2, src="cache2")
    for m in (other_block, target, keeper):
        ctrl.deliver(m)
    removed = ctrl.scrub(2, lambda m: m.kind is MessageKind.MREQUEST)
    # The shared lane holds every block's commands; only block 2's go.
    assert removed == [target]
    complete(ctrl, 1)
    assert started[-1] is other_block
    complete(ctrl, 1)
    assert started[-1] is keeper


def test_fifo_order_within_block():
    ctrl, started = make("block")
    messages = [msg(1, src=f"cache{i}") for i in range(4)]
    for m in messages:
        ctrl.deliver(m)
    assert ctrl.max_queue_depth == 3
    for _ in range(3):
        complete(ctrl, 1)
    assert started == messages


def test_snapshot_reflects_active_and_queued():
    """The occupancy the ``ctrlN.active``/``ctrlN.queued`` gauges read."""
    ctrl, _ = make("block")
    first, second, third = msg(1), msg(1, src="cache1"), msg(2)
    for m in (first, second, third):
        ctrl.deliver(m)
    # Blocks 1 and 2 run concurrently; the second block-1 command waits.
    assert (ctrl.n_active, ctrl.n_queued) == (2, 1)
    complete(ctrl, 1)
    # The waiting block-1 command started as soon as its lane freed.
    assert (ctrl.n_active, ctrl.n_queued) == (2, 0)
    assert ctrl._txns[1].msg is second
