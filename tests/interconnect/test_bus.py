"""Shared bus: serialization, contention, hardware broadcast."""

from repro.interconnect.bus import Bus
from repro.interconnect.message import Message, MessageKind
from repro.sim.component import Component
from repro.sim.kernel import Simulator


class Sink(Component):
    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.received = []

    def deliver(self, message):
        self.received.append((self.sim.now, message))


def wire(latency=1, slot=1, n=3):
    sim = Simulator()
    bus = Bus(sim, latency=latency, slot_cycles=slot)
    sinks = [Sink(sim, f"cache{i}") for i in range(n)]
    for sink in sinks:
        bus.attach(sink, broadcast_member=True)
    return sim, bus, sinks


def command(src="cache0", dst="cache1", block=0):
    return Message(kind=MessageKind.REQUEST, src=src, dst=dst, block=block)


def data(src="cache0", dst="cache1", block=0):
    return Message(kind=MessageKind.GET, src=src, dst=dst, block=block, version=1)


def test_single_command_timing():
    sim, bus, sinks = wire(latency=1, slot=1)
    bus.send(command())
    sim.run()
    time, _ = sinks[1].received[0]
    assert time == 2  # 1 slot + 1 latency


def test_messages_serialize_on_the_bus():
    sim, bus, sinks = wire()
    bus.send(command(block=1))
    bus.send(command(block=2))
    sim.run()
    times = [t for t, _ in sinks[1].received]
    assert times == [2, 3]
    assert bus.counters["wait_cycles"] == 1


def test_data_occupies_more_slots():
    sim, bus, sinks = wire()
    bus.send(data())
    bus.send(command(block=9))
    sim.run()
    times = [t for t, _ in sinks[1].received]
    assert times == [5, 6]  # data: 4 slots; command queued behind


def test_broadcast_is_one_transaction():
    sim, bus, sinks = wire()
    count = bus.broadcast(
        Message(kind=MessageKind.BROADINV, src="cache0", dst=None, block=0)
    )
    sim.run()
    assert count == 2
    t1 = sinks[1].received[0][0]
    t2 = sinks[2].received[0][0]
    assert t1 == t2  # simultaneous observation
    assert bus.counters["busy_cycles"] == 1  # one slot for everyone


def test_hold_until_extends_tenure():
    sim, bus, sinks = wire()
    end = bus.acquire(1)
    bus.hold_until(end + 10)
    bus.send(command())
    sim.run()
    time, _ = sinks[1].received[0]
    assert time == end + 10 + 1 + 1  # queued behind the hold
