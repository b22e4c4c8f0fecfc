"""Delta network route table: integer link ids against the omega formula.

A route is a tuple of integer link ids.  Contention is only right if the
ids name physical links one-to-one: every (plane, stage, link) triple
the omega formula visits must map to one id, and no id may stand for two
triples.  The formula here is written out independently of the network.
"""

import pytest

from repro.interconnect.delta import DeltaNetwork
from repro.interconnect.message import Message, MessageKind
from repro.sim.component import Component
from repro.sim.kernel import Simulator


class Sink(Component):
    def deliver(self, message):
        pass


def _net(radix, n_proc, n_mem):
    sim = Simulator()
    net = DeltaNetwork(sim, latency=1, radix=radix)
    for i in range(n_proc):
        net.attach_port(Sink(sim, f"cache{i}"), side="proc", broadcast_member=True)
    for j in range(n_mem):
        net.attach_port(Sink(sim, f"ctrl{j}"), side="mem")
    return sim, net


def _omega(radix, stages, plane, src_port, dst_port):
    """Physical links of the source-aware omega route, stage by stage."""
    hops = []
    for stage in range(stages):
        keep = radix ** (stages - stage - 1)
        link = (src_port % keep) * radix ** (stage + 1) + dst_port // keep
        assert link < radix**stages
        hops.append((plane, stage, link))
    return hops


def _shapes():
    for ports in range(2, 41):
        yield ports, max(1, ports // 2)  # more caches than modules
        yield 1 + ports // 4, ports  # more modules than caches


@pytest.mark.parametrize("radix", (2, 3, 4))
def test_routes_are_the_omega_links_one_id_each(radix):
    for n_proc, n_mem in _shapes():
        _, net = _net(radix, n_proc, n_mem)
        stages = net.n_stages
        assert radix ** (stages - 1) < max(n_proc, n_mem, 2) <= radix**stages
        ports = net._ports
        id_of = {}
        link_of = {}
        for src, (_, src_port) in ports.items():
            for dst, (side, dst_port) in ports.items():
                plane = "fwd" if side == "mem" else "rev"
                route = net._route(src, dst)
                physical = _omega(radix, stages, plane, src_port, dst_port)
                assert len(route) == len(physical) == stages
                for link_id, triple in zip(route, physical):
                    assert isinstance(link_id, int)
                    # Same physical link -> same id, and no id shared
                    # by two physical links.
                    assert id_of.setdefault(triple, link_id) == link_id
                    assert link_of.setdefault(link_id, triple) == triple
        assert len(id_of) == len(link_of)


@pytest.mark.parametrize("radix", (2, 3, 4))
def test_stage_growth_rebuilds_the_route_table(radix):
    sim, net = _net(radix, radix, 1)
    stages = net.n_stages
    for i in range(radix):
        net.send(Message(kind=MessageKind.REQUEST, src=f"cache{i}",
                         dst="ctrl0", block=i))
    assert len(net._routes[("cache0", "ctrl0")]) == stages
    # A port on the other side within the current width keeps the table.
    net.attach_port(Sink(sim, "ctrl1"), side="mem")
    assert net.n_stages == stages and ("cache0", "ctrl0") in net._routes
    # One more cache than the fabric is wide adds a stage.
    net.attach_port(Sink(sim, f"cache{radix}"), side="proc", broadcast_member=True)
    assert net.n_stages == stages + 1
    assert not net._routes and not net._port_busy
    net.send(Message(kind=MessageKind.REQUEST, src="cache0", dst="ctrl0", block=9))
    route = net._routes[("cache0", "ctrl0")]
    assert len(route) == stages + 1
    assert route == net._route("cache0", "ctrl0")
    sim.run()


def test_unknown_source_is_rejected_not_routed_from_port_zero():
    sim, net = _net(2, 4, 2)
    with pytest.raises(KeyError, match="ghost"):
        net.send(Message(kind=MessageKind.REQUEST, src="ghost", dst="ctrl0", block=0))
    with pytest.raises(KeyError, match="ghost"):
        net.broadcast(Message(kind=MessageKind.BROADINV, src="ghost", dst=None,
                              block=0))
    # No link was reserved on behalf of the unknown sender.
    assert not net._port_busy
    assert net.counters.get("hop_cycles") == 0


def test_unknown_source_phantom_copy_is_rejected():
    _, net = _net(2, 4, 2)
    with pytest.raises(KeyError, match="ghost"):
        net.broadcast(
            Message(kind=MessageKind.BROADINV, src="ghost", dst=None, block=0),
            targets=set(),
        )
    assert not net._port_busy
