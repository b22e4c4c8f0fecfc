"""Multistage delta (omega-style) network.

Figure 3-1 connects n processor-cache pairs to m controller-memory modules
through a general interconnection network; a delta network built from
``radix x radix`` switches is the canonical scalable choice.  We model two
unidirectional planes (forward: cache side -> memory side; reverse: memory
side -> cache side).  Each switch output link is a serial resource: a
message holds the link for ``size`` cycles per hop, so broadcasts — which
in a delta network are n-1 separate messages — create real contention,
reproducing the paper's caveat that "broadcasts do increase the
probability of conflicts in the interconnection network".

Routes are static once the topology is built.  Each (source name,
destination name) pair resolves once to a tuple of integer link ids
(plane, stage and link folded into one int, see :meth:`DeltaNetwork._route`),
so a message — delivered or phantom — costs one route lookup, a walk
over plain ints, and at most two counter updates.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.interconnect.message import Message
from repro.interconnect.network import Network
from repro.sim.component import Component
from repro.sim.kernel import Simulator


def _stages_for(ports: int, radix: int) -> int:
    """Number of switch stages needed to reach ``ports`` endpoints."""
    stages = 1
    while radix**stages < ports:
        stages += 1
    return stages


class DeltaNetwork(Network):
    """Blocking multistage interconnect with per-link serialization."""

    #: Non-state fields (see :mod:`repro.verification.state`).
    _not_state = {"_routes": "derived from the ports on first use"}

    def __init__(
        self,
        sim: Simulator,
        name: str = "delta",
        latency: int = 1,
        radix: int = 2,
    ) -> None:
        # ``latency`` here is the per-hop propagation time.
        super().__init__(sim, name, latency)
        if radix < 2:
            raise ValueError("radix must be >= 2")
        self.radix = radix
        self._ports: Dict[str, Tuple[str, int]] = {}  # name -> (side, port)
        self._side_counts = {"proc": 0, "mem": 0}
        # link id -> busy-until time
        self._port_busy: Dict[int, int] = {}
        # (src name, dst name) -> link ids of the route, resolved on
        # first use; derived from the topology, so not machine state.
        self._routes: Dict[Tuple[str, str], Tuple[int, ...]] = {}
        self._built_stages = self.n_stages

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def attach_port(
        self, component: Component, side: str, broadcast_member: bool = False
    ) -> int:
        """Attach on ``side`` ("proc" or "mem"); returns the port number."""
        if side not in ("proc", "mem"):
            raise ValueError("side must be 'proc' or 'mem'")
        super().attach(component, broadcast_member=broadcast_member)
        port = self._side_counts[side]
        self._side_counts[side] += 1
        self._ports[component.name] = (side, port)
        stages = self.n_stages
        if stages != self._built_stages:
            # The fabric grew a stage: every route is longer and every
            # link id names a different physical link, so stale routes
            # and busy-until entries would charge phantom contention.
            self._built_stages = stages
            self._routes.clear()
            self._port_busy.clear()
        return port

    def attach(self, component: Component, broadcast_member: bool = False) -> None:
        raise TypeError("use attach_port(component, side=...) on a DeltaNetwork")

    @property
    def n_stages(self) -> int:
        ports = max(self._side_counts.values(), default=1)
        return _stages_for(max(ports, 2), self.radix)

    # ------------------------------------------------------------------
    # Routing & contention
    # ------------------------------------------------------------------
    def _route(self, src: str, dst: str) -> Tuple[int, ...]:
        """Link ids traversed from endpoint ``src`` to endpoint ``dst``.

        Omega-style destination-tag routing, source-aware: after stage s
        the message sits on the link whose label keeps the low
        ``stages-1-s`` radix digits of the *source* port and has absorbed
        the high ``s+1`` digits of the *destination* port,
        ``link = (src % radix**(stages-1-s)) * radix**(s+1)
        + dst // radix**(stages-1-s)``.  Distinct sources therefore only
        share links once their paths have actually merged (at the final
        stage they all share the destination's output link), instead of
        charging every source for every hop of every other message to
        the same destination.  Labels run below ``radix**stages``, so
        ``(plane * stages + stage) * radix**stages + link`` (plane 0 is
        forward, toward a memory-side port) is one id per physical link.
        """
        if src not in self._ports:
            raise KeyError(f"no endpoint named {src!r} on {self.name}")
        src_port = self._ports[src][1]
        side, dst_port = self._ports[dst]
        stages = self.n_stages
        radix = self.radix
        width = radix**stages
        first = 0 if side == "mem" else stages * width
        hops = []
        for stage in range(stages):
            rem = radix ** (stages - stage - 1)
            link = (src_port % rem) * (radix ** (stage + 1)) + dst_port // rem
            hops.append(first + stage * width + link)
        return tuple(hops)

    def _reserve(self, src: str, dst: str, size: int) -> int:
        """Hold each link of the route for ``size`` cycles; return arrival."""
        port_busy = self._port_busy
        route = self._routes.get((src, dst))
        if route is None:
            route = self._routes[src, dst] = self._route(src, dst)
            # Every link of a resolved route has a busy-until entry, so
            # the walk below indexes without a default.  The walk writes
            # each of these links anyway, in the same order.
            for link in route:
                port_busy.setdefault(link, 0)
        time = self.sim.now
        latency = self.latency
        waited = 0
        for link in route:
            free_at = port_busy[link]
            if free_at > time:
                waited += free_at - time
                time = free_at
            time += size  # one cycle per size unit per hop
            port_busy[link] = time
            time += latency
        # Once per copy of every broadcast: bump the counter dict
        # directly rather than calling CounterSet.add per name.
        values = self.counters._values
        if waited:
            values["wait_cycles"] += waited
        values["hop_cycles"] += size * len(route)
        return time

    def _delivery_time(self, message: Message) -> int:
        return self._reserve(message.src, message.dst, message.size)  # type: ignore[arg-type]

    def _phantom_delivery(self, message: Message, name: str) -> None:
        # A suppressed broadcast copy still occupies its route: the
        # paper's caveat that broadcasts "increase the probability of
        # conflicts" is a property of the fabric, not of whether the
        # recipient does anything with the command.  Reserving the same
        # links in the same recipient order keeps the link schedule — and
        # therefore every *delivered* message's timing — bit-identical
        # to the dense path.
        self._reserve(message.src, name, message.size)
