"""Interconnection network base class.

A network connects named components (caches, memory controllers).  Sending
is asynchronous: :meth:`Network.send` computes a delivery time from the
topology/contention model and schedules ``component.deliver(message)``.

Broadcast semantics follow the paper: a broadcast reaches every *cache*
except an excluded set (the requester); memory controllers never receive
broadcasts.  Networks track traffic counters used by the benchmarks:

* ``commands`` / ``data_transfers``: messages by class,
* ``traffic_units``: occupancy-weighted traffic (data counts DATA_SIZE),
* ``broadcasts`` and ``broadcast_deliveries``,
* ``wait_cycles``: cycles messages spent queued for a busy resource.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Set

from repro.interconnect.message import Message
from repro.sim.component import Component
from repro.sim.kernel import Simulator


class Network(Component):
    """Base interconnect: endpoint registry + broadcast fan-out."""

    #: Non-state fields (see :mod:`repro.verification.state`).
    _not_state = {
        "_endpoints": "wiring to the attached components",
        "_deliver_fns": "wiring: the endpoints' bound deliver methods",
    }

    def __init__(self, sim: Simulator, name: str = "net", latency: int = 4) -> None:
        super().__init__(sim, name)
        if latency < 0:
            raise ValueError("latency must be >= 0")
        self.latency = latency
        #: Optional :class:`repro.faults.FaultInjector`; installed by
        #: ``attach_faults``.  ``None`` keeps the send path untouched.
        self.faults = None
        self._endpoints: Dict[str, Component] = {}
        self._broadcast_group: List[str] = []
        self._broadcast_members: Set[str] = set()
        #: Bound ``deliver`` methods, cached at attach time — the send hot
        #: path skips the endpoint lookup + attribute fetch per message.
        self._deliver_fns: Dict[str, Callable[[Message], None]] = {}

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def attach(self, component: Component, broadcast_member: bool = False) -> None:
        """Register ``component``; broadcast members receive broadcasts."""
        if component.name in self._endpoints:
            raise ValueError(f"duplicate endpoint name {component.name!r}")
        self._endpoints[component.name] = component
        self._deliver_fns[component.name] = component.deliver
        if broadcast_member:
            self._broadcast_group.append(component.name)
            self._broadcast_members.add(component.name)

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------
    def send(self, message: Message) -> None:
        """Transmit a point-to-point message."""
        if message.dst is None:
            raise ValueError("point-to-point send requires a destination")
        try:
            deliver = self._deliver_fns[message.dst]
        except KeyError:
            raise KeyError(
                f"no endpoint named {message.dst!r} on {self.name}"
            ) from None
        self._account(message)
        delivery = self._delivery_time(message)
        if self.faults is not None:
            delivery = self.faults.on_deliver(self, message, deliver, delivery)
        obs = self.sim.obs
        if obs is not None:
            obs.on_send(message, self.sim.now, delivery, track=self.name)
        self.sim.post_at(delivery, deliver, message)

    def broadcast(
        self,
        message: Message,
        exclude: Optional[Iterable[str]] = None,
        targets: Optional[Set[str]] = None,
    ) -> int:
        """Deliver copies of ``message`` to the broadcast group.

        Returns the number of recipients.  ``message.dst`` is rewritten per
        recipient so handlers see who the copy was addressed to.

        ``targets`` selects the *sparse fan-out* path: only members of
        the set receive a delivery event; the rest are phantom-accounted
        (the paper's broadcast cost model — per-recipient commands,
        traffic, and link occupancy — is still charged in full, and the
        skipped caches' snoop counters are reconciled lazily by
        :meth:`reconcile_sparse_accounting`).  ``targets=None`` is the
        dense path and the behavioural reference.
        """
        excluded: Set[str] = set(exclude or ())
        excluded.add(message.src)
        recipients = [n for n in self._broadcast_group if n not in excluded]
        add = self.counters.add
        add("broadcasts")
        add("broadcast_deliveries", len(recipients))
        obs = self.sim.obs
        if obs is not None:
            # Before _broadcast_times: bus subclasses deliver the copies
            # inside that hook and return [].
            obs.on_broadcast(
                message, self.sim.now, len(recipients), excluded,
                track=self.name,
            )
        faults = self.faults
        if targets is not None and faults is not None:
            raise RuntimeError(
                "sparse fan-out cannot run under a fault plan "
                "(skipped deliveries would desynchronize the fault RNG)"
            )
        names = self._broadcast_times(message, recipients)
        if names:
            # The per-copy _account charges, once for the whole round;
            # a phantom copy costs the same as a delivered one.
            add("data_transfers" if message.is_data else "commands", len(names))
            add("traffic_units", message.size * len(names))
        copy_for = message.copy_for
        delivery_time = self._delivery_time
        deliver_fns = self._deliver_fns
        post_at = self.sim.post_at
        if targets is None:
            for name in names:
                copy = copy_for(name)
                delivery = delivery_time(copy)
                deliver = deliver_fns[name]
                if faults is not None:
                    delivery = faults.on_deliver(self, copy, deliver, delivery)
                post_at(delivery, deliver, copy)
            return len(recipients)
        add("sparse_broadcast_rounds")
        endpoints = self._endpoints
        phantom = self._phantom_delivery
        skipped = 0
        for name in names:
            if name in targets:
                copy = copy_for(name)
                post_at(delivery_time(copy), deliver_fns[name], copy)
                endpoints[name].counters.add("sparse_net_addressed")
            else:
                # Phantom copy: same cost-model charges, no event.  The
                # hook reproduces timing side effects (delta networks
                # reserve the same links in the same order).
                skipped += 1
                phantom(message, name)
        if skipped:
            add("sparse_deliveries_suppressed", skipped)
        for name in excluded:
            # Excluded members never receive the round on either path,
            # so the lazy reconciliation must not charge them for it.
            if name in self._broadcast_members:
                endpoints[name].counters.add("sparse_net_excluded")
        return len(recipients)

    def reconcile_sparse_accounting(self) -> None:
        """Fold phantom deliveries into the skipped caches' snoop counters.

        A dense delivery to a cache without the block, under the sparse
        envelope (duplicate directory on, acks off), costs the recipient
        one useless broadcast snoop and nothing else.  Rather than
        charging it per skipped cache per round (which would
        re-introduce the O(n) the sparse path removes), each round
        records only its addressed/excluded members and this method
        charges each cache the difference in one
        :meth:`~repro.protocols.base.AbstractCacheController.charge_snoop`
        call.  Idempotent: safe to call from ``Machine.results()``,
        fingerprints, and tests in any order.  The ``sparse_*``
        bookkeeping counters themselves are excluded from cross-machine
        fingerprints.
        """
        rounds = self.counters.get("sparse_broadcast_rounds")
        if not rounds:
            return
        for name in self._broadcast_group:
            self._endpoints[name].fold_sparse_snoops(
                "sparse_net_", rounds, broadcast=True
            )

    # ------------------------------------------------------------------
    # Hooks for subclasses
    # ------------------------------------------------------------------
    def _delivery_time(self, message: Message) -> int:
        """Absolute cycle at which ``message`` reaches its destination."""
        return self.sim.now + self.latency

    def _broadcast_times(
        self, message: Message, recipients: List[str]
    ) -> List[str]:
        """Hook letting subclasses reorder/meter broadcast recipients."""
        return recipients

    def _phantom_delivery(self, message: Message, name: str) -> None:
        """Timing side effects of a suppressed broadcast copy.

        Fixed-latency networks have none; contention-modelling subclasses
        must reserve the same resources a real copy would so sparse and
        dense runs see identical link schedules.
        """

    def _account(self, message: Message) -> None:
        # Once per point-to-point message: bump the counter dict
        # directly rather than calling CounterSet.add per name.
        values = self.counters._values
        values["data_transfers" if message.is_data else "commands"] += 1
        values["traffic_units"] += message.size


class PointToPointNetwork(Network):
    """Idealised crossbar: fixed latency, infinite bandwidth.

    The paper's analysis assumes command timing is independent of the
    network; this model realizes that assumption and is the default for
    the directory protocols.  Broadcasts cost one message per recipient
    (no hardware broadcast), as in a general interconnection network.
    """

    def __init__(self, sim: Simulator, name: str = "xbar", latency: int = 4) -> None:
        super().__init__(sim, name, latency)
