"""Shared-bus interconnect.

A single serial resource: each message occupies the bus for its size in
slot cycles, plus a fixed propagation latency to the receiver.  A hardware
broadcast is one bus transaction observed by every member simultaneously —
the property the bus snooping schemes of §2.5 exploit.

Contention is modelled by a busy-until cursor: a message issued while the
bus is occupied waits (counted in ``wait_cycles``).
"""

from __future__ import annotations

from typing import List

from repro.interconnect.message import Message
from repro.interconnect.network import Network
from repro.sim.kernel import Simulator


class Bus(Network):
    """Time-multiplexed shared bus with hardware broadcast."""

    def __init__(
        self,
        sim: Simulator,
        name: str = "bus",
        latency: int = 1,
        slot_cycles: int = 1,
    ) -> None:
        super().__init__(sim, name, latency)
        if slot_cycles < 1:
            raise ValueError("slot_cycles must be >= 1")
        self.slot_cycles = slot_cycles
        self._busy_until = 0

    def acquire(self, size: int) -> int:
        """Reserve the bus for ``size`` slots; return transaction end time."""
        start = max(self.sim.now, self._busy_until)
        wait = start - self.sim.now
        if wait:
            self.counters.add("wait_cycles", wait)
        end = start + size * self.slot_cycles
        self._busy_until = end
        self.counters.add("busy_cycles", size * self.slot_cycles)
        return end

    def hold_until(self, time: int) -> None:
        """Extend the current tenure (atomic snoop transactions)."""
        self._busy_until = max(self._busy_until, time)

    def broadcast(self, message, exclude=None, targets=None) -> int:
        if targets is not None:
            # One bus transaction is observed by every member at once;
            # there is no per-recipient fan-out to thin out (also
            # enforced by MachineConfig's sparse envelope).
            raise ValueError("sparse fan-out is meaningless on a snooping bus")
        return super().broadcast(message, exclude)

    def _delivery_time(self, message: Message) -> int:
        end = self.acquire(message.size)
        return end + self.latency

    def _broadcast_times(self, message: Message, recipients: List[str]) -> List[str]:
        # One bus transaction covers all recipients: reserve the bus once
        # here; per-copy _delivery_time would otherwise re-reserve, so we
        # pre-position _busy_until and make the copies ride for free by
        # temporarily zeroing their occupancy via the shared cursor.
        #
        # Implementation: acquire once and remember the end time; the
        # subsequent per-copy _delivery_time calls see the bus busy until
        # that end and would queue behind it, so instead we override by
        # delivering all copies at end+latency.  To keep the base-class
        # flow simple we do the delivery ourselves and return no
        # recipients for the default path.
        end = self.acquire(message.size)
        for name in recipients:
            copy = message.copy_for(name)
            self._account(copy)
            delivery = end + self.latency
            deliver = self._deliver_fns[name]
            if self.faults is not None:
                delivery = self.faults.on_deliver(self, copy, deliver, delivery)
            self.sim.post_at(delivery, deliver, copy)
        return []
