"""Base class for simulated hardware components.

A :class:`Component` owns a name, a reference to the simulator, and a
:class:`~repro.stats.counters.CounterSet` for instrumentation.  Components
that receive messages from an interconnect implement :meth:`deliver`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.stats.counters import CounterSet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.interconnect.message import Message
    from repro.sim.kernel import Simulator


class Component:
    """A named simulation entity with counters."""

    #: Non-state fields (see :mod:`repro.verification.state`).
    _not_state = {
        "sim": "the kernel; its clock and queue are walked once, machine-wide",
        "counters": "statistics",
    }

    def __init__(self, sim: "Simulator", name: str) -> None:
        self.sim = sim
        self.name = name
        self.counters = CounterSet(owner=name)

    @property
    def obs(self):
        """The observability hub, or None when telemetry is off.

        Probe sites should bind it once per call —
        ``obs = self.sim.obs`` — and guard with ``if obs is not None``;
        this property exists for cooler paths and interactive use.
        """
        return self.sim.obs

    def deliver(self, message: "Message") -> None:
        """Handle a message arriving from the interconnect.

        Subclasses that participate in the network must override this.
        """
        raise NotImplementedError(f"{self.name} does not accept messages")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name}>"
