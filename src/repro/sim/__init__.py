"""Discrete-event simulation kernel."""

from repro.sim.component import Component
from repro.sim.kernel import SimulationError, Simulator

__all__ = ["Component", "SimulationError", "Simulator"]
