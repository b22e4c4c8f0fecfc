"""System assembly: configuration, builder, run harness, topology."""

from repro.system.builder import build_machine, build_network
from repro.config import (
    NETWORKS,
    MachineConfig,
    ProtocolOptions,
    TimingConfig,
)
from repro.system.machine import Machine, SimulationResults
from repro.system.topology import (
    describe_machine,
    directory_storage_comparison,
    render_topology,
)

__all__ = [
    "Machine",
    "MachineConfig",
    "NETWORKS",
    "ProtocolOptions",
    "SimulationResults",
    "TimingConfig",
    "build_machine",
    "build_network",
    "describe_machine",
    "directory_storage_comparison",
    "render_topology",
]
