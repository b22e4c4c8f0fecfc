"""Build a simulated multiprocessor from a :class:`MachineConfig`.

The builder realizes Figure 3-1: ``n`` processor-cache pairs and ``m``
controller-memory pairs joined by an interconnection network.  Protocol
component wiring is delegated to the central registry
(:mod:`repro.protocols.registry`); the builder only assembles the
protocol-independent skeleton around it.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, List

from repro.interconnect.network import Network, PointToPointNetwork
from repro.memory.address import AddressMap
from repro.memory.module import MemoryModule
from repro.processors.processor import Processor, in_flight_horizon
from repro.protocols import registry
from repro.sim.kernel import Simulator
from repro.stats.counters import CounterRegistry
from repro.config import MachineConfig
from repro.system.machine import Machine
from repro.verification.oracle import CoherenceOracle
from repro.workloads.synthetic import Workload


def build_network(sim: Simulator, config: MachineConfig) -> Network:
    """Instantiate the configured interconnect (unattached)."""
    timing = config.timing
    if config.network == "xbar":
        return PointToPointNetwork(sim, latency=timing.net_latency)
    if config.network == "bus":
        from repro.interconnect.bus import Bus

        return Bus(sim, latency=timing.net_latency, slot_cycles=timing.bus_slot)
    from repro.interconnect.delta import DeltaNetwork

    return DeltaNetwork(sim, latency=timing.net_latency, radix=config.delta_radix)


def build_machine(config: MachineConfig, workload: Workload) -> Machine:
    """Assemble and wire every component for ``config`` and ``workload``.

    Args:
        config: machine shape, protocol and timing.
        workload: per-processor reference stream factory.
    """
    if workload.n_processors != config.n_processors:
        raise ValueError(
            f"workload drives {workload.n_processors} processors, config has "
            f"{config.n_processors}"
        )
    needed = getattr(workload, "n_blocks", None)
    if needed is not None and needed > config.n_blocks:
        raise ValueError(
            f"workload touches {needed} blocks, config address space is "
            f"{config.n_blocks}"
        )
    sim = Simulator(tie_seed=config.tie_seed)
    # Filled once the caches exist.  A partial, not a lambda: the wired
    # machine must deep-pickle for checkpoint/restore.
    processors: List[Processor] = []
    oracle = CoherenceOracle(
        strict=config.strict_coherence,
        horizon=partial(in_flight_horizon, sim, processors),
    )
    amap = AddressMap(config.n_modules, config.n_blocks)
    modules = [
        MemoryModule(
            sim, i, amap.blocks_of(i), access_time=config.timing.mem_access
        )
        for i in range(config.n_modules)
    ]
    net = build_network(sim, config)
    # A bound method, not a lambda: the wired machine must deep-pickle
    # for checkpoint/restore.
    home_fn: Callable[[int], str] = amap.home_name

    spec = registry.resolve(config.protocol)
    ctx = registry.BuildContext(
        sim=sim,
        config=config,
        net=net,
        modules=modules,
        amap=amap,
        home_fn=home_fn,
        oracle=oracle,
    )
    caches, controllers, managers = spec.assemble(ctx)
    if registry.attaches_endpoints(spec.name):
        _attach_all(net, caches, controllers, ported=config.network == "delta")

    processors.extend(
        Processor(sim, pid, caches[pid], workload.stream(pid))
        for pid in range(config.n_processors)
    )

    registry_counters = CounterRegistry()
    for component in [*caches, *controllers, *processors, *managers, net, *modules]:
        registry_counters.register(component.counters)

    return Machine(
        config=config,
        sim=sim,
        oracle=oracle,
        amap=amap,
        workload=workload,
        processors=processors,
        caches=caches,
        controllers=controllers,
        modules=modules,
        network=net,
        managers=managers,
        registry=registry_counters,
    )


def _attach_all(net: Network, caches, controllers, ported: bool) -> None:
    """Attach endpoints; caches form the broadcast group.  ``ported``
    networks (the delta network) take each endpoint on one side."""
    if ported:
        for cache in caches:
            net.attach_port(cache, side="proc", broadcast_member=True)
        for ctrl in controllers:
            net.attach_port(ctrl, side="mem")
        return
    for cache in caches:
        net.attach(cache, broadcast_member=True)
    for ctrl in controllers:
        net.attach(ctrl)
