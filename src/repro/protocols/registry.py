"""Central protocol registry: name -> :class:`ProtocolSpec`.

Every scheme the simulator implements is registered here once, with its
aliases, the interconnects it can run on, and the builder function that
wires its cache/controller/manager components.  The system builder, the
CLI choice lists, the protocol test matrix, and the verification tools
(`repro check`, the differential harness) all derive their protocol
lists from this table instead of maintaining their own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Set, Tuple

from repro.config import MachineConfig
from repro.interconnect.bus import Bus
from repro.interconnect.network import Network
from repro.memory.address import AddressMap
from repro.memory.module import MemoryModule
from repro.sim.kernel import Simulator
from repro.verification.oracle import CoherenceOracle

# NOTE: the controller/manager classes are imported inside the assemble
# functions, not here: several of them import this package back (e.g.
# repro.core.controller -> repro.protocols.directory), so importing them at
# module scope would create an import cycle through the package
# __init__.  Assembly runs at machine-build time, long after imports.


@dataclass(frozen=True)
class BuildContext:
    """Everything an assemble function needs to wire one protocol."""

    sim: Simulator
    config: MachineConfig
    net: Network
    modules: List[MemoryModule]
    amap: AddressMap
    home_fn: Callable[[int], str]
    oracle: CoherenceOracle


#: What an assemble function returns: (caches, controllers, managers).
Assembly = Tuple[list, list, list]


@dataclass(frozen=True)
class ProtocolSpec:
    """One registered coherence scheme."""

    name: str
    #: Alternate spellings accepted by :func:`resolve` (CLI convenience).
    aliases: Tuple[str, ...]
    #: Interconnects this protocol can run on (first entry is preferred).
    networks: Tuple[str, ...]
    description: str
    assemble: Callable[[BuildContext], Assembly]

    def default_network(self) -> str:
        return self.networks[0]


# ----------------------------------------------------------------------
# Assembly functions (one per scheme; moved out of the system builder)
# ----------------------------------------------------------------------
def _directory_caches(ctx: BuildContext, cache_cls) -> list:
    return [
        cache_cls(ctx.sim, pid, ctx.config, ctx.net, ctx.home_fn, ctx.oracle)
        for pid in range(ctx.config.n_processors)
    ]


class _CacheHoldersFn:
    """Ground truth for the forced-hit translation buffer.

    Must be conservative: include caches whose fill for the block is in
    flight (they are owners from the directory's point of view) —
    missing one would skip a required invalidation.  A class, not a
    closure over the cache list, so the wired machine deep-pickles for
    checkpointing.
    """

    __slots__ = ("caches",)

    def __init__(self, caches: list) -> None:
        self.caches = caches

    def __call__(self, block: int) -> Set[int]:
        holders = set()
        for cache in self.caches:
            if cache.holds(block) is not None or block in cache.wb_buffer:
                holders.add(cache.pid)
            elif (
                cache.pending is not None
                and cache.pending.ref.block == block
            ):
                holders.add(cache.pid)
        return holders


def _assemble_twobit(ctx: BuildContext) -> Assembly:
    from repro.core.controller import TwoBitDirectoryController
    from repro.protocols.cache_side import DirectoryCacheController

    caches = _directory_caches(ctx, DirectoryCacheController)
    controllers = [
        TwoBitDirectoryController(
            ctx.sim, i, ctx.config, ctx.net, module,
            ctx.config.n_processors, holders_fn=_CacheHoldersFn(caches),
        )
        for i, module in enumerate(ctx.modules)
    ]
    return caches, controllers, []


def _assemble_fullmap(ctx: BuildContext) -> Assembly:
    from repro.protocols.cache_side import DirectoryCacheController
    from repro.protocols.fullmap import FullMapDirectoryController

    caches = _directory_caches(ctx, DirectoryCacheController)
    controllers = [
        FullMapDirectoryController(
            ctx.sim, i, ctx.config, ctx.net, module, ctx.config.n_processors
        )
        for i, module in enumerate(ctx.modules)
    ]
    return caches, controllers, []


def _assemble_fullmap_local(ctx: BuildContext) -> Assembly:
    from repro.protocols.fullmap_local import (
        LocalStateCacheController,
        LocalStateFullMapController,
    )

    caches = _directory_caches(ctx, LocalStateCacheController)
    controllers = [
        LocalStateFullMapController(
            ctx.sim, i, ctx.config, ctx.net, module, ctx.config.n_processors
        )
        for i, module in enumerate(ctx.modules)
    ]
    return caches, controllers, []


def _assemble_write_through(ctx: BuildContext, cache_cls, ctrl_cls) -> Assembly:
    from repro.interconnect.holders import CopyHolderIndex

    caches = _directory_caches(ctx, cache_cls)
    # One machine-wide copy-holder index, wired only on the sparse
    # path so the dense invalidation line pays nothing for it: the
    # line is a global resource, so every cache and every memory
    # controller share the same membership view.
    holders = CopyHolderIndex() if ctx.config.sparse_fanout else None
    for cache in caches:
        cache.holders = holders
    controllers = []
    for i, module in enumerate(ctx.modules):
        ctrl = ctrl_cls(ctx.sim, i, ctx.config, ctx.net, module, ctx.oracle)
        ctrl.caches = caches
        ctrl.holders = holders
        controllers.append(ctrl)
    return caches, controllers, []


def _assemble_classical(ctx: BuildContext) -> Assembly:
    from repro.protocols.classical import (
        ClassicalCacheController,
        ClassicalMemoryController,
    )

    return _assemble_write_through(
        ctx, ClassicalCacheController, ClassicalMemoryController
    )


def _assemble_twobit_wt(ctx: BuildContext) -> Assembly:
    from repro.protocols.wt_filter import (
        WTFilterCacheController,
        WTFilterMemoryController,
    )

    return _assemble_write_through(
        ctx, WTFilterCacheController, WTFilterMemoryController
    )


def _assemble_static(ctx: BuildContext) -> Assembly:
    from repro.protocols.static import (
        StaticCacheController,
        StaticMemoryController,
    )

    caches = _directory_caches(ctx, StaticCacheController)
    controllers = [
        StaticMemoryController(ctx.sim, i, ctx.config, ctx.net, module, ctx.oracle)
        for i, module in enumerate(ctx.modules)
    ]
    return caches, controllers, []


def _assemble_snooping(ctx: BuildContext, manager_cls, cache_cls) -> Assembly:
    assert isinstance(ctx.net, Bus)
    manager = manager_cls(ctx.sim, ctx.config, ctx.net, ctx.modules, ctx.amap)
    caches = [
        cache_cls(ctx.sim, pid, ctx.config, manager, ctx.oracle)
        for pid in range(ctx.config.n_processors)
    ]
    manager.caches = caches
    return caches, [], [manager]


def _assemble_write_once(ctx: BuildContext) -> Assembly:
    from repro.protocols.snoop import SnoopBusManager
    from repro.protocols.write_once import WriteOnceCacheController

    return _assemble_snooping(ctx, SnoopBusManager, WriteOnceCacheController)


def _assemble_illinois(ctx: BuildContext) -> Assembly:
    from repro.protocols.illinois import (
        IllinoisBusManager,
        IllinoisCacheController,
    )

    return _assemble_snooping(ctx, IllinoisBusManager, IllinoisCacheController)


#: Whether a protocol's components attach to the network via the generic
#: endpoint path (False = snooping manager owns the bus wiring).
_ATTACHES = {"write_once": False, "illinois": False}


def attaches_endpoints(name: str) -> bool:
    """True when caches/controllers must be attached to the network."""
    return _ATTACHES.get(resolve(name).name, True)


# ----------------------------------------------------------------------
# The registry itself
# ----------------------------------------------------------------------
PROTOCOLS: Dict[str, ProtocolSpec] = {
    spec.name: spec
    for spec in (
        ProtocolSpec(
            name="twobit",
            aliases=("two_bit", "2bit"),
            networks=("xbar", "bus", "delta"),
            description="two-bit global directory (§3, the paper's scheme)",
            assemble=_assemble_twobit,
        ),
        ProtocolSpec(
            name="twobit_wt",
            aliases=("two_bit_wt", "2bit_wt"),
            networks=("xbar", "delta"),
            description="write-through filtered by the two-bit map (§2.3+§3.1)",
            assemble=_assemble_twobit_wt,
        ),
        ProtocolSpec(
            name="fullmap",
            aliases=("full_map", "censier"),
            networks=("xbar", "delta"),
            description="Censier-Feautrier n+1-bit presence vectors (§2.4.2)",
            assemble=_assemble_fullmap,
        ),
        ProtocolSpec(
            name="fullmap_local",
            aliases=("full_map_local", "yen_fu"),
            networks=("xbar", "delta"),
            description="Yen-Fu full map with exclusive-clean local state (§2.4.3)",
            assemble=_assemble_fullmap_local,
        ),
        ProtocolSpec(
            name="classical",
            aliases=("write_through",),
            networks=("xbar", "bus", "delta"),
            description="write-through + invalidate-all (§2.3)",
            assemble=_assemble_classical,
        ),
        ProtocolSpec(
            name="static",
            aliases=("uncached", "software"),
            networks=("xbar",),
            description="software-tagged uncacheable shared data (§2.2)",
            assemble=_assemble_static,
        ),
        ProtocolSpec(
            name="write_once",
            aliases=("goodman",),
            networks=("bus",),
            description="Goodman's write-once bus snooping scheme (§2.5)",
            assemble=_assemble_write_once,
        ),
        ProtocolSpec(
            name="illinois",
            aliases=("mesi", "papamarcos_patel"),
            networks=("bus",),
            description="Papamarcos-Patel MESI bus snooping scheme (§2.5)",
            assemble=_assemble_illinois,
        ),
    )
}

_ALIASES: Dict[str, str] = {}
for _spec in PROTOCOLS.values():
    for _alias in _spec.aliases:
        if _alias in PROTOCOLS or _alias in _ALIASES:
            raise RuntimeError(f"duplicate protocol alias {_alias!r}")
        _ALIASES[_alias] = _spec.name


def protocol_names() -> Tuple[str, ...]:
    """Canonical protocol names in registration order."""
    return tuple(PROTOCOLS)


def resolve(name: str) -> ProtocolSpec:
    """Look up a protocol by canonical name or alias."""
    canonical = _ALIASES.get(name, name)
    try:
        return PROTOCOLS[canonical]
    except KeyError:
        choices = sorted(set(PROTOCOLS) | set(_ALIASES))
        raise KeyError(
            f"unknown protocol {name!r}; choose from {choices}"
        ) from None


def canonical_name(name: str) -> str:
    """Canonical spelling for ``name`` (resolving aliases)."""
    return resolve(name).name


def compatible_pairs() -> Tuple[Tuple[str, str], ...]:
    """Every (protocol, network) combination the builder supports."""
    return tuple(
        (spec.name, network)
        for spec in PROTOCOLS.values()
        for network in spec.networks
    )
