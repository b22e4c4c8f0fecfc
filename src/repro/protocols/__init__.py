"""Coherence protocols: the shared cache side and every baseline scheme.

The paper's own contribution (the two-bit directory controller) lives in
:mod:`repro.core`; this package holds the machinery it shares with the
baselines and the baselines themselves:

* ``directory`` — the table-driven home controller the two-bit and
  full-map directories share (§3.2's transaction choreography),
* ``fullmap`` — Censier-Feautrier n+1-bit presence vectors (§2.4.2),
* ``fullmap_local`` — Yen-Fu exclusive-clean extension (§2.4.3),
* ``classical`` — write-through + invalidate-all (§2.3),
* ``static`` — software-tagged uncacheable shared data (§2.2),
* ``write_once`` — Goodman's bus scheme (§2.5),
* ``illinois`` — Papamarcos-Patel MESI (§2.5).
"""

from repro.protocols.base import (
    AbstractCacheController,
    AbstractMemoryController,
    AccessResult,
)
from repro.protocols.cache_side import DirectoryCacheController, PendingOp
from repro.protocols.classical import (
    ClassicalCacheController,
    ClassicalMemoryController,
)
from repro.protocols.directory import DirectoryController
from repro.protocols.fullmap import (
    FullMapDirectory,
    FullMapDirectoryController,
    FullMapEntry,
)
from repro.protocols.fullmap_local import (
    LocalStateCacheController,
    LocalStateFullMapController,
)
from repro.protocols.illinois import IllinoisBusManager, IllinoisCacheController
from repro.protocols.snoop import SnoopBusManager, SnoopCacheController, SnoopReply
from repro.protocols.static import StaticCacheController, StaticMemoryController
from repro.protocols.write_once import WriteOnceCacheController
from repro.protocols.wt_filter import (
    WTFilterCacheController,
    WTFilterMemoryController,
)
from repro.protocols.registry import (
    PROTOCOLS,
    BuildContext,
    ProtocolSpec,
    canonical_name,
    compatible_pairs,
    protocol_names,
    resolve,
)

__all__ = [
    "PROTOCOLS",
    "BuildContext",
    "ProtocolSpec",
    "canonical_name",
    "compatible_pairs",
    "protocol_names",
    "resolve",
    "AbstractCacheController",
    "AbstractMemoryController",
    "AccessResult",
    "ClassicalCacheController",
    "ClassicalMemoryController",
    "DirectoryCacheController",
    "DirectoryController",
    "FullMapDirectory",
    "FullMapDirectoryController",
    "FullMapEntry",
    "IllinoisBusManager",
    "IllinoisCacheController",
    "LocalStateCacheController",
    "LocalStateFullMapController",
    "PendingOp",
    "SnoopBusManager",
    "SnoopCacheController",
    "SnoopReply",
    "StaticCacheController",
    "StaticMemoryController",
    "WTFilterCacheController",
    "WTFilterMemoryController",
    "WriteOnceCacheController",
]
