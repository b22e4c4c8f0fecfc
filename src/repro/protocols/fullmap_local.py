"""Full map with added local state (Yen-Fu, §2.4.3).

Extends the full-map baseline with an *exclusive-clean* local state: a
cache that loads a block nobody else holds is told so, and a later write
hit on that block proceeds **without consulting the global table** (no
MREQUEST round trip).  The synchronization problem the paper notes as
"not fully resolved in [10]" — the directory no longer knows whether the
block is dirty — is resolved here by marking the entry ``exclusive`` and
querying the owner (PURGE) before trusting memory; the owner answers with
data if it silently upgraded, or with a clean acknowledgement if not.
"""

from __future__ import annotations

from repro.protocols.cache_side import DirectoryCacheController
from repro.protocols.fullmap import FULL_MAP_LOCAL_SPEC, FullMapDirectoryController


class LocalStateCacheController(DirectoryCacheController):
    """Cache side that exploits the exclusive-clean local state.

    The silent upgrade itself is a hit row of the ``fullmap_local``
    transition table (:mod:`repro.protocols.compiled`): a write hit on an
    exclusive-clean line completes in the table step with no global-table
    round trip.
    """


class LocalStateFullMapController(FullMapDirectoryController):
    """Directory side granting exclusive-clean fills from uncached: the
    one row in which :data:`~repro.protocols.fullmap.FULL_MAP_LOCAL_SPEC`
    differs from the full map's table."""

    table = FULL_MAP_LOCAL_SPEC
