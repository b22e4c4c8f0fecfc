"""The directory-side transition tables drive the home controllers.

Directory twin of tests/protocols/test_tables.py: the two-bit and
full-map homes dispatch on the rows of ``TWO_BIT_SPEC`` and
``FULL_MAP_SPEC``, so editing one row of a controller's resolved table
changes the protocol it runs — and the model checker catches the broken
row.
"""

from dataclasses import replace

import pytest

from repro.core.controller import TwoBitDirectoryController
from repro.core.spec import TWO_BIT_SPEC, expected, resolve_rows
from repro.core.states import GlobalState
from repro.config import ProtocolOptions
from repro.protocols.fullmap import (
    FULL_MAP_LOCAL_SPEC,
    FULL_MAP_SPEC,
    FullMapDirectoryController,
    Situation,
)
from repro.protocols.fullmap_local import LocalStateFullMapController
from repro.verification.model_check import DEEP_SCENARIOS, explore


def _skip_round(key):
    """A mutator granting ``key``'s row without its invalidation round."""

    def mutate(machine):
        for ctrl in machine.controllers:
            row = ctrl._rows[key]
            ctrl._rows[key] = replace(row, sends=row.sends[1:])

    return mutate


def test_controllers_run_the_declared_tables():
    assert TwoBitDirectoryController.table is TWO_BIT_SPEC
    # The default design needs no resolving; the variants follow the
    # rules of spec.expected.
    assert resolve_rows(TWO_BIT_SPEC, ProtocolOptions()) == TWO_BIT_SPEC
    for options in (
        ProtocolOptions(owner_invalidates_on_read_query=True),
        ProtocolOptions(keep_present1=False),
    ):
        assert resolve_rows(TWO_BIT_SPEC, options) == tuple(
            expected(row.state, row.event, options)
            for row in TWO_BIT_SPEC
            if options.keep_present1 or row.state is not GlobalState.PRESENT1
        )
    assert FullMapDirectoryController.table is FULL_MAP_SPEC
    assert LocalStateFullMapController.table is FULL_MAP_LOCAL_SPEC
    changed = [row for row in FULL_MAP_LOCAL_SPEC if row not in FULL_MAP_SPEC]
    assert [(row.state, row.event) for row in changed] == [
        (Situation.UNCACHED, "read_miss")
    ]


SCENARIOS = {scenario.name: scenario for scenario in DEEP_SCENARIOS}


@pytest.mark.parametrize(
    "protocol,key,scenario",
    [
        # Present* MREQUEST granted without its BROADINV: the other
        # reader keeps a stale copy and reads it.
        ("twobit", (GlobalState.PRESENT_STAR, "mrequest"), "2p2b"),
        # Shared write miss granted without INVALIDATE: a clean copy
        # survives next to the new dirty one.
        ("fullmap", (Situation.SHARED, "write_miss"), "evict-1frame"),
    ],
    ids=["twobit-PRESENT_STAR-mrequest", "fullmap-SHARED-write_miss"],
)
def test_editing_a_row_changes_the_protocol(protocol, key, scenario):
    assert explore(protocol, SCENARIOS[scenario]).ok
    broken = explore(protocol, SCENARIOS[scenario], mutate=_skip_round(key))
    assert not broken.ok
    assert broken.counterexample.status in ("violation", "audit")
