"""The cache-side table drives the directory caches.

Cache twin of tests/protocols/test_directory_tables.py: a directory
cache reacts to the home's commands only through the rows of
``CACHE_SIDE_SPEC``, so editing one row changes the protocol the caches
run — and the model checker catches the broken row.
"""

from dataclasses import replace
from itertools import product
from pathlib import Path

import pytest

from repro.protocols.cache_side import (
    ANY,
    CACHE_SIDE_SPEC,
    LINES,
    CacheRow,
    DirectoryCacheController,
    Pending,
    expand_rows,
    render_cache_side_spec,
)
from repro.protocols.fullmap_local import LocalStateCacheController
from repro.verification.model_check import DEEP_SCENARIOS, explore

ROOT = Path(__file__).resolve().parents[2]
SCENARIOS = {scenario.name: scenario for scenario in DEEP_SCENARIOS}


def _row(command, line, pending):
    """The declared row that owns a key."""
    return DirectoryCacheController._rows[(command, line, pending)]


#: The §3.2.5 conversion, the poisoned fill and the deferred query.
CONVERT = _row("BROADINV", "valid", "mreq")
POISON = _row("BROADINV", "absent", "fill")
DEFER = _row("PURGE", "absent", "fill")


def _edit(old, new):
    """A mutator running every cache on the table with ``old`` replaced
    by ``new`` (None: deleted, so its keys fall to the rows below)."""
    rows = expand_rows(
        new if row is old else row
        for row in CACHE_SIDE_SPEC
        if row is not old or new is not None
    )

    def mutate(machine):
        for cache in machine.caches:
            cache._rows = rows

    return mutate


def _without(row, *steps):
    return replace(row, steps=tuple(s for s in row.steps if s not in steps))


def test_caches_run_the_declared_table():
    assert DirectoryCacheController._rows == expand_rows(CACHE_SIDE_SPEC)
    assert LocalStateCacheController._rows is DirectoryCacheController._rows
    # Every command the table names meets a row in every situation.
    commands = {command for row in CACHE_SIDE_SPEC for command in row.commands}
    for key in product(
        commands,
        [line.value for line in LINES],
        [pending.value for pending in Pending],
    ):
        assert key in DirectoryCacheController._rows


def test_the_paper_rows_are_declared():
    rows = DirectoryCacheController._rows
    # §3.2.5: a BROADINV overtaking our MREQUEST acts as MGRANTED(false).
    assert rows[("BROADINV", "valid", "mreq")].steps == (
        "snoop_useful", "drop_line", "cancel_mreq", "reissue_write_miss",
        "ack_invalidation",
    )
    assert rows[("BROADINV", "absent", "fill")].steps == (
        "snoop_useless", "poison_fill", "ack_invalidation",
    )
    assert rows[("INVALIDATE", "clean-eject", "-")].steps == (
        "snoop_useless", "revoke_eject", "ack_invalidation",
    )
    for line in ("dirty", "valid", "absent"):
        assert rows[("BROADQUERY", line, "fill")].steps == ("defer_query",)
    assert rows[("PURGE", "dirty", "-")].steps[-1] == "supply_from_line"
    assert (
        rows[("BROADQUERY", "write-back", "-")].steps[-1]
        == "supply_from_write_back"
    )
    # Aliased kinds share rows, except a query to an absent block: the
    # selective home waits for an answer, the broadcast one does not.
    assert rows[("PURGE", "absent", "-")].steps[-1] == "answer_nocopy"
    assert rows[("BROADQUERY", "absent", "-")].steps == ("snoop_useless",)


def test_a_shadowed_row_is_a_table_error():
    shadowed = CacheRow(("GET",), ANY, (Pending.MISS,), ("absorb_duplicate",))
    with pytest.raises(ValueError, match="shadowed"):
        expand_rows(CACHE_SIDE_SPEC + (shadowed,))


def test_spec_renders_every_row():
    text = render_cache_side_spec()
    assert text.startswith("Cache side (§3.2)")
    assert "reissue_write_miss" in text and "supply_from_write_back" in text
    # docs/protocol.md carries the rendered table verbatim.
    assert text in (ROOT / "docs" / "protocol.md").read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "protocol,mutate,scenario,status",
    [
        # The BROADINV acks but the MREQUEST stays pending: the home
        # scrubbed it, so nothing ever answers the store.
        (
            "twobit",
            _edit(CONVERT,
                  _without(CONVERT, "cancel_mreq", "reissue_write_miss")),
            "3p1b",
            "deadlock",
        ),
        # The crossed fill is cached: a copy the home counts as gone
        # survives.
        ("twobit", _edit(POISON, _without(POISON, "poison_fill")),
         "3p1b", "crash"),
        ("fullmap", _edit(POISON, _without(POISON, "poison_fill")),
         "3p1b", "audit"),
        # A query meeting the landing fill finds no copy yet.
        ("twobit", _edit(DEFER, None), "smoke-2p1b", "deadlock"),
        ("fullmap", _edit(DEFER, None), "smoke-2p1b", "audit"),
    ],
    ids=[
        "twobit-no-mreq-conversion",
        "twobit-no-poison",
        "fullmap-no-poison",
        "twobit-no-defer",
        "fullmap-no-defer",
    ],
)
def test_editing_a_row_changes_the_protocol(protocol, mutate, scenario, status):
    assert explore(protocol, SCENARIOS[scenario]).ok
    broken = explore(protocol, SCENARIOS[scenario], mutate=mutate)
    assert not broken.ok
    assert broken.counterexample.status == status
