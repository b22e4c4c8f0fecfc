"""The two-bit directory protocol as a transition table.

§3.2 specifies the controller's behaviour in prose; this module states
it as a table — (global state, request) → (commands sent, next global
state) — and the table *is* the controller: the two-bit home controller
(:mod:`repro.core.controller`) looks up the row for the block's state
and the shared :class:`~repro.protocols.directory.DirectoryController`
runs the steps its ``sends`` column names.  The table also

* renders the protocol specification (:func:`render_spec`, also
  reachable via ``python -m repro spec``);
* gives readers the whole §3.2 state machine on one screen;
* anchors the conformance suite (`tests/core/test_conformance.py`),
  which drives the real controller through every row and checks the
  message choreography (command order, next state, memory effect) the
  row's steps produce.

The table describes the *default* design (DESIGN.md ambiguity
resolutions); :func:`expected` adjusts rows for the paper-literal and
no-Present1 option variants, and each controller resolves its rows by
the same rules once, when it is built.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Optional, Tuple

from repro.config import ProtocolOptions
from repro.core.states import GlobalState
from repro.protocols.directory import EVENTS, Transition, render_rows


def _rows_default() -> Tuple[Transition, ...]:
    A, P1, PS, PM = (
        GlobalState.ABSENT,
        GlobalState.PRESENT1,
        GlobalState.PRESENT_STAR,
        GlobalState.PRESENTM,
    )
    return (
        # §3.2.2 read miss
        Transition(A, "read_miss", ("GET",), P1),
        Transition(P1, "read_miss", ("GET",), PS),
        Transition(PS, "read_miss", ("GET",), PS),
        Transition(
            PM, "read_miss", ("BROADQUERY", "GET"), PS, memory_write=True,
            note="owner supplies data, keeps a clean copy (DESIGN.md #1)",
        ),
        # §3.2.3 write miss
        Transition(A, "write_miss", ("GET",), PM),
        Transition(
            P1, "write_miss", ("BROADINV", "GET"), PM,
            note="identities unknown: broadcast despite a single holder",
        ),
        Transition(PS, "write_miss", ("BROADINV", "GET"), PM),
        Transition(
            PM, "write_miss", ("BROADQUERY", "GET"), PM, memory_write=True,
            note="owner supplies data and invalidates",
        ),
        # §3.2.4 write hit on previously unmodified block
        Transition(
            P1, "mrequest", ("MGRANTED+",), PM,
            note="the payoff of encoding Present1: no broadcast",
            counter="mreq_granted_present1",
        ),
        Transition(PS, "mrequest", ("BROADINV", "MGRANTED+"), PM),
        Transition(
            PM, "mrequest", ("MGRANTED-",), PM,
            note="requester lost a race (§3.2.5); it reissues a write miss",
            counter="mreq_denied",
        ),
        Transition(
            A, "mrequest", ("MGRANTED-",), A, note="race leftover",
            counter="mreq_denied",
        ),
        # §3.2.1 replacement
        Transition(
            P1, "eject_clean", ("EJECT_ACK",), A,
            note="the transition that reduces later broadcasts",
            counter="eject_present1_to_absent",
        ),
        Transition(
            PS, "eject_clean", ("EJECT_ACK",), PS,
            note="count unknown: Present* must absorb the loss",
            counter="eject_present_star",
        ),
        *(
            Transition(
                st, "eject_clean", ("EJECT_ACK",), st, note="stale notice",
                counter="eject_stale_clean",
            )
            for st in (PM, A)
        ),
        Transition(
            PM, "eject_dirty", ("EJECT_ACK",), A, memory_write=True,
            counter="writebacks_absorbed",
        ),
        *(
            Transition(
                st, "eject_dirty", ("EJECT_ACK",), st,
                note="stale write-back dropped", counter="eject_dropped_stale",
            )
            for st in (A, P1, PS)
        ),
    )


TWO_BIT_SPEC: Tuple[Transition, ...] = _rows_default()

_INDEX: Dict[Tuple[GlobalState, str], Transition] = {
    (row.state, row.event): row for row in TWO_BIT_SPEC
}


def expected(
    state: GlobalState,
    event: str,
    options: Optional[ProtocolOptions] = None,
) -> Transition:
    """The specified transition, adjusted for the option variants."""
    if event not in EVENTS:
        raise ValueError(f"unknown event {event!r}; choose from {EVENTS}")
    options = options or ProtocolOptions()
    if state is GlobalState.PRESENT1 and not options.keep_present1:
        raise ValueError("Present1 is not reachable with keep_present1=False")
    return _resolve(_INDEX[(state, event)], options)


def resolve_rows(
    rows: Tuple[Transition, ...], options: ProtocolOptions
) -> Tuple[Transition, ...]:
    """``rows`` as a controller built with ``options`` runs them: the
    :func:`expected` rules applied, unreachable Present1 rows dropped."""
    return tuple(
        _resolve(row, options)
        for row in rows
        if options.keep_present1 or row.state is not GlobalState.PRESENT1
    )


def _resolve(row: Transition, options: ProtocolOptions) -> Transition:
    next_state = row.next_state
    if row.state is GlobalState.PRESENTM and row.event == "read_miss":
        if options.owner_invalidates_on_read_query:
            next_state = GlobalState.PRESENT1  # paper-literal §3.2.2
    if next_state is GlobalState.PRESENT1 and not options.keep_present1:
        next_state = GlobalState.PRESENT_STAR
    if row.next_state is next_state:
        return row
    return replace(row, next_state=next_state)


def render_spec() -> str:
    """The §3.2 protocol as one table."""
    return render_rows(
        TWO_BIT_SPEC, "Two-bit directory protocol (§3.2), default design"
    )
