"""Schedule enumeration support for the protocol model checker.

The event kernel exposes the only interleaving freedom a run has — the
order of same-cycle events — via :meth:`Simulator.enabled` /
:meth:`Simulator.step_select`.  A *schedule* is the list of choice
indices taken at each decision point (a point where more than one event
is enabled); replaying the same schedule against a freshly built machine
reproduces the exact run, which is what makes counterexamples printable
and shrinkable.

This module provides the pieces the checker composes:

* :func:`describe_entry` — human-readable labels for queued events, so a
  counterexample trace reads like a protocol transcript;
* :func:`format_schedule` / :func:`parse_schedule` — the printable form
  (``"0,2,1"``) users can feed back via ``repro check --replay``.

The state the checker prunes on is :func:`repro.verification.state.
machine_state`.
"""

from __future__ import annotations

from functools import partial
from typing import Any, List, Tuple


# ----------------------------------------------------------------------
# Schedules
# ----------------------------------------------------------------------
def format_schedule(schedule: List[int]) -> str:
    """Printable form of a schedule (empty list -> ``"-"``)."""
    return ",".join(str(c) for c in schedule) if schedule else "-"


def parse_schedule(text: str) -> List[int]:
    """Inverse of :func:`format_schedule`."""
    text = text.strip()
    if not text or text == "-":
        return []
    try:
        choices = [int(part) for part in text.split(",")]
    except ValueError:
        raise ValueError(f"malformed schedule {text!r}; want e.g. '0,2,1'")
    if any(c < 0 for c in choices):
        raise ValueError(f"schedule indices must be >= 0: {text!r}")
    return choices


# ----------------------------------------------------------------------
# Event labels
# ----------------------------------------------------------------------
def _callable_label(fn: Any) -> str:
    """``owner.method`` label for an event callback."""
    if isinstance(fn, partial):
        return _callable_label(fn.func)
    owner = getattr(fn, "__self__", None)
    name = getattr(fn, "__name__", None) or getattr(
        fn, "__qualname__", repr(fn)
    )
    if owner is not None:
        owner_name = getattr(owner, "name", type(owner).__name__)
        return f"{owner_name}.{name}"
    return str(name)


def describe_entry(entry: Tuple) -> str:
    """One-line label for a heap entry: ``t=12 cache0._classify(...)``."""
    time, _tie, _seq, fn, args = entry
    brief = []
    for arg in args:
        text = repr(arg)
        if len(text) > 40:
            text = text[:37] + "..."
        brief.append(text)
    return f"t={time} {_callable_label(fn)}({', '.join(brief)})"
