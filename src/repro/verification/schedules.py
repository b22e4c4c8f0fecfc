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
  (``"0,2,1"``) users can feed back via ``repro check --replay``;
* :class:`StateFingerprinter` — a replay-stable structural hash of the
  full machine state (components + pending events), used to prune
  interleavings that converge to an already-explored state.
"""

from __future__ import annotations

import random
from enum import Enum
from functools import partial
from typing import Any, Dict, List, Tuple


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


# ----------------------------------------------------------------------
# State fingerprinting
# ----------------------------------------------------------------------
#: Attribute names that are measurement/bookkeeping only: they never feed
#: back into protocol behaviour, so excluding them merges states that
#: differ only in statistics.  Anything NOT listed here is included —
#: erring toward inclusion is always sound (it only reduces pruning).
_SKIP_ATTRS = frozenset(
    {
        "counters",
        "latency_histogram",
        "stream",  # position is captured by Processor.issued
        "on_drained",
        "sim",
        "_sim",
        "config",
        "timing",
        "options",
        "home_fn",
        "max_concurrency",
        "max_queue_depth",
        "max_depth",
        "transitions",
        "_time_in",
        "_since",
        "_clock",  # TwoBitDirectory's stats clock callable
        "_acc",
        "_pend",  # batched counter increments (processor and cache)
        "_hpend",
        "reads_checked",
        "writes_committed",
        "hits",
        "misses",
        "_start_fn",
        "_deliver_fns",
        "_endpoints",
        "exhausted",
        "obs",  # Simulator's observability hub (telemetry only)
        "observer",  # TwoBitDirectory's transition probe callback
        "_rows",  # a directory controller's protocol table: fixed at build
        "_routes",  # a delta network's route table: derived from its ports
        # The oracle's pruning bookkeeping: memory only, never a verdict.
        "_ref_issue_cycle", "_horizon_fn", "_prune_at", "_pruned_below",
    }
)

#: Classes frozen to a constant (pure configuration / statistics).
_SKIP_CLASSES = frozenset(
    {
        "CounterSet",
        "CounterRegistry",
        "Histogram",
        "MachineConfig",
        "TimingConfig",
        "ProtocolOptions",
        "AddressMap",
        "FaultSpec",  # frozen plan data; behaviour is in the injector RNG
    }
)

#: Dict-valued attributes whose values are transaction uids that must be
#: canonically renumbered (module-global counters differ across replays).
_UID_VALUE_ATTRS = frozenset({"_cancelled_mreqs", "_revoked_ejects"})

#: Set-valued attributes of tuples whose *last* element is a uid.
#: Sorted by their stable prefix (then raw uid, whose relative order is
#: replay-stable) before canonical renumbering, because set iteration
#: order depends on the raw uid values.
_UID_TUPLE_SET_ATTRS = frozenset({"_admitted_cmds", "_scrubbed_mreqs"})


def _uid_tuple_sort_key(t: tuple):
    uid = t[-1]
    return (repr(t[:-1]), not isinstance(uid, int), uid if isinstance(uid, int) else 0)

#: Message.meta keys holding transaction uids.
_UID_META_KEYS = frozenset({"txn", "ej"})


class StateFingerprinter:
    """Structural, replay-stable fingerprint of a whole machine.

    The fingerprint covers every behaviour-bearing piece of state: cache
    arrays, write-back buffers, pending operations, directory entries,
    engine queues, memory contents, the oracle's commit history, network
    cursors, and the pending event queue (relative order only — absolute
    sequence numbers are history-dependent).  Transaction uids drawn from
    module-global counters are renumbered in traversal order, so two
    replays that reach structurally identical states produce identical
    fingerprints even though their raw uids differ.

    A fresh instance is required per fingerprint call set against one
    machine; the component identity map is built once.
    """

    def __init__(self, machine) -> None:
        self.machine = machine
        self._component_names: Dict[int, str] = {}
        for comp in self._components():
            self._component_names[id(comp)] = comp.name
        self._component_names[id(machine.oracle)] = "oracle"

    def _components(self) -> List[Any]:
        m = self.machine
        return [
            *m.processors,
            *m.caches,
            *m.controllers,
            *m.modules,
            *m.managers,
            m.network,
        ]

    def fingerprint(self) -> Tuple:
        """Hashable state snapshot (see class docstring)."""
        self._uid_map: Dict[int, int] = {}
        self._in_progress: set = set()
        self._emit_target: int = 0
        parts = [("now", self.machine.sim.now)]
        faults = getattr(self.machine, "faults", None)
        if faults is not None:
            # The injector's RNG stream, path cursors, and stall windows
            # all feed back into future behaviour.
            parts.append(("faults", self._freeze(faults)))
        for comp in [*self._components(), self.machine.oracle]:
            # While a component is the emit target it is frozen in full;
            # any reference to a *different* component collapses to
            # ("ref", name), so each component's state appears exactly
            # once no matter how densely the wiring cross-links them.
            self._emit_target = id(comp)
            label = self._component_names[id(comp)]
            parts.append((label, self._freeze_object(comp)))
        self._emit_target = 0
        parts.append(("queue", self._freeze_queue()))
        return tuple(parts)

    # -- helpers -------------------------------------------------------
    def _canon_uid(self, uid: Any) -> Any:
        if not isinstance(uid, int):
            return self._freeze(uid)
        return ("uid", self._uid_map.setdefault(uid, len(self._uid_map)))

    def _freeze_queue(self) -> Tuple:
        # seq is omitted: only the relative order matters for future
        # behaviour, and absolute values depend on how many events the
        # particular interleaving has allocated so far.
        return tuple(
            (entry[0], self._freeze(entry[3]), self._freeze(entry[4]))
            for entry in sorted(self.machine.sim._queue)
        )

    def _freeze(self, obj: Any) -> Any:
        if obj is None or isinstance(obj, (bool, int, float, str, bytes)):
            return obj
        if isinstance(obj, Enum):
            return ("enum", type(obj).__name__, obj.name)
        if isinstance(obj, (tuple, list)):
            return tuple(self._freeze(item) for item in obj)
        if isinstance(obj, (set, frozenset)):
            return (
                "set",
                tuple(sorted((self._freeze(i) for i in obj), key=repr)),
            )
        if isinstance(obj, dict):
            items = [
                (self._freeze(k), self._freeze(v)) for k, v in obj.items()
            ]
            items.sort(key=lambda kv: repr(kv[0]))
            return ("dict", tuple(items))
        if isinstance(obj, partial):
            return (
                "partial",
                self._freeze(obj.func),
                self._freeze(obj.args),
                self._freeze(obj.keywords),
            )
        if isinstance(obj, random.Random):
            return ("rng", obj.getstate())
        bound_self = getattr(obj, "__self__", None)
        if callable(obj):
            name = getattr(obj, "__qualname__", None) or getattr(
                obj, "__name__", type(obj).__name__
            )
            if bound_self is not None:
                return ("method", self._freeze(bound_self), name)
            return ("fn", name)
        # deque and other iterable containers without dict semantics:
        if type(obj).__name__ == "deque":
            return ("deque", tuple(self._freeze(item) for item in obj))
        return self._freeze_object(obj)

    def _freeze_object(self, obj: Any) -> Any:
        cls = type(obj).__name__
        if cls in _SKIP_CLASSES:
            return ("skip", cls)
        name = self._component_names.get(id(obj))
        if name is not None and id(obj) != self._emit_target:
            return ("ref", name)
        if id(obj) in self._in_progress:
            return ("cycle", cls)
        self._in_progress.add(id(obj))
        try:
            if hasattr(obj, "__dict__"):
                attrs = sorted(obj.__dict__)
                getter = obj.__dict__.__getitem__
            else:
                attrs = sorted(
                    a
                    for klass in type(obj).__mro__
                    for a in getattr(klass, "__slots__", ())
                )
                getter = lambda a: getattr(obj, a)  # noqa: E731
            fields = []
            for attr in attrs:
                if attr in _SKIP_ATTRS:
                    continue
                try:
                    value = getter(attr)
                except AttributeError:
                    continue
                if cls == "Message" and attr == "uid":
                    continue  # never read by protocol logic; replay-varying
                if attr == "uid":
                    fields.append((attr, self._canon_uid(value)))
                elif cls == "Message" and attr == "meta":
                    fields.append((attr, self._freeze_meta(value)))
                elif attr in _UID_VALUE_ATTRS and isinstance(value, dict):
                    frozen = [
                        (self._freeze(k), self._canon_uid(v))
                        for k, v in value.items()
                    ]
                    frozen.sort(key=lambda kv: repr(kv[0]))
                    fields.append((attr, tuple(frozen)))
                elif attr in _UID_TUPLE_SET_ATTRS and isinstance(
                    value, (set, frozenset)
                ):
                    frozen = tuple(
                        tuple(self._freeze(x) for x in t[:-1])
                        + (self._canon_uid(t[-1]),)
                        for t in sorted(value, key=_uid_tuple_sort_key)
                    )
                    fields.append((attr, frozen))
                else:
                    fields.append((attr, self._freeze(value)))
            return (cls, tuple(fields))
        finally:
            self._in_progress.discard(id(obj))

    def _freeze_meta(self, meta: dict) -> Any:
        items = []
        for key, value in meta.items():
            if key in _UID_META_KEYS:
                items.append((key, self._canon_uid(value)))
            else:
                items.append((key, self._freeze(value)))
        items.sort(key=lambda kv: repr(kv[0]))
        return ("meta", tuple(items))
