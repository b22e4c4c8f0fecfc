"""The machine's behaviour state: one reflective walk for every caller.

Two machines are in the same state when every field that can influence
their future behaviour is equal.  :func:`machine_state` is the one
answer to that question.  The model checker prunes on it, the
adversarial hunter counts its coverage in it, the twin tests (sparse vs
dense fan-out, record vs replay, streamed vs materialized trace,
restored vs uninterrupted) compare it, and
:func:`repro.checkpoint.fingerprint` digests it.

The rule
--------
A field is state unless its class declares otherwise.  Each class
declares, next to the fields it owns:

``_not_state``
    ``{field: reason}`` for fields that never feed back into behaviour:
    statistics, configuration, wiring to other components, tables
    derived at build time.  The key ``"*"`` declares the whole class
    non-state.
``_uid_fields``
    ``{field: reason}`` for fields holding transaction uids.  Each
    machine draws uids from its simulator's counter, and different
    schedules draw them in different orders, so two schedules that reach
    one state hold different raw values; the walk renumbers them in the
    order it meets them.  A uid field holds a uid, a dict whose values are uids, or a
    set of tuples whose last item is a uid.  Only ``int`` values count
    as uids, so flags and labels stored next to them pass through.

Declarations are read once per class, as a union over its MRO; the walk
keeps no list of exempt fields or classes of its own.  A field nobody
classified is walked like any other: forgetting a declaration only
costs pruning, and can never merge two different states.
"""

from __future__ import annotations

import random
from enum import Enum
from functools import lru_cache, partial
from typing import Any, Dict, FrozenSet, Tuple


@lru_cache(maxsize=None)
def declarations(cls: type) -> Tuple[FrozenSet[str], FrozenSet[str]]:
    """``(not_state, uid_fields)`` of ``cls``, unioned over its MRO."""
    not_state: set = set()
    uids: set = set()
    for klass in cls.__mro__:
        not_state.update(klass.__dict__.get("_not_state", ()))
        uids.update(klass.__dict__.get("_uid_fields", ()))
    return frozenset(not_state), frozenset(uids)


def machine_state(machine) -> Tuple:
    """Hashable, replay-stable state of ``machine``: ``(label, part)`` pairs.

    Covers the clock, the fault injector, every component (processors,
    caches, controllers, memory modules, bus managers, the network, the
    oracle) and the pending event queue.  Equal for two machines that
    will behave identically from here on; a failing comparison can zip
    the parts to name the component that differs.
    """
    return _Walk(machine).state()


def _uid_tuple_order(item: tuple):
    uid = item[-1]
    is_uid = type(uid) is int
    return (repr(item[:-1]), not is_uid, uid if is_uid else 0)


class _Walk:
    """One freeze of one machine (component names are per machine)."""

    def __init__(self, machine) -> None:
        self.machine = machine
        self.components = [
            *machine.processors,
            *machine.caches,
            *machine.controllers,
            *machine.modules,
            *machine.managers,
            machine.network,
        ]
        self.names: Dict[int, str] = {id(c): c.name for c in self.components}
        self.names[id(machine.oracle)] = "oracle"
        self.uids: Dict[int, int] = {}
        self.in_progress: set = set()
        self.emit_target = 0

    def state(self) -> Tuple:
        machine = self.machine
        parts = [("now", machine.sim.now)]
        if machine.faults is not None:
            # The injector's RNG stream, path cursors and stall windows
            # all feed back into future behaviour.
            parts.append(("faults", self.freeze(machine.faults)))
        for comp in [*self.components, machine.oracle]:
            # While a component is the emit target it is frozen in full;
            # a reference to any *other* component collapses to
            # ("ref", name), so each component's state appears exactly
            # once however densely the wiring cross-links them.
            self.emit_target = id(comp)
            parts.append((self.names[id(comp)], self.freeze_object(comp)))
        self.emit_target = 0
        # Sequence numbers are left out: only the relative order of
        # queued events matters, and their absolute values depend on how
        # many events this interleaving has allocated so far.
        parts.append(
            (
                "queue",
                tuple(
                    (entry[0], self.freeze(entry[3]), self.freeze(entry[4]))
                    for entry in sorted(machine.sim._queue)
                ),
            )
        )
        return tuple(parts)

    # -- uids ----------------------------------------------------------
    def uid(self, value: Any) -> Any:
        if type(value) is not int:
            return self.freeze(value)
        return ("uid", self.uids.setdefault(value, len(self.uids)))

    def uid_field(self, value: Any) -> Any:
        if isinstance(value, dict):
            items = [(self.freeze(k), self.uid(v)) for k, v in value.items()]
            items.sort(key=lambda kv: repr(kv[0]))
            return ("dict", tuple(items))
        if isinstance(value, (set, frozenset)):
            # Ordered by the stable prefix, then by raw uid (whose
            # relative order is replay-stable): set iteration order
            # depends on the raw values themselves.
            return (
                "set",
                tuple(
                    tuple(self.freeze(x) for x in item[:-1])
                    + (self.uid(item[-1]),)
                    for item in sorted(value, key=_uid_tuple_order)
                ),
            )
        return self.uid(value)

    # -- values --------------------------------------------------------
    def freeze(self, obj: Any) -> Any:
        if obj is None or isinstance(obj, (bool, int, float, str, bytes)):
            return obj
        if isinstance(obj, Enum):
            return ("enum", type(obj).__name__, obj.name)
        if isinstance(obj, (tuple, list)):
            return tuple(self.freeze(item) for item in obj)
        if isinstance(obj, (set, frozenset)):
            return (
                "set",
                tuple(sorted((self.freeze(i) for i in obj), key=repr)),
            )
        if isinstance(obj, dict):
            items = [(self.freeze(k), self.freeze(v)) for k, v in obj.items()]
            items.sort(key=lambda kv: repr(kv[0]))
            return ("dict", tuple(items))
        if isinstance(obj, partial):
            return (
                "partial",
                self.freeze(obj.func),
                self.freeze(obj.args),
                self.freeze(obj.keywords),
            )
        if isinstance(obj, random.Random):
            return ("rng", obj.getstate())
        if callable(obj):
            name = getattr(obj, "__qualname__", None) or getattr(
                obj, "__name__", type(obj).__name__
            )
            bound_self = getattr(obj, "__self__", None)
            if bound_self is not None:
                return ("method", self.freeze(bound_self), name)
            return ("fn", name)
        # deque and other iterable containers without dict semantics:
        if type(obj).__name__ == "deque":
            return ("deque", tuple(self.freeze(item) for item in obj))
        return self.freeze_object(obj)

    def freeze_object(self, obj: Any) -> Any:
        cls = type(obj)
        not_state, uids = declarations(cls)
        if "*" in not_state:
            return ("skip", cls.__name__)
        name = self.names.get(id(obj))
        if name is not None and id(obj) != self.emit_target:
            return ("ref", name)
        if id(obj) in self.in_progress:
            return ("cycle", cls.__name__)
        self.in_progress.add(id(obj))
        try:
            if hasattr(obj, "__dict__"):
                attrs = sorted(obj.__dict__)
                getter = obj.__dict__.__getitem__
            else:
                attrs = sorted(
                    a
                    for klass in cls.__mro__
                    for a in getattr(klass, "__slots__", ())
                )
                getter = lambda a: getattr(obj, a)  # noqa: E731
            fields = []
            for attr in attrs:
                if attr in not_state:
                    continue
                try:
                    value = getter(attr)
                except AttributeError:
                    continue
                if attr in uids:
                    fields.append((attr, self.uid_field(value)))
                else:
                    fields.append((attr, self.freeze(value)))
            return (cls.__name__, tuple(fields))
        finally:
            self.in_progress.discard(id(obj))
