"""Counter instrumentation.

Every component owns a :class:`CounterSet`.  Counters are created lazily on
first increment so instrumentation points never need registration
boilerplate; a :class:`CounterRegistry` aggregates sets across components
for whole-system reporting.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple


class CounterSet:
    """A named bag of integer/float counters owned by one component."""

    def __init__(self, owner: str = "") -> None:
        self.owner = owner
        #: The live counters.  A path that runs once per broadcast copy
        #: bumps ``_values[name] += n`` directly instead of calling
        #: :meth:`add`: same value, same creation order, no call.
        self._values: Dict[str, float] = defaultdict(float)

    def add(self, name: str, amount: float = 1.0) -> None:
        """Increment ``name`` by ``amount`` (creating it at zero)."""
        self._values[name] += amount

    def set(self, name: str, value: float) -> None:
        """Overwrite ``name`` with ``value``."""
        self._values[name] = value

    def get(self, name: str) -> float:
        """Current value of ``name`` (0 if never touched)."""
        return self._values.get(name, 0.0)

    def __getitem__(self, name: str) -> float:
        return self.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._values

    def names(self) -> List[str]:
        """Sorted counter names present in this set."""
        return sorted(self._values)

    def items(self) -> Iterator[Tuple[str, float]]:
        return iter(sorted(self._values.items()))

    def snapshot(self) -> Dict[str, float]:
        """Copy of all counter values."""
        return dict(self._values)

    def reset(self) -> None:
        """Zero every counter (used to open a measurement window)."""
        self._values.clear()

    def merge(self, other: "CounterSet") -> None:
        """Add every counter of ``other`` into this set."""
        for name, value in other._values.items():
            self._values[name] += value

    def merge_snapshot(self, snapshot: Mapping[str, float]) -> None:
        """Add a plain in-process snapshot (no provenance) into this set.

        For snapshots that crossed a process or disk boundary use
        :meth:`from_payload`/:meth:`CounterRegistry.merged` instead —
        those carry and *check* a schema version; this method is for
        dicts produced in the same process (e.g. ``snapshot()``).
        """
        for name, value in snapshot.items():
            self._values[name] += value

    def to_payload(self) -> Dict[str, Any]:
        """Schema-stamped persistable form (see :mod:`repro.schema`).

        Counter snapshots travel between runs (sweep metrics payloads,
        rollup inputs); the stamp lets the consumer refuse a layout
        written by different code instead of silently unioning numbers
        that mean different things.
        """
        from repro.schema import SCHEMA_VERSION

        return {
            "schema_version": SCHEMA_VERSION,
            "owner": self.owner,
            "counters": self.snapshot(),
        }

    @classmethod
    def from_payload(
        cls, payload: Mapping[str, Any], context: str = "counter payload"
    ) -> "CounterSet":
        """Rebuild from :meth:`to_payload`; loud on schema mismatch."""
        from repro.schema import check_schema

        check_schema(payload.get("schema_version"), context)
        out = cls(owner=payload.get("owner", ""))
        out.merge_snapshot(payload.get("counters", {}))
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        inner = ", ".join(f"{k}={v:g}" for k, v in self.items())
        return f"CounterSet({self.owner}: {inner})"


class CounterRegistry:
    """Aggregates the counter sets of many components."""

    def __init__(self) -> None:
        self._sets: List[CounterSet] = []

    def register(self, counter_set: CounterSet) -> None:
        self._sets.append(counter_set)

    def total(self, name: str) -> float:
        """Sum of ``name`` across all registered sets."""
        return sum(s.get(name) for s in self._sets)

    def by_owner(self, name: str) -> Dict[str, float]:
        """Per-owner values of ``name`` for sets that have it."""
        return {s.owner: s.get(name) for s in self._sets if name in s}

    def merged(
        self, extra: Optional[Iterable[Mapping[str, Any]]] = None
    ) -> CounterSet:
        """One merged CounterSet over all registered sets.

        The single aggregation entry point: everything that reports
        whole-system totals (machine results, metrics export, the
        ``compare`` CLI) goes through here.

        ``extra`` merges persisted counter payloads (the
        :meth:`CounterSet.to_payload` form, as found in sweep metrics
        and rollup inputs) into the total as well.  Each payload's
        ``schema_version`` is checked first: a payload written under a
        different results schema raises
        :class:`~repro.schema.SchemaMismatchError` instead of being
        silently unioned into the totals — cross-run aggregation must
        never mix counter layouts.
        """
        merged = CounterSet(owner="total")
        for s in self._sets:
            merged.merge(s)
        if extra is not None:
            for i, payload in enumerate(extra):
                merged.merge(
                    CounterSet.from_payload(
                        payload, context=f"merged() extra payload #{i}"
                    )
                )
        return merged

    def report(self, per_owner: bool = False) -> str:
        """Human-readable totals, one counter per line.

        With ``per_owner`` each line also breaks the total down by the
        owning component (owners without the counter are omitted).
        """
        totals = self.merged()
        lines = [f"counter totals ({len(self._sets)} sets):"]
        if not totals.names():
            lines.append("  (no counters recorded)")
            return "\n".join(lines)
        width = max(len(name) for name in totals.names())
        for name, value in totals.items():
            line = f"  {name:<{width}} {value:>12g}"
            if per_owner:
                owners = self.by_owner(name)
                detail = ", ".join(
                    f"{owner}={val:g}" for owner, val in sorted(owners.items())
                )
                line += f"  [{detail}]"
            lines.append(line)
        return "\n".join(lines)

    def reset_all(self) -> None:
        """Open a measurement window: zero every registered set."""
        for s in self._sets:
            s.reset()
