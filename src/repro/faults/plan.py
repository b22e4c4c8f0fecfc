"""Fault plans: frozen, seed-driven fault schedules.

A :class:`FaultSpec` is pure data (builtins only), so it has a stable
``repr`` and rides the sweep result cache as a kwarg, and it freezes
cleanly into model-checker state fingerprints.  All probabilities are
per *delivery* (or per *command admission* for stalls); all magnitudes
are bounded so every fault schedule keeps runs finite.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Dict

from repro.options import parse_options

#: Recovery bounds used when no fault plan is attached (the write-back
#: buffer backpressure path can engage without an injector when
#: ``ProtocolOptions.wb_capacity`` is set).
DEFAULT_MAX_RETRIES = 8
DEFAULT_RETRY_BACKOFF = 4

#: Protocols with a NAK/retry recovery path: the directory families
#: built on the shared DirectoryCacheController.  The snooping and
#: classical write-through protocols model atomic buses / wired
#: invalidation lines, so message-level delay and duplication contradict
#: their correctness argument rather than testing it.
FAULT_PROTOCOLS = ("twobit", "fullmap", "fullmap_local")


@dataclass(frozen=True)
class FaultSpec:
    """One reproducible fault schedule.

    Attributes:
        seed: RNG seed; same spec + same event schedule => same faults.
        delay_prob: chance a delivery is delayed by 1..max_delay cycles.
        max_delay: bound on any single injected delay (cycles).
        dup_prob: chance a delivery is duplicated (1..max_dups extra
            copies, each trailing the original by a bounded lag).
        max_dups: bound on extra copies per delivery.
        reorder_prob: chance a delivery gets extra 0..max_delay jitter.
            Per-(src, dst) FIFO is always preserved (the §3.2.5 defenses
            assume ordered links), so reordering is *cross-path* only.
        stall_prob: chance a memory controller opens a stall window when
            a command arrives; commands during the window are NAKed.
        max_stall: bound on a stall window's length (cycles).
        max_retries: NAK/backpressure retries before the requester gives
            up (raising — a crash the model checker reports).
        retry_backoff: base backoff delay in cycles; retry *n* waits
            ``retry_backoff << min(n, 4)``.
    """

    #: Non-state fields (see :mod:`repro.verification.state`).
    _not_state = {"*": "frozen plan data; behaviour is in the injector's RNG"}

    seed: int = 0
    delay_prob: float = 0.0
    max_delay: int = 3
    dup_prob: float = 0.0
    max_dups: int = 1
    reorder_prob: float = 0.0
    stall_prob: float = 0.0
    max_stall: int = 8
    max_retries: int = DEFAULT_MAX_RETRIES
    retry_backoff: int = DEFAULT_RETRY_BACKOFF

    def __post_init__(self) -> None:
        for prob in ("delay_prob", "dup_prob", "reorder_prob", "stall_prob"):
            value = getattr(self, prob)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{prob} must be in [0, 1], got {value}")
        for bound in ("max_delay", "max_dups", "max_stall", "max_retries",
                      "retry_backoff"):
            value = getattr(self, bound)
            if value < 1:
                raise ValueError(f"{bound} must be >= 1, got {value}")

    @property
    def active(self) -> bool:
        """True if this plan can ever inject anything."""
        return bool(
            self.delay_prob or self.dup_prob
            or self.reorder_prob or self.stall_prob
        )

    def with_(self, **kwargs) -> "FaultSpec":
        return replace(self, **kwargs)


#: Named plans usable anywhere a spec string is accepted.  ``check`` is
#: the acceptance-bound plan (delay <= 3 cycles, <= 1 duplicate per
#: delivery, <= 2 retries before giving up).
CANNED_PLANS: Dict[str, FaultSpec] = {
    "none": FaultSpec(),
    "delay": FaultSpec(seed=1984, delay_prob=0.20, max_delay=3),
    "light": FaultSpec(
        seed=1984, delay_prob=0.05, max_delay=3, dup_prob=0.02, max_dups=1,
        stall_prob=0.02, max_stall=4, max_retries=6, retry_backoff=4,
    ),
    "heavy": FaultSpec(
        seed=1984, delay_prob=0.25, max_delay=3, dup_prob=0.10, max_dups=1,
        reorder_prob=0.10, stall_prob=0.08, max_stall=6, max_retries=8,
        retry_backoff=4,
    ),
    "check": FaultSpec(
        seed=7, delay_prob=0.15, max_delay=3, dup_prob=0.05, max_dups=1,
        stall_prob=0.05, max_stall=4, max_retries=2, retry_backoff=4,
    ),
}


def parse_faults(text: str) -> FaultSpec:
    """Parse a fault plan: a canned name, or ``key=value[,key=value...]``.

    A canned name may be extended with overrides, e.g.
    ``light,seed=3`` or ``check,stall_prob=0.1``.  A field's value takes
    the type of its :class:`FaultSpec` default
    (:func:`repro.options.parse_options`).
    """
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ValueError("empty fault spec")
    base = FaultSpec()
    if "=" not in parts[0]:
        name = parts[0]
        if name not in CANNED_PLANS:
            known = ", ".join(sorted(CANNED_PLANS))
            raise ValueError(f"unknown fault plan {name!r} (canned: {known})")
        base = CANNED_PLANS[name]
        parts = parts[1:]
    pairs = {}
    for part in parts:
        if "=" not in part:
            raise ValueError(f"expected key=value, got {part!r}")
        key, _, raw = part.partition("=")
        pairs[key.strip()] = raw
    defaults = {f.name: f.default for f in fields(FaultSpec)}
    return base.with_(**parse_options(pairs, defaults, "fault field"))
