"""Processor-side transition tables: the spec of every protocol's hits.

The cache side of each protocol is a small ``(line state, processor
command)`` machine (§3.2).  This module states it once per protocol, in
two layers:

1. **Declarative tables** (:data:`PROTOCOL_TABLES`).  Each protocol
   declares its processor-side transitions as :class:`Rule` rows over the
   :class:`LineState` x :class:`Cmd` domain.  Guarded transitions carry a
   :class:`Guard` column; anything data-dependent — misses, upgrades
   needing the interconnect, write-through stores — is an explicit
   :attr:`Action.ESCAPE` row.

2. **The compile pass** (:func:`compile_protocol`).  Tables are lowered
   into a :class:`CompiledKernel`: plain sets/dicts keyed by the runtime
   ``(modified, local)`` encoding, so the hot loop does one dict probe
   per write and one set probe per read, with no protocol subclassing.

The kernel drives the only hit path there is:
:meth:`repro.protocols.base.AbstractCacheController._step`.  A hit row
completes the reference inside that step; an escape row hands it, before
the line is touched, to the protocol's ``_classify``, which implements
only the escape rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Optional, Tuple

from repro.cache.line import CacheLine, LocalState
from repro.protocols import registry


# ======================================================================
# Declarative transition-table layer
# ======================================================================
class Cmd(Enum):
    """Processor command column of the transition table."""

    READ = "R"
    WRITE = "W"


class LineState(Enum):
    """Protocol-visible line states (the table's row space).

    This is the *named* state a protocol reasons about; the runtime
    encoding is the ``(valid, modified, local)`` triple of
    :class:`~repro.cache.line.CacheLine`, mapped by :func:`line_state`.
    """

    INVALID = "invalid"
    VALID = "valid"          # valid, clean, local NONE
    EXCLUSIVE = "exclusive"  # valid, clean, only copy (Yen-Fu / MESI E)
    RESERVED = "reserved"    # write-once: written once, memory current
    SHARED = "shared"        # MESI S
    DIRTY = "dirty"          # modified bit set


class Action(Enum):
    """What a table row executes in the hit step."""

    READ_HIT = "read_hit"  # touch, count, oracle check, complete
    WRITE = "write"        # touch, count, new version, commit, complete
    ESCAPE = "escape"      # hand the reference to the protocol's _classify


class Guard(Enum):
    """Guard classes a row may be conditioned on.

    A row whose guard holds takes precedence over the state rows below
    it.  The only pre-lookup guard, ``SHARED_REF``, compiles to
    :attr:`CompiledKernel.pre_shared_escape`.
    """

    ALWAYS = "always"
    #: The reference is tagged writeable-shared (the static scheme's
    #: software tag — checked *before* the cache lookup).
    SHARED_REF = "shared_ref"


@dataclass(frozen=True)
class Rule:
    """One row of a protocol's ``(state, command)`` transition table.

    Attributes:
        state: the :class:`LineState` the row matches; ``None`` marks a
            pre-lookup guard row (evaluated before the array is probed).
        cmd: the processor command column.
        action: hit action, or :attr:`Action.ESCAPE`.
        next_state: resulting :class:`LineState` (documentation and
            table rendering; the micro-op fields below are what executes).
        guard: guard class conditioning the row.
        hit_counter: cache counter the hit step increments once.
        extra_counters: additional counters (silent upgrades etc.).
        clears_local: whether the micro-op resets ``line.local`` to NONE.
        span_outcome: telemetry outcome the row marks on the reference's
            span (default: the plain hit outcome).
        locals_: for DIRTY rows — the runtime :class:`LocalState` values
            the row covers (a dirty line's ``local`` is protocol-history
            dependent); defaults to ``(NONE,)``.
        note: paper/section reference for the row.
    """

    state: Optional[LineState]
    cmd: Cmd
    action: Action
    next_state: Optional[LineState] = None
    guard: Guard = Guard.ALWAYS
    hit_counter: str = "write_hits"
    extra_counters: Tuple[str, ...] = ()
    clears_local: bool = False
    span_outcome: Optional[str] = None
    locals_: Optional[Tuple[LocalState, ...]] = None
    note: str = ""


@dataclass(frozen=True)
class ProtocolTable:
    """The complete processor-side transition table of one protocol."""

    protocol: str
    #: Structural family: "directory", "write_through", "static", "snoop".
    family: str
    states: Tuple[LineState, ...]
    rules: Tuple[Rule, ...]


_I, _V, _E, _RS, _S, _D = (
    LineState.INVALID,
    LineState.VALID,
    LineState.EXCLUSIVE,
    LineState.RESERVED,
    LineState.SHARED,
    LineState.DIRTY,
)
_R, _W = Cmd.READ, Cmd.WRITE
_HIT, _WR, _ESC = Action.READ_HIT, Action.WRITE, Action.ESCAPE
_NONE = LocalState.NONE


def _directory_rules(extended: bool = False) -> Tuple[Rule, ...]:
    """§3.2 cache-side rows shared by twobit and fullmap."""
    rules = [
        Rule(_V, _R, _HIT, _V, note="read hit"),
        Rule(_D, _R, _HIT, _D, note="read hit on dirty copy"),
        Rule(_D, _W, _WR, _D, locals_=(_NONE,), note="write hit on dirty copy"),
        Rule(_V, _W, _ESC, _D, note="MREQUEST round trip (§3.2.4)"),
        Rule(_I, _R, _ESC, _V, note="read miss (§3.2.2)"),
        Rule(_I, _W, _ESC, _D, note="write miss (§3.2.3)"),
    ]
    if extended:
        # Yen-Fu exclusive-clean state (§2.4.3): silent upgrade, and a
        # dirty line may still carry local=EXCLUSIVE after an
        # exclusive-grant write-miss fill.
        rules = [
            Rule(_E, _R, _HIT, _E, note="read hit, exclusive-clean"),
            Rule(
                _E, _W, _WR, _D,
                hit_counter="write_hits_unmodified",
                extra_counters=("silent_upgrades",),
                clears_local=True,
                # Counted as a write hit on an unmodified block, so its
                # span carries the same outcome as the MREQUEST path.
                span_outcome="WH-unmod",
                note="silent upgrade: no global-table round trip (§2.4.3)",
            ),
        ] + rules
        rules[rules.index(Rule(_D, _W, _WR, _D, locals_=(_NONE,),
                               note="write hit on dirty copy"))] = Rule(
            _D, _W, _WR, _D,
            locals_=(_NONE, LocalState.EXCLUSIVE),
            note="write hit on dirty copy (exclusive-grant fill keeps E)",
        )
    return tuple(rules)


def _write_through_rules() -> Tuple[Rule, ...]:
    """§2.3 classical rows (shared verbatim by the twobit_wt filter —
    the filter changes only miss/eject messaging, which escapes)."""
    return (
        Rule(_V, _R, _HIT, _V, note="read hit"),
        # Every store goes to memory; the version is drawn *there* so
        # racing stores serialize in memory order — never fast-path.
        Rule(_V, _W, _ESC, _V, note="write-through store (§2.3)"),
        Rule(_I, _R, _ESC, _V, note="read miss fetch"),
        Rule(_I, _W, _ESC, _I, note="write miss (no-write-allocate)"),
    )


_STATIC_RULES = (
    Rule(None, _R, _ESC, None, guard=Guard.SHARED_REF,
         note="software-tagged shared: uncached MEM_READ (§2.2)"),
    Rule(None, _W, _ESC, None, guard=Guard.SHARED_REF,
         note="software-tagged shared: uncached MEM_WRITE (§2.2)"),
    Rule(_V, _R, _HIT, _V, note="private read hit"),
    Rule(_D, _R, _HIT, _D, note="private read hit on dirty copy"),
    Rule(_V, _W, _WR, _D, locals_=(_NONE,), note="private write hit"),
    Rule(_D, _W, _WR, _D, locals_=(_NONE,), note="private write hit, dirty"),
    Rule(_I, _R, _ESC, _V, note="private miss fill"),
    Rule(_I, _W, _ESC, _D, note="private write miss (write-allocate)"),
)

_WRITE_ONCE_RULES = (
    Rule(_V, _R, _HIT, _V, note="read hit"),
    Rule(_RS, _R, _HIT, _RS, note="read hit on reserved copy"),
    Rule(_D, _R, _HIT, _D, note="read hit on dirty copy"),
    Rule(_RS, _W, _WR, _D,
         extra_counters=("reserved_to_dirty",),
         clears_local=True,
         note="second write: Reserved -> Dirty, local (§2.5 [4])"),
    Rule(_D, _W, _WR, _D, locals_=(_NONE,), note="write hit on dirty copy"),
    Rule(_V, _W, _ESC, _RS, note="first write: BUS_WRITE_WORD -> Reserved"),
    Rule(_I, _R, _ESC, _V, note="read miss (BUS_READ)"),
    Rule(_I, _W, _ESC, _D, note="write miss (BUS_RDX)"),
)

_ILLINOIS_RULES = (
    Rule(_E, _R, _HIT, _E, note="read hit, E"),
    Rule(_S, _R, _HIT, _S, note="read hit, S"),
    Rule(_D, _R, _HIT, _D, note="read hit, M"),
    Rule(_E, _W, _WR, _D,
         extra_counters=("silent_upgrades",),
         clears_local=True,
         note="E -> M silently (the payoff of the exclusive state)"),
    Rule(_D, _W, _WR, _D, locals_=(_NONE,), clears_local=True,
         note="write hit, M (after-store clears local)"),
    Rule(_S, _W, _ESC, _D, note="S -> M: BUS_INV upgrade"),
    Rule(_I, _R, _ESC, _S, note="read miss (fill E or S)"),
    Rule(_I, _W, _ESC, _D, note="write miss (BUS_RDX)"),
)


PROTOCOL_TABLES: Dict[str, ProtocolTable] = {
    "twobit": ProtocolTable(
        protocol="twobit", family="directory",
        states=(_I, _V, _D), rules=_directory_rules(),
    ),
    "fullmap": ProtocolTable(
        protocol="fullmap", family="directory",
        states=(_I, _V, _D), rules=_directory_rules(),
    ),
    "fullmap_local": ProtocolTable(
        protocol="fullmap_local", family="directory",
        states=(_I, _V, _E, _D), rules=_directory_rules(extended=True),
    ),
    "classical": ProtocolTable(
        protocol="classical", family="write_through",
        states=(_I, _V), rules=_write_through_rules(),
    ),
    "twobit_wt": ProtocolTable(
        protocol="twobit_wt", family="write_through",
        states=(_I, _V), rules=_write_through_rules(),
    ),
    "static": ProtocolTable(
        protocol="static", family="static",
        states=(_I, _V, _D), rules=_STATIC_RULES,
    ),
    "write_once": ProtocolTable(
        protocol="write_once", family="snoop",
        states=(_I, _V, _RS, _D), rules=_WRITE_ONCE_RULES,
    ),
    "illinois": ProtocolTable(
        protocol="illinois", family="snoop",
        states=(_I, _E, _S, _D), rules=_ILLINOIS_RULES,
    ),
}


#: Runtime mapping: which LocalState encodes which clean LineState.
_CLEAN_LOCAL = {
    LineState.VALID: LocalState.NONE,
    LineState.EXCLUSIVE: LocalState.EXCLUSIVE,
    LineState.RESERVED: LocalState.RESERVED,
    LineState.SHARED: LocalState.SHARED,
}


def line_state(line: Optional[CacheLine]) -> LineState:
    """Map the runtime ``(valid, modified, local)`` encoding to the
    table's named :class:`LineState`."""
    if line is None or not line.valid:
        return LineState.INVALID
    if line.modified:
        return LineState.DIRTY
    if line.local is LocalState.NONE:
        return LineState.VALID
    return _LOCAL_STATE[line.local]


_LOCAL_STATE = {local: state for state, local in _CLEAN_LOCAL.items()}


def render_table(protocol: str) -> str:
    """Human-readable rendering of one protocol's table (docs, tests)."""
    table = PROTOCOL_TABLES[registry.canonical_name(protocol)]
    width = max(len(r.state.value) if r.state else len("<pre-lookup>")
                for r in table.rules)
    lines = [f"{table.protocol} ({table.family})"]
    for rule in table.rules:
        state = rule.state.value if rule.state else "<pre-lookup>"
        nxt = rule.next_state.value if rule.next_state else "-"
        guard = "" if rule.guard is Guard.ALWAYS else f" [{rule.guard.value}]"
        lines.append(
            f"  {state:<{width}} x {rule.cmd.value}{guard} -> "
            f"{rule.action.value:<8} next={nxt}  {rule.note}"
        )
    return "\n".join(lines)


# ======================================================================
# The compile pass
# ======================================================================
#: Write-hit micro-op: (hit counter, extra counters, clears_local,
#: span outcome or None).
_Micro = Tuple[str, Tuple[str, ...], bool, Optional[str]]

_BASE_COUNTERS = (
    "refs", "reads", "writes", "processor_wait_cycles",
    "latency_cycles", "read_hits",
)


@dataclass
class CompiledKernel:
    """The dense, picklable runtime form of one protocol's table.

    Holds only strings, bools, enums, tuples and dicts — a kernel travels
    inside machine checkpoints with zero special handling.
    """

    protocol: str
    #: Structural family (see :class:`ProtocolTable`).
    family: str
    #: Static scheme: escape before lookup when ``ref.shared``.
    pre_shared_escape: bool
    #: LocalState values for which a clean-line read is a fast hit, in
    #: table order (a tuple: it pickles alike in every process, where a
    #: set of identity-hashed members would not).
    r_clean: Tuple[LocalState, ...]
    #: Whether a dirty-line read is a fast hit.
    r_dirty: bool
    #: LocalState -> micro-op for clean-line write hits.
    w_clean: Dict[LocalState, _Micro]
    #: LocalState -> micro-op for dirty-line write hits.
    w_dirty: Dict[LocalState, _Micro]
    #: Every cache counter the hit step may increment (pre-seeds the
    #: batching dict so the hot loop never grows it).
    counter_names: Tuple[str, ...] = field(default_factory=tuple)


class TableCompileError(ValueError):
    """A transition table is malformed (overlapping or invalid rows)."""


_KERNELS: Dict[str, CompiledKernel] = {}


def compile_protocol(protocol: str) -> CompiledKernel:
    """Lower ``protocol``'s declarative table into a runtime kernel.

    Memoized per canonical protocol name: tables are process-constant,
    so every machine of one protocol shares a kernel.
    """
    name = registry.canonical_name(protocol)
    kernel = _KERNELS.get(name)
    if kernel is not None:
        return kernel
    table = PROTOCOL_TABLES[name]
    r_clean: Dict[LocalState, None] = {}
    r_dirty = False
    w_clean: Dict[LocalState, _Micro] = {}
    w_dirty: Dict[LocalState, _Micro] = {}
    pre_shared_escape = False
    counters = set(_BASE_COUNTERS)
    for rule in table.rules:
        if rule.state is None:
            if rule.action is not Action.ESCAPE or rule.guard is Guard.ALWAYS:
                raise TableCompileError(
                    f"{name}: pre-lookup rows must be guarded escapes: {rule}"
                )
            pre_shared_escape = pre_shared_escape or (
                rule.guard is Guard.SHARED_REF
            )
            continue
        if rule.state not in table.states:
            raise TableCompileError(
                f"{name}: rule state {rule.state} not in declared states"
            )
        if rule.action is Action.ESCAPE:
            continue  # absence from the fast maps *is* the escape
        if rule.action is Action.READ_HIT:
            if rule.cmd is not Cmd.READ:
                raise TableCompileError(f"{name}: READ_HIT on a write: {rule}")
            if rule.state is LineState.DIRTY:
                r_dirty = True
            else:
                r_clean[_CLEAN_LOCAL[rule.state]] = None
            continue
        # Action.WRITE
        if rule.cmd is not Cmd.WRITE:
            raise TableCompileError(f"{name}: WRITE action on a read: {rule}")
        micro: _Micro = (
            rule.hit_counter, rule.extra_counters, rule.clears_local,
            rule.span_outcome,
        )
        counters.add(rule.hit_counter)
        counters.update(rule.extra_counters)
        if rule.state is LineState.DIRTY:
            for local in rule.locals_ or (_NONE,):
                if local in w_dirty:
                    raise TableCompileError(
                        f"{name}: duplicate dirty-write row for {local}"
                    )
                w_dirty[local] = micro
        else:
            local = _CLEAN_LOCAL[rule.state]
            if local in w_clean:
                raise TableCompileError(
                    f"{name}: duplicate clean-write row for {local}"
                )
            w_clean[local] = micro
    kernel = CompiledKernel(
        protocol=name,
        family=table.family,
        pre_shared_escape=pre_shared_escape,
        r_clean=tuple(r_clean),
        r_dirty=r_dirty,
        w_clean=w_clean,
        w_dirty=w_dirty,
        counter_names=tuple(sorted(counters)),
    )
    _KERNELS[name] = kernel
    return kernel



__all__ = [
    "Action",
    "Cmd",
    "CompiledKernel",
    "Guard",
    "LineState",
    "PROTOCOL_TABLES",
    "ProtocolTable",
    "Rule",
    "TableCompileError",
    "compile_protocol",
    "line_state",
    "render_table",
]
