"""The one machine-state walk (:func:`repro.verification.state.machine_state`).

* **Replay stability** — two fresh machines driven through the same
  schedule have equal states at every decision point, although every
  uid they draw differs.
* **Coverage** — mutating any behaviour-bearing field changes the state.
* **No stale declarations** — every field a class declares non-state or
  uid-bearing exists on a built instance of that class.
* **State counts as a golden** — the model checker's ``schedules=`` /
  ``states=`` counts, which move whenever the state definition does.
"""

from __future__ import annotations

import gc
import random
import sys
from types import FunctionType, ModuleType

import pytest

from repro.config import MachineConfig
from repro.core.states import GlobalState
from repro.faults import CANNED_PLANS, FAULT_PROTOCOLS, attach_faults
from repro.protocols import registry
from repro.system.builder import build_machine
from repro.verification.model_check import (
    DEEP_SCENARIOS,
    build_scenario_machine,
    check_all,
    explore,
    make_scenario,
)
from repro.verification.state import declarations, machine_state
from repro.workloads.synthetic import UniformWorkload
from tests.conftest import uniform_machine

CHECK = CANNED_PLANS["check"]

#: Two write-through caches of one frame each: every read miss evicts,
#: so eviction notices of the filter variant are in flight at most
#: decision points.
WT_EVICT = make_scenario(
    "wt-evict", "R0 R1 R0", "R1 W0 R1", cache_sets=1, cache_assoc=1
)

MODES = [(p, None) for p in registry.protocol_names()] + [
    (p, CHECK) for p in FAULT_PROTOCOLS
]


# ----------------------------------------------------------------------
# Replay stability
# ----------------------------------------------------------------------
def _assert_replay_stable(protocol, scenario, faults, seed):
    twins = [
        build_scenario_machine(protocol, scenario, faults=faults)
        for _ in range(2)
    ]
    # Start the second twin's uid counter far from the first's, so every
    # uid the twins draw differs and only renumbering can equate them.
    twins[1].sim._uid += 10**6
    for machine in twins:
        for proc, script in zip(machine.processors, scenario.scripts):
            proc.budget = len(script)
            proc.resume()
    rng = random.Random(f"{scenario.name}-{seed}")
    decision = 0
    while True:
        n = len(twins[0].sim.enabled())
        assert n == len(twins[1].sim.enabled())
        if not n:
            return
        idx = 0
        if n > 1:
            first, second = (machine_state(m) for m in twins)
            assert first == second, (
                f"{protocol}/{scenario.name} seed {seed}: states of two "
                f"replays differ at decision {decision}"
            )
            decision += 1
            idx = rng.randrange(n)
        for machine in twins:
            machine.sim.step_select(idx)


@pytest.mark.parametrize(
    "protocol,faults",
    MODES,
    ids=[p + ("-check" if f else "") for p, f in MODES],
)
def test_state_is_equal_across_fresh_replays(protocol, faults):
    for scenario in (*DEEP_SCENARIOS, WT_EVICT):
        for seed in range(3):
            _assert_replay_stable(protocol, scenario, faults, seed)


def test_wt_evict_state_count():
    """Renumbered eviction-notice uids let replays that reach one state
    merge (134 schedules / 127 states when the raw uids were keyed)."""
    result = explore("twobit_wt", WT_EVICT)
    assert result.ok and result.exhausted
    assert (result.schedules_run, result.states_seen) == (36, 32)


# ----------------------------------------------------------------------
# Coverage: each behaviour-bearing field is in the state
# ----------------------------------------------------------------------
def _valid_line(machine):
    return next(
        line
        for cache in machine.caches
        for line in cache.array.valid_lines()
    )


def _homed_block(ctrl):
    return next(b for b in range(ctrl.config.n_blocks) if ctrl.module.owns(b))


def _bump_version(m):
    _valid_line(m).version += 1000


def _flip_modified(m):
    line = _valid_line(m)
    line.modified = not line.modified


def _set_local(m):
    from repro.cache.line import LocalState

    line = _valid_line(m)
    line.local = (
        LocalState.RESERVED
        if line.local is not LocalState.RESERVED
        else LocalState.SHARED
    )


def _add_wb_entry(m):
    cache = m.caches[0]
    block = next(b for b in range(m.config.n_blocks) if b not in cache.wb_buffer)
    cache.wb_buffer.insert(block, 1000)


def _add_bias_entry(m):
    bias = m.caches[0]._bias
    bias[next(b for b in range(m.config.n_blocks) if b not in bias)] = None


def _change_two_bit_state(m):
    directory = m.controllers[0].directory
    block = _homed_block(m.controllers[0])
    # In canonical form: an ABSENT block has no entry.
    if directory.state(block) is GlobalState.PRESENTM:
        del directory._states[block]
    else:
        directory._states[block] = GlobalState.PRESENTM


def _add_full_map_owner(m):
    ctrl = m.controllers[0]
    block = _homed_block(ctrl)
    entry = ctrl.directory.entry(block)
    entry.owners.symmetric_difference_update({0})
    ctrl.directory.commit(block, entry)


def _bump_memory_version(m):
    ctrl = m.controllers[0]
    versions = ctrl.module._versions
    block = _homed_block(ctrl)
    versions[block] = versions.get(block, 0) + 1000


def _add_tbuf_owners(m):
    ctrl = m.controllers[0]
    ctrl.tbuf._entries[_homed_block(ctrl)] = {0, 1}


#: One mutation per field the sparse-twin fingerprint used to hash.
MUTATIONS = {
    "line version": ("twobit", _bump_version),
    "modified bit": ("twobit", _flip_modified),
    "local state": ("fullmap_local", _set_local),
    "write-back entry": ("twobit", _add_wb_entry),
    "bias-filter entry": ("classical", _add_bias_entry),
    "two-bit state": ("twobit", _change_two_bit_state),
    "full-map owners": ("fullmap", _add_full_map_owner),
    "memory version": ("twobit", _bump_memory_version),
    "translation-buffer owners": ("twobit", _add_tbuf_owners),
}


@pytest.mark.parametrize("field", sorted(MUTATIONS))
def test_mutating_a_state_field_changes_the_state(field):
    protocol, mutate = MUTATIONS[field]
    machine = uniform_machine(protocol, n=2, n_blocks=4, refs=40)
    before = machine_state(machine)
    mutate(machine)
    assert machine_state(machine) != before


# ----------------------------------------------------------------------
# No stale declarations
# ----------------------------------------------------------------------
def _fields(obj):
    if hasattr(obj, "__dict__"):
        return set(vars(obj))
    return {
        name
        for klass in type(obj).__mro__
        for name in getattr(klass, "__slots__", ())
        if hasattr(obj, name)
    }


def _record_fields(machine, seen):
    """Add the instance fields of every object reachable from ``machine``
    to ``seen`` (type -> field names)."""
    stack, visited = [machine], set()
    while stack:
        obj = stack.pop()
        if id(obj) in visited or isinstance(
            obj, (type, ModuleType, FunctionType)
        ):
            continue
        visited.add(id(obj))
        seen.setdefault(type(obj), set()).update(_fields(obj))
        stack.extend(gc.get_referents(obj))


def _sample_run(machine, seen, refs=40, every=7):
    """Run ``machine`` and record reachable fields every few events, so
    transient objects (pending ops, eject records, messages) are seen."""
    _record_fields(machine, seen)
    for proc in machine.processors:
        proc.budget = refs
        proc.resume()
    steps = 0
    while machine.sim.step():
        steps += 1
        if steps % every == 0:
            _record_fields(machine, seen)
    _record_fields(machine, seen)


def _small_machine(protocol, network=None, n=3):
    workload = UniformWorkload(
        n_processors=n, n_blocks=4, write_frac=0.5, seed=3
    )
    config = MachineConfig(
        n_processors=n,
        n_modules=2,
        n_blocks=4,
        cache_sets=1,
        cache_assoc=1,
        protocol=protocol,
        network=network or registry.resolve(protocol).default_network(),
    )
    return build_machine(config, workload)


def _declaring_classes():
    classes = set()
    for name, module in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")):
            continue
        for value in vars(module).values():
            if (
                isinstance(value, type)
                and value.__module__ == name
                and ("_not_state" in vars(value) or "_uid_fields" in vars(value))
            ):
                classes.add(value)
    return classes


def test_every_declared_field_exists_on_a_built_instance():
    seen = {}
    for protocol in registry.protocol_names():
        _sample_run(_small_machine(protocol), seen)
    _sample_run(_small_machine("twobit", network="delta", n=4), seen)
    faulted = _small_machine("twobit")
    attach_faults(faulted, CHECK)
    _sample_run(faulted, seen)

    for cls in sorted(_declaring_classes(), key=lambda c: c.__qualname__):
        instances = [t for t in seen if issubclass(t, cls)]
        assert instances, f"{cls.__qualname__}: no built instance reached"
        fields = set().union(*(seen[t] for t in instances))
        for kind in ("_not_state", "_uid_fields"):
            declared = set(vars(cls).get(kind, ())) - {"*"}
            stale = declared - fields
            assert not stale, (
                f"{cls.__qualname__}.{kind} names fields no instance "
                f"has: {sorted(stale)}"
            )
            for name in vars(cls).get(kind, ()):
                assert vars(cls)[kind][name], f"{cls.__qualname__}: {name}"


def test_declarations_union_over_the_mro():
    from repro.core.controller import TwoBitDirectoryController
    from repro.protocols.wt_filter import WTFilterMemoryController

    not_state, uids = declarations(WTFilterMemoryController)
    # Component, AbstractMemoryController, ClassicalMemoryController
    # and the class itself each contribute.
    assert {"sim", "counters", "config", "holders"} <= not_state
    assert "_revoked" in uids
    not_state, uids = declarations(TwoBitDirectoryController)
    # DirectoryController and the class itself each contribute.
    assert {"_rows", "max_queue_depth", "holders"} <= not_state
    assert {"_admitted_cmds", "_revoked_ejects"} <= uids


# ----------------------------------------------------------------------
# State counts as a golden
# ----------------------------------------------------------------------
#: (protocol, scenario) -> (schedules, states) of ``repro check``.
SMOKE_COUNTS = {
    ("twobit", "smoke-2p1b"): (26, 25),
    ("twobit_wt", "smoke-2p1b"): (9, 8),
    ("fullmap", "smoke-2p1b"): (26, 25),
    ("fullmap_local", "smoke-2p1b"): (20, 19),
    ("classical", "smoke-2p1b"): (9, 8),
    ("static", "smoke-2p1b"): (6, 5),
    ("write_once", "smoke-2p1b"): (18, 17),
    ("illinois", "smoke-2p1b"): (14, 13),
}

#: The same under ``--faults check`` (fault-capable protocols only).
SMOKE_FAULT_COUNTS = {
    ("twobit", "smoke-2p1b"): (24, 23),
    ("fullmap", "smoke-2p1b"): (44, 43),
    ("fullmap_local", "smoke-2p1b"): (31, 30),
}

DEEP_COUNTS = {
    ("twobit", "smoke-2p1b"): (26, 25),
    ("twobit", "2p2b"): (36, 35),
    ("twobit", "3p1b"): (1321, 953),
    ("twobit", "evict-1frame"): (176, 138),
    ("twobit", "mreq-cancel-late"): (262, 192),
    ("twobit_wt", "smoke-2p1b"): (9, 8),
    ("twobit_wt", "2p2b"): (10, 9),
    ("twobit_wt", "3p1b"): (53, 39),
    ("twobit_wt", "evict-1frame"): (9, 8),
    ("twobit_wt", "mreq-cancel-late"): (54, 40),
    ("fullmap", "smoke-2p1b"): (26, 25),
    ("fullmap", "2p2b"): (50, 49),
    ("fullmap", "3p1b"): (919, 659),
    ("fullmap", "evict-1frame"): (183, 141),
    ("fullmap", "mreq-cancel-late"): (278, 196),
    ("fullmap_local", "smoke-2p1b"): (20, 19),
    ("fullmap_local", "2p2b"): (50, 49),
    ("fullmap_local", "3p1b"): (855, 603),
    ("fullmap_local", "evict-1frame"): (106, 82),
    ("fullmap_local", "mreq-cancel-late"): (290, 208),
    ("classical", "smoke-2p1b"): (9, 8),
    ("classical", "2p2b"): (10, 9),
    ("classical", "3p1b"): (53, 39),
    ("classical", "evict-1frame"): (9, 8),
    ("classical", "mreq-cancel-late"): (54, 40),
    ("static", "smoke-2p1b"): (6, 5),
    ("static", "2p2b"): (6, 5),
    ("static", "3p1b"): (42, 28),
    ("static", "evict-1frame"): (6, 5),
    ("static", "mreq-cancel-late"): (42, 28),
    ("write_once", "smoke-2p1b"): (18, 17),
    ("write_once", "2p2b"): (32, 31),
    ("write_once", "3p1b"): (80, 72),
    ("write_once", "evict-1frame"): (28, 27),
    ("write_once", "mreq-cancel-late"): (76, 68),
    ("illinois", "smoke-2p1b"): (14, 13),
    ("illinois", "2p2b"): (54, 53),
    ("illinois", "3p1b"): (74, 66),
    ("illinois", "evict-1frame"): (28, 27),
    ("illinois", "mreq-cancel-late"): (88, 80),
}

DEEP_FAULT_COUNTS = {
    ("twobit", "smoke-2p1b"): (24, 23),
    ("twobit", "2p2b"): (20, 19),
    ("twobit", "3p1b"): (1561, 1290),
    ("twobit", "evict-1frame"): (52, 49),
    ("twobit", "mreq-cancel-late"): (102, 84),
    ("fullmap", "smoke-2p1b"): (44, 43),
    ("fullmap", "2p2b"): (28, 27),
    ("fullmap", "3p1b"): (535, 501),
    ("fullmap", "evict-1frame"): (53, 50),
    ("fullmap", "mreq-cancel-late"): (134, 108),
    ("fullmap_local", "smoke-2p1b"): (31, 30),
    ("fullmap_local", "2p2b"): (28, 27),
    ("fullmap_local", "3p1b"): (427, 401),
    ("fullmap_local", "evict-1frame"): (40, 38),
    ("fullmap_local", "mreq-cancel-late"): (88, 74),
}


def _counts(depth, faults):
    protocols = FAULT_PROTOCOLS if faults is not None else None
    results = check_all(depth, protocols=protocols, faults=faults)
    assert all(r.ok and r.exhausted for r in results)
    return {
        (r.protocol, r.scenario): (r.schedules_run, r.states_seen)
        for r in results
    }


@pytest.mark.parametrize(
    "faults,golden",
    [(None, SMOKE_COUNTS), (CHECK, SMOKE_FAULT_COUNTS)],
    ids=["bare", "check"],
)
def test_smoke_state_counts(faults, golden):
    assert _counts("smoke", faults) == golden


@pytest.mark.slow
@pytest.mark.parametrize(
    "faults,golden",
    [(None, DEEP_COUNTS), (CHECK, DEEP_FAULT_COUNTS)],
    ids=["bare", "check"],
)
def test_deep_state_counts(faults, golden):
    assert _counts("deep", faults) == golden
