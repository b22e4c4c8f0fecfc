"""The processor-side transition tables (repro/protocols/compiled.py).

Two groups:

* the compile pass — every registry protocol has a table, the compiled
  kernel's structure matches its rows, and the renderers cover them;
* the table carries the hits — references complete in the cache's
  table step, and only escape rows (misses, upgrades, write-through
  stores, shared-tagged refs) reach a protocol's ``_classify``, in bare,
  instrumented, tie-seeded, model-checked and lockstep runs alike.

Bit-identity of the hit step against the recorded goldens lives in
tests/integration/test_determinism_golden.py.
"""

import pytest

from repro.api import Experiment
from repro.cache.line import CacheLine, LocalState
from repro.protocols import registry
from repro.protocols.base import AbstractCacheController
from repro.protocols.cache_side import DirectoryCacheController
from repro.protocols.compiled import (
    PROTOCOL_TABLES,
    Action,
    LineState,
    compile_protocol,
    line_state,
    render_table,
)

ALL_PROTOCOLS = sorted(registry.protocol_names())


# ----------------------------------------------------------------------
# The compile pass
# ----------------------------------------------------------------------
def test_every_registry_protocol_has_a_table():
    assert set(PROTOCOL_TABLES) == set(registry.protocol_names())


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
def test_compile_protocol_structure(protocol):
    kernel = compile_protocol(protocol)
    table = PROTOCOL_TABLES[protocol]
    assert kernel.protocol == protocol
    assert kernel.family == table.family
    # Every counter the hit step can touch is pre-declared.
    for rule in table.rules:
        if rule.action is Action.WRITE:
            assert rule.hit_counter in kernel.counter_names
            for extra in rule.extra_counters:
                assert extra in kernel.counter_names
    # Memoized: compiling twice returns the same object.
    assert compile_protocol(protocol) is kernel


def test_write_through_protocols_never_fast_path_writes():
    # §2.3: every store goes to memory, serialized there — the write
    # maps must be empty so all writes escape.
    for name in ("classical", "twobit_wt"):
        kernel = compile_protocol(name)
        assert not kernel.w_clean and not kernel.w_dirty
        assert not kernel.r_dirty  # write-through keeps no dirty lines


def test_static_table_guards_shared_refs_before_lookup():
    kernel = compile_protocol("static")
    assert kernel.pre_shared_escape
    assert all(not compile_protocol(p).pre_shared_escape
               for p in ALL_PROTOCOLS if p != "static")


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
def test_render_table_lists_every_rule(protocol):
    text = render_table(protocol)
    assert protocol in text
    assert text.count("\n") == len(PROTOCOL_TABLES[protocol].rules)


def test_line_state_mapping_covers_runtime_encodings():
    assert line_state(None) is LineState.INVALID
    line = CacheLine()
    assert line_state(line) is LineState.INVALID
    line.fill(3, version=1)
    assert line_state(line) is LineState.VALID
    line.local = LocalState.EXCLUSIVE
    assert line_state(line) is LineState.EXCLUSIVE
    line.modified = True
    assert line_state(line) is LineState.DIRTY


# ----------------------------------------------------------------------
# The table carries the hits
# ----------------------------------------------------------------------
def _count_calls(monkeypatch, cls, name):
    """Count calls of ``cls.name`` (patched on the class, so subclasses
    that do not override it are counted too)."""
    calls = []
    original = getattr(cls, name)

    def counted(self, *args):
        calls.append(type(self).__name__)
        return original(self, *args)

    monkeypatch.setattr(cls, name, counted)
    return calls


#: The benchmark's ``hits`` machine: one processor, 16 private blocks.
HITS = dict(
    protocol="twobit", n_processors=1, n_modules=1, q=0.0,
    private_blocks_per_proc=16, workload="dubois:locality=0.6", seed=1984,
)


@pytest.mark.parametrize("instrument", [False, True])
def test_classify_sees_only_misses_and_escaped_upgrades(monkeypatch,
                                                        instrument):
    steps = _count_calls(monkeypatch, AbstractCacheController, "_step")
    classify = _count_calls(monkeypatch, DirectoryCacheController,
                            "_classify")
    machine, obs = Experiment(**HITS).build(instrument=instrument)
    assert (obs is not None) == instrument
    machine.run(refs_per_proc=2000)
    counters = machine.caches[0].counters
    escapes = (
        counters.get("read_misses")
        + counters.get("write_misses")
        + counters.get("write_hits_unmodified")
    )
    assert len(steps) == counters.get("refs") == 2000
    assert len(classify) == escapes
    hits = counters.get("read_hits") + counters.get("write_hits")
    assert hits > 0.9 * 2000  # the table, not _classify, carries the hits


def test_tie_seeded_run_uses_the_table_step(monkeypatch):
    from repro.config import MachineConfig
    from repro.system.builder import build_machine
    from repro.workloads.synthetic import DuboisBriggsWorkload

    classify = _count_calls(monkeypatch, DirectoryCacheController,
                            "_classify")
    workload = DuboisBriggsWorkload(
        n_processors=2, q=0.1, w=0.4, private_blocks_per_proc=16, seed=3
    )
    config = MachineConfig(
        n_processors=2, n_modules=1, n_blocks=workload.n_blocks,
        tie_seed=9,
    )
    machine = build_machine(config, workload)
    machine.run(refs_per_proc=300)
    counters = machine.registry.merged()
    assert len(classify) == (
        counters.get("read_misses")
        + counters.get("write_misses")
        + counters.get("write_hits_unmodified")
    )
    assert counters.get("read_hits") + counters.get("write_hits") > 0


def test_lockstep_differential_uses_the_table_step(monkeypatch):
    from repro.verification.differential import run_lockstep
    from repro.workloads.reference import MemRef, Op

    steps = _count_calls(monkeypatch, AbstractCacheController, "_step")
    classify = _count_calls(monkeypatch, DirectoryCacheController,
                            "_classify")
    # R, R (hit), W (upgrade), W (dirty hit), R (dirty hit)
    refs = [MemRef(0, op, 0, shared=True)
            for op in (Op.READ, Op.READ, Op.WRITE, Op.WRITE, Op.READ)]
    trace = run_lockstep("twobit", refs)
    assert not trace.audit_violations
    assert len(steps) == len(refs)
    assert len(classify) == 2  # the read miss and the MREQUEST upgrade


def test_model_checked_runs_use_the_table_step(monkeypatch):
    from repro.verification.model_check import check_protocol

    steps = _count_calls(monkeypatch, AbstractCacheController, "_step")
    classify = _count_calls(monkeypatch, DirectoryCacheController,
                            "_classify")
    results = check_protocol("twobit", depth="smoke")
    assert all(result.ok for result in results)
    assert steps and len(classify) < len(steps)
