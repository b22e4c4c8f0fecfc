"""Synchronization races: §3.2.5 and the hazards found during
implementation (DESIGN.md ambiguities #2, #6, #7)."""

from typing import List

import pytest

from repro.config import MachineConfig, ProtocolOptions
from repro.core.states import GlobalState
from repro.protocols.base import AccessResult
from repro.system.builder import build_machine
from repro.workloads.reference import MemRef, Op
from repro.workloads.synthetic import UniformWorkload

from tests.conftest import (
    assert_clean_audit,
    read,
    scripted_machine,
    write,
)


def issue(machine, pid, op, block):
    """Fire an access without running the simulator."""
    results: List[AccessResult] = []
    machine.caches[pid].access(
        MemRef(pid=pid, op=op, block=block, shared=True), results.append
    )
    return results


def test_racing_mrequests_paper_scenario():
    """§3.2.5: caches i and j hold copies; both store 'at the same time'.

    One MREQUEST wins; the loser sees the BROADINV as MGRANTED(false) and
    reissues as a write miss.  Both stores complete, serialized.
    """
    machine = scripted_machine([[], []])
    read(machine, 0, 3)
    read(machine, 1, 3)
    r0 = issue(machine, 0, Op.WRITE, 3)
    r1 = issue(machine, 1, Op.WRITE, 3)
    machine.sim.run(max_events=100_000)
    assert len(r0) == 1 and len(r1) == 1
    versions = sorted([r0[0].version, r1[0].version])
    assert versions[1] == versions[0] + 1  # serialized, both committed
    converted = sum(
        c.counters["mreq_converted_to_miss"] for c in machine.caches
    )
    assert converted == 1
    assert machine.controllers[0].directory.state(3) is GlobalState.PRESENTM
    assert_clean_audit(machine)


def test_racing_mrequests_without_scrubbing():
    """The same race with queue scrubbing disabled: the loser's stale
    MREQUEST is answered MGRANTED(false) or cancelled, never granted."""
    machine = scripted_machine(
        [[], []], options=ProtocolOptions(scrub_queued_mrequests=False)
    )
    read(machine, 0, 3)
    read(machine, 1, 3)
    r0 = issue(machine, 0, Op.WRITE, 3)
    r1 = issue(machine, 1, Op.WRITE, 3)
    machine.sim.run(max_events=100_000)
    assert len(r0) == 1 and len(r1) == 1
    assert_clean_audit(machine)


def test_scrub_deletes_queued_mrequest():
    """With three sharers racing, at least one queued MREQUEST gets
    scrubbed or cancelled rather than granted stale."""
    machine = scripted_machine([[], [], []], n_modules=1)
    for pid in range(3):
        read(machine, pid, 3)
    results = [issue(machine, pid, Op.WRITE, 3) for pid in range(3)]
    machine.sim.run(max_events=100_000)
    assert all(len(r) == 1 for r in results)
    versions = sorted(r[0].version for r in results)
    assert versions == list(range(versions[0], versions[0] + 3))
    ctrl = machine.controllers[0]
    handled = (
        ctrl.counters["mrequests_scrubbed"]
        + ctrl.counters["mrequests_cancelled"]
        + ctrl.counters["mreq_denied"]
    )
    assert handled >= 1
    assert_clean_audit(machine)


def test_query_answered_from_write_back_buffer():
    """DESIGN.md #2: a BROADQUERY racing the owner's dirty EJECT is
    answered from the write-back buffer and the EJECT is dropped."""
    machine = scripted_machine([[], []], cache_sets=1, cache_assoc=1)
    v = write(machine, 0, 0).version  # P0 owns block 0, modified
    # Issue P1's read of block 0 first, then P0's conflicting read of
    # block 1 which ejects dirty block 0.  P1's REQUEST reaches the
    # controller before the EJECT, so the query finds the wb buffer.
    r1 = issue(machine, 1, Op.READ, 0)
    r0 = issue(machine, 0, Op.READ, 1)
    machine.sim.run(max_events=100_000)
    assert r1[0].version == v
    cache0 = machine.caches[0]
    assert cache0.counters["query_answered_from_wb_buffer"] == 1
    ctrl = machine.controllers[0]
    assert ctrl.counters["eject_dropped_superseded"] == 1
    assert machine.modules[0].peek(0) == v
    assert_clean_audit(machine)


def test_dirty_eject_ahead_of_reader_is_absorbed():
    """Reverse interleaving: the EJECT wins, the read is a plain fetch."""
    machine = scripted_machine([[], []], cache_sets=1, cache_assoc=1)
    v = write(machine, 0, 0).version
    r0 = issue(machine, 0, Op.READ, 1)  # ejects dirty 0 first
    r1 = issue(machine, 1, Op.READ, 0)
    machine.sim.run(max_events=100_000)
    assert r1[0].version == v
    assert machine.controllers[0].counters["writebacks_absorbed"] >= 1
    assert_clean_audit(machine)


# ----------------------------------------------------------------------
# Deterministic regressions for hazards found by the stress sweeps.
# Each seed below hung or corrupted state before its fix.
# ----------------------------------------------------------------------
def _run_uniform(protocol, network, n, n_blocks, seed, options=None, refs=1000):
    workload = UniformWorkload(
        n_processors=n, n_blocks=n_blocks, write_frac=0.5, seed=seed
    )
    kwargs = dict(
        n_processors=n,
        n_modules=min(2, n_blocks),
        n_blocks=n_blocks,
        cache_sets=2,
        cache_assoc=2,
        protocol=protocol,
        network=network,
        seed=seed,
    )
    if options is not None:
        kwargs["options"] = options
    machine = build_machine(MachineConfig(**kwargs), workload)
    machine.run(refs_per_proc=refs)
    assert_clean_audit(machine)
    return machine


def test_regression_phantom_owner_mrequest():
    """Stale MREQUEST granted after the state returned to Present* made a
    copyless cache the owner and hung the next BROADQUERY (fixed by
    MREQ_CANCEL, DESIGN.md #6).  Seed reproduced the hang pre-fix."""
    machine = _run_uniform("twobit", "bus", n=3, n_blocks=4, seed=4)
    cancelled = sum(
        c.counters["mrequests_cancelled"] for c in machine.controllers
    )
    assert cancelled > 0  # the hazard did occur and was defused


def test_regression_stale_clean_eject_collapses_present1():
    """A clean EJECT whose copy was invalidated in flight destroyed the
    new holder's Present1 (fixed by EJECT_REVOKE, DESIGN.md #7)."""
    machine = _run_uniform(
        "twobit",
        "delta",
        n=4,
        n_blocks=8,
        seed=2 * 31 + 3 + 4,
        options=ProtocolOptions(owner_invalidates_on_read_query=True),
    )
    revoked = sum(
        c.counters["clean_ejects_revoked"] for c in machine.caches
    )
    assert revoked > 0


def test_regression_in_flight_fill_vs_query():
    """A BROADQUERY reaching the new owner before its fill installs is
    deferred and answered afterwards (transient-state handling)."""
    machine = _run_uniform("twobit", "xbar", n=2, n_blocks=8, seed=0, refs=500)
    # The counters exist (possibly zero on this seed); the audit above is
    # the real assertion.  Use a contended seed that exercises deferral.
    machine = _run_uniform("twobit", "bus", n=8, n_blocks=8, seed=31, refs=800)
    deferred = sum(c.counters["queries_deferred"] for c in machine.caches)
    stale = sum(c.counters["fills_invalidated_in_flight"] for c in machine.caches)
    assert deferred + stale > 0


def test_global_serialization_mode():
    """§3.2.5 design 1: one command at a time still drains and audits."""
    machine = _run_uniform(
        "twobit", "xbar", n=4, n_blocks=8, seed=7,
        options=ProtocolOptions(serialization="global"),
    )
    for ctrl in machine.controllers:
        assert ctrl.max_concurrency <= 1


def test_block_serialization_multiprograms():
    machine = _run_uniform("twobit", "xbar", n=8, n_blocks=16, seed=7)
    assert any(c.max_concurrency > 1 for c in machine.controllers)
