"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

from typing import List, Optional, Sequence

import pytest

from repro.config import MachineConfig, ProtocolOptions
from repro.protocols.base import AccessResult
from repro.system.builder import build_machine
from repro.system.machine import Machine
from repro.verification.audit import audit_machine
from repro.verification.state import machine_state
from repro.workloads.reference import MemRef, Op
from repro.workloads.synthetic import ScriptedWorkload, UniformWorkload


def small_config(**overrides) -> MachineConfig:
    """A tiny machine: 2 procs, 1 module, 8 blocks, 4-frame caches."""
    defaults = dict(
        n_processors=2,
        n_modules=1,
        n_blocks=8,
        cache_sets=2,
        cache_assoc=2,
        protocol="twobit",
        network="xbar",
    )
    defaults.update(overrides)
    return MachineConfig(**defaults)


def scripted_machine(
    scripts: Sequence[Sequence[MemRef]], **config_overrides
) -> Machine:
    """Machine wired to fixed per-processor scripts."""
    workload = ScriptedWorkload(scripts)
    config = small_config(
        n_processors=len(scripts),
        n_blocks=max(config_overrides.pop("n_blocks", 8), workload.n_blocks),
        **config_overrides,
    )
    return build_machine(config, workload)


def run_scripts(machine: Machine, refs_per_proc: int = 10_000) -> None:
    """Run every scripted stream to exhaustion and assert drained."""
    machine.run(refs_per_proc=refs_per_proc)


def drive(
    machine: Machine, pid: int, op: Op, block: int, shared: bool = True
) -> AccessResult:
    """Issue one reference through a cache and run until it completes.

    Gives tests precise sequential control over interleavings.
    """
    results: List[AccessResult] = []
    ref = MemRef(pid=pid, op=op, block=block, shared=shared)
    machine.caches[pid].access(ref, results.append)
    machine.sim.run(max_events=100_000)
    assert len(results) == 1, f"access did not complete: {ref}"
    return results[0]


def read(machine: Machine, pid: int, block: int) -> AccessResult:
    return drive(machine, pid, Op.READ, block)


def write(machine: Machine, pid: int, block: int) -> AccessResult:
    return drive(machine, pid, Op.WRITE, block)


def assert_clean_audit(machine: Machine) -> None:
    audit_machine(machine).raise_if_failed()


@pytest.fixture
def twobit_machine() -> Machine:
    """Fresh 2-processor two-bit machine (empty workload; drive directly)."""
    return scripted_machine([[], []])


@pytest.fixture
def twobit4_machine() -> Machine:
    """Fresh 4-processor two-bit machine."""
    return scripted_machine([[], [], [], []], n_modules=2)


def uniform_machine(
    protocol: str,
    network: str = "xbar",
    n: int = 4,
    n_blocks: int = 8,
    refs: int = 800,
    write_frac: float = 0.4,
    seed: int = 11,
    options: Optional[ProtocolOptions] = None,
) -> Machine:
    """Build + run a hammer workload; returns the drained machine."""
    workload = UniformWorkload(
        n_processors=n, n_blocks=n_blocks, write_frac=write_frac, seed=seed
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
    return machine


def assert_dense_equivalent(dense: Machine, sparse: Machine, label: str) -> None:
    """A sparse-fan-out machine matches its dense twin: the whole
    machine state and every counter except the ``sparse_*`` bookkeeping
    (after the sparse side's lazy reconciliation folds it back into the
    dense form).  Event counts differ: the sparse path skips the
    per-cache fan-out events."""
    for machine in (dense, sparse):
        machine.reconcile_sparse_counters()
    dense_state, sparse_state = machine_state(dense), machine_state(sparse)
    if dense_state != sparse_state:
        # Name the first component that differs.
        for d, s in zip(dense_state, sparse_state):
            assert d == s, f"{label}: state diverged at {d[0]}"
        raise AssertionError(f"{label}: states differ in length")

    def counters(machine):
        return {
            (owner.name, name): value
            for owner in (
                *machine.processors, *machine.caches, *machine.controllers,
                *machine.modules, *machine.managers, machine.network,
            )
            for name, value in owner.counters.items()
            if not name.startswith("sparse_")
        }

    assert counters(dense) == counters(sparse), f"{label}: counters diverged"
