"""Large-n conformance: the machine at n=16/64/256 caches.

Every golden and model-check scenario elsewhere in the repo runs at
n<=8; this tier is where the expandability claim is actually exercised.
Three groups:

* **Registry at scale** — every registered protocol builds and runs a
  mixed (Dubois-Briggs) workload at n=16 and n=64 with a clean
  quiescent audit; n=256 with a 10k-reference stream runs in the slow
  tier.
* **Sparse/dense twins** — for the broadcast protocols, a sparse-fan-out
  machine and its dense twin reach the same machine state (every field
  but the copy-holder index) and every non-``sparse_*`` counter at n in
  {4, 16, 64}, and the broadcast/useless-broadcast accounting matches
  exactly.
* **Lockstep differential** — the sparse machines still agree with the
  full-map reference under the serial differential harness at large n.
"""

from __future__ import annotations

import pytest

from repro.config import MachineConfig, sparse_options
from repro.protocols import registry
from repro.system.builder import build_machine
from repro.verification.audit import audit_machine
from repro.verification.differential import random_refs, run_differential
from repro.workloads.reference import MemRef, Op
from repro.workloads.synthetic import DuboisBriggsWorkload
from tests.conftest import assert_dense_equivalent

ALL_PROTOCOLS = sorted(registry.protocol_names())

#: Protocols with a sparse fan-out path (broadcast + copy-holder index).
SPARSE_PROTOCOLS = ("twobit", "twobit_wt", "classical")

#: Counters whose totals the sparse path must reproduce exactly — the
#: paper's cost model (commands, useless broadcasts) plus the raw
#: traffic the interconnect charges.
EXACT_COUNTERS = (
    "commands",
    "traffic_units",
    "snoop_commands",
    "snoop_useless",
    "broadcast_useless",
    "invalidation_signals",
    "invalidations_applied",
    "invalidations_useless",
)


def _run_mixed(protocol, n, refs_per_proc, sparse=None):
    """Build and run one machine; ``sparse`` is tri-state.

    ``None`` uses the protocol's default options (the registry-at-scale
    runs); ``True``/``False`` build envelope-identical twins — same
    ``sparse_options()``, differing only in ``sparse_fanout``.
    """
    workload = DuboisBriggsWorkload(
        n_processors=n, q=0.10, w=0.3, private_blocks_per_proc=8, seed=7
    )
    kwargs = (
        {}
        if sparse is None
        else {"options": sparse_options(), "sparse_fanout": sparse}
    )
    config = MachineConfig(
        n_processors=n,
        n_modules=4,
        n_blocks=workload.n_blocks,
        cache_sets=4,
        cache_assoc=2,
        protocol=protocol,
        network=registry.resolve(protocol).default_network(),
        **kwargs,
    )
    machine = build_machine(config, workload)
    machine.run(refs_per_proc=refs_per_proc)
    return machine


@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
def test_every_protocol_scales_to(protocol, n):
    machine = _run_mixed(protocol, n, refs_per_proc=2048 // n)
    audit_machine(machine).raise_if_failed()
    assert machine.oracle.reads_checked > 0
    assert machine.oracle.writes_committed > 0


@pytest.mark.slow
@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
def test_every_protocol_runs_10k_refs_at_n256(protocol):
    machine = _run_mixed(protocol, 256, refs_per_proc=40)
    audit_machine(machine).raise_if_failed()
    assert machine.results().total_refs >= 10_000


@pytest.mark.parametrize("n", [4, 16, 64])
@pytest.mark.parametrize("protocol", SPARSE_PROTOCOLS)
def test_sparse_twin_matches_dense_exactly(protocol, n):
    refs = 2048 // n
    dense = _run_mixed(protocol, n, refs, sparse=False)
    sparse = _run_mixed(protocol, n, refs, sparse=True)
    audit_machine(dense).raise_if_failed()
    audit_machine(sparse).raise_if_failed()
    sparse.reconcile_sparse_counters()
    for name in EXACT_COUNTERS:
        assert dense.registry.total(name) == sparse.registry.total(name), (
            f"{protocol} n={n}: counter {name} diverged "
            f"(dense {dense.registry.total(name)}, "
            f"sparse {sparse.registry.total(name)})"
        )
    assert_dense_equivalent(dense, sparse, f"{protocol} n={n}")


@pytest.mark.parametrize("n", [16, 64])
def test_sparse_fanout_suppresses_work_at_scale(n):
    """At large n with private-heavy sharing, the sparse path must skip
    the overwhelming majority of per-cache fan-out events."""
    machine = _run_mixed("classical", n, 2048 // n, sparse=True)
    audit_machine(machine).raise_if_failed()
    machine.reconcile_sparse_counters()
    suppressed = sum(
        ctrl.counters.get("sparse_signals_suppressed")
        for ctrl in machine.controllers
    )
    signalled = machine.registry.total("invalidation_signals")
    assert signalled > 0
    assert suppressed / signalled > 0.9, (
        f"n={n}: only {suppressed}/{signalled} signals suppressed"
    )


def _lockstep_refs(seed, n, n_ops):
    refs = random_refs(seed, n_processors=n, n_blocks=4, n_ops=n_ops)
    # Pin the machine size: the harness sizes by max pid seen.
    refs.append(MemRef(pid=n - 1, op=Op.READ, block=0, shared=True))
    return refs


@pytest.mark.parametrize("n", [16, 64])
def test_sparse_lockstep_agrees_with_fullmap(n):
    report = run_differential(
        _lockstep_refs(1984, n, 24),
        protocols=list(SPARSE_PROTOCOLS),
        sparse=True,
        n_modules=2,
    )
    assert report.ok, report.render()


@pytest.mark.slow
def test_sparse_lockstep_agrees_with_fullmap_at_n256():
    report = run_differential(
        _lockstep_refs(1984, 256, 16),
        protocols=list(SPARSE_PROTOCOLS),
        sparse=True,
        n_modules=2,
    )
    assert report.ok, report.render()
