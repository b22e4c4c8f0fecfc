"""Properties of the sparse broadcast fan-out (copy-holder index).

Two invariants, over random streams, protocols, machine sizes, and
networks:

1. **Superset soundness** — at quiescence the copy-holder index contains
   every cache holding a valid line.  The index may carry stale extras
   (silent evictions self-clean lazily); it must never *miss* a holder,
   because a missed holder would be skipped by a sparse invalidation
   round and keep a stale copy forever.

2. **Dense equivalence** — a sparse-fan-out machine and its dense twin
   (identical except for ``sparse_fanout``) reach the same machine state
   (every field but the copy-holder index) and the same counters (after
   the sparse side's lazy reconciliation folds its bookkeeping back into
   the dense form).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import MachineConfig, sparse_options
from repro.system.builder import build_machine
from repro.verification.audit import audit_machine
from repro.workloads.synthetic import UniformWorkload
from tests.conftest import assert_dense_equivalent

#: Protocols with a copy-holder index on the sparse path.
SPARSE_PROTOCOLS = ("twobit", "twobit_wt", "classical")


def _build_and_run(protocol, network, n, seed, write_frac, sparse):
    workload = UniformWorkload(
        n_processors=n, n_blocks=16, write_frac=write_frac, seed=seed
    )
    config = MachineConfig(
        n_processors=n,
        n_modules=2,
        n_blocks=16,
        cache_sets=2,
        cache_assoc=2,
        protocol=protocol,
        network=network,
        options=sparse_options(),
        sparse_fanout=sparse,
    )
    machine = build_machine(config, workload)
    machine.run(refs_per_proc=150)
    return machine


@given(
    protocol=st.sampled_from(SPARSE_PROTOCOLS),
    network=st.sampled_from(("xbar", "delta")),
    n=st.sampled_from((2, 4, 8)),
    seed=st.integers(min_value=0, max_value=2**16),
    write_frac=st.floats(min_value=0.1, max_value=0.9),
)
@settings(max_examples=20, deadline=None)
def test_holder_index_is_superset_of_valid_lines(
    protocol, network, n, seed, write_frac
):
    machine = _build_and_run(protocol, network, n, seed, write_frac, True)
    audit_machine(machine).raise_if_failed()
    indexes = [
        holders
        for ctrl in machine.controllers
        if (holders := getattr(ctrl, "holders", None)) is not None
    ]
    assert indexes, f"{protocol}: no copy-holder index wired"
    for block in range(machine.config.n_blocks):
        actual = {
            cache.pid
            for cache in machine.caches
            if getattr(cache, "array", None) is not None
            and cache.array.lookup(block) is not None
        }
        members = set()
        for holders in indexes:
            members |= holders.holders(block)
        assert actual <= members, (
            f"{protocol}/{network} n={n}: block {block} cached at "
            f"{sorted(actual)} but index only has {sorted(members)}"
        )


@given(
    protocol=st.sampled_from(SPARSE_PROTOCOLS),
    network=st.sampled_from(("xbar", "delta")),
    n=st.sampled_from((2, 4, 8)),
    seed=st.integers(min_value=0, max_value=2**16),
    write_frac=st.floats(min_value=0.1, max_value=0.9),
)
@settings(max_examples=15, deadline=None)
def test_sparse_and_dense_twins_fingerprint_identically(
    protocol, network, n, seed, write_frac
):
    dense = _build_and_run(protocol, network, n, seed, write_frac, False)
    sparse = _build_and_run(protocol, network, n, seed, write_frac, True)
    audit_machine(dense).raise_if_failed()
    audit_machine(sparse).raise_if_failed()
    assert_dense_equivalent(dense, sparse, f"{protocol}/{network} n={n}")


@given(
    protocol=st.sampled_from(SPARSE_PROTOCOLS),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=10, deadline=None)
def test_sparse_twin_suppresses_fanout_without_changing_counters(
    protocol, seed
):
    """The sparse path must actually skip work (suppression counters are
    nonzero under sharing) while the dense-visible counter totals stay
    exactly equal after reconciliation."""
    dense = _build_and_run(protocol, "xbar", 8, seed, 0.5, False)
    sparse = _build_and_run(protocol, "xbar", 8, seed, 0.5, True)
    sparse.reconcile_sparse_counters()
    suppressed = sparse.network.counters.get("sparse_deliveries_suppressed")
    for ctrl in sparse.controllers:
        suppressed += ctrl.counters.get("sparse_signals_suppressed")
    assert suppressed > 0, f"{protocol}: sparse path suppressed nothing"
    assert_dense_equivalent(dense, sparse, f"{protocol} seed={seed}")
