"""End-to-end recovery: NAK/retry and write-back backpressure survive runs."""

import pytest

from repro.config import MachineConfig, ProtocolOptions
from repro.faults import CANNED_PLANS, FAULT_PROTOCOLS, FaultSpec, attach_faults
from repro.system.builder import build_machine
from repro.verification.audit import audit_machine
from repro.workloads.synthetic import DuboisBriggsWorkload


def _run(protocol, faults=None, options=None, refs=800, n=4, q=0.15, w=0.4,
         seed=1984):
    workload = DuboisBriggsWorkload(
        n_processors=n, q=q, w=w, private_blocks_per_proc=32, seed=seed
    )
    config = MachineConfig(
        n_processors=n,
        n_modules=2,
        n_blocks=workload.n_blocks,
        cache_sets=4,
        cache_assoc=1,
        protocol=protocol,
        seed=seed,
        options=options or ProtocolOptions(),
    )
    machine = build_machine(config, workload)
    attach_faults(machine, faults)
    machine.run(refs_per_proc=refs, warmup_refs=100)
    audit_machine(machine).raise_if_failed()
    return machine


@pytest.mark.parametrize("protocol", FAULT_PROTOCOLS)
def test_stall_heavy_run_recovers_via_nak_retry(protocol):
    spec = FaultSpec(seed=7, stall_prob=0.15, max_stall=6)
    machine = _run(protocol, faults=spec)
    total = machine.registry.total
    assert total("naks_sent") > 0
    assert total("retries_scheduled") > 0
    # Every NAKed command was eventually re-admitted: the run finished
    # and the audit (inside _run) found a coherent machine.
    assert machine.results().total_refs > 0


@pytest.mark.parametrize("protocol", FAULT_PROTOCOLS)
def test_duplication_absorbed_at_admission(protocol):
    spec = FaultSpec(seed=3, dup_prob=0.25, max_dups=1)
    machine = _run(protocol, faults=spec)
    total = machine.registry.total
    assert total("duplicates_injected") > 0
    assert (
        total("duplicate_commands_dropped")
        + total("duplicate_gets_dropped")
        + total("duplicate_query_data_dropped")
        > 0
    )


def test_wb_capacity_backpressure_completes():
    # Capacity 1 with a direct-mapped cache and eager writes: a second
    # dirty eviction while the first EJECT is still outstanding must be
    # held back and retried, not crash with an overflow.
    machine = _run(
        "twobit",
        faults=FaultSpec(seed=5, stall_prob=0.20, max_stall=8),
        options=ProtocolOptions(wb_capacity=1),
        q=0.30,
        w=0.6,
    )
    assert machine.registry.total("wb_backpressure_stalls") > 0


def test_wb_capacity_backpressure_without_faults():
    # The backpressure path is part of the protocol, not the injector:
    # it must also engage on a bare machine with a tiny buffer.
    machine = _run(
        "twobit", options=ProtocolOptions(wb_capacity=1), q=0.30, w=0.6
    )
    assert machine.results().total_refs > 0


def test_give_up_after_max_retries_is_structured():
    # A permanently-stalled controller must surface as ProtocolError
    # ("giving up"), not hang or overflow.  stall_prob=1 never closes
    # the window from the requester's perspective within two retries.
    from repro.protocols.base import ProtocolError

    spec = FaultSpec(seed=1, stall_prob=1.0, max_stall=8, max_retries=2,
                     retry_backoff=1)
    with pytest.raises(ProtocolError, match="giving up"):
        _run("twobit", faults=spec, refs=50)


# "check" is deliberately absent: its max_retries=2 is the model
# checker's acceptance bound (small bounded schedules), and across the
# thousands of admissions in a machine-scale run three back-to-back 5%
# stalls on one command are statistically guaranteed — the structured
# give-up would fire legitimately, not as a bug.
@pytest.mark.parametrize("plan", ["light", "heavy"])
def test_canned_plans_survive_all_fault_protocols(plan):
    for protocol in FAULT_PROTOCOLS:
        machine = _run(protocol, faults=CANNED_PLANS[plan], refs=400)
        assert machine.results().total_refs > 0


# Seeds at which a late duplicate of one query's answer (a PUT or
# QUERY_NOCOPY) completed a later query on the same block before query
# answers echoed the REQUEST's uid: coherence violations and a failed
# audit.
@pytest.mark.parametrize(
    "protocol,seed,max_dups,max_delay",
    [
        ("twobit", 3, 1, 40),
        ("twobit", 8, 1, 40),
        ("fullmap", 0, 1, 40),
        ("fullmap", 8, 1, 40),
        ("fullmap", 1, 4, 3),
        ("fullmap", 2, 4, 3),
        ("fullmap", 5, 4, 3),
        ("fullmap", 9, 4, 3),
    ],
)
def test_a_query_consumes_only_its_own_answer(protocol, seed, max_dups,
                                              max_delay):
    from repro.api import Experiment

    faults = FaultSpec(seed=seed, dup_prob=0.5, max_dups=max_dups,
                       max_delay=max_delay, max_retries=8)
    outcome = Experiment(
        protocol=protocol, n_processors=4, n_modules=2, q=0.05, w=0.6,
        private_blocks_per_proc=512, refs_per_proc=600, warmup_refs=0,
        seed=seed, faults=faults,
    ).run()
    assert outcome.audit.ok
    assert outcome.results.total_refs == 4 * 600
