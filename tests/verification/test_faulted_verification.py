"""Fault plans under the verification harnesses.

The acceptance bar for the recovery subsystem: the bounded model checker
must exhaust the smoke scenario cleanly for every fault-capable protocol
under the canned "check" plan (delays <= 3, at most one duplicate, two
retries), and the lockstep differential harness must show bit-equal
observable behaviour with and without faults — recovery may change
timing, never values.
"""

import pytest

from repro.faults import CANNED_PLANS, FAULT_PROTOCOLS, FaultSpec
from repro.verification.differential import (
    random_refs,
    run_differential,
    run_lockstep,
)
from repro.verification.model_check import check_protocol


@pytest.mark.parametrize("protocol", ["twobit", "fullmap"])
def test_smoke_scenario_exhausts_clean_under_check_plan(protocol):
    machines = []
    (result,) = check_protocol(
        protocol,
        depth="smoke",
        faults=CANNED_PLANS["check"],
        mutate=machines.append,
    )
    assert result.exhausted, f"{protocol}: hit the schedule cap under faults"
    assert result.ok, f"{protocol}: {result.counterexample.render()}"
    # The plan must actually have perturbed the exploration: if no
    # schedule injected a single fault, the check is vacuous.
    injected = sum(
        machine.registry.total(name)
        for machine in machines
        for name in ("delays_injected", "duplicates_injected",
                     "stall_window_hits", "naks_sent")
    )
    assert injected > 0, f"{protocol}: no fault ever fired under 'check'"


@pytest.mark.parametrize("seed", [0, 1])
def test_differential_agrees_under_faults(seed):
    refs = random_refs(seed)
    report = run_differential(refs, faults=CANNED_PLANS["check"])
    assert report.ok, report.render()
    assert set(report.traces) == set(FAULT_PROTOCOLS)


def test_faulted_run_matches_fault_free_observables():
    # The lockstep theorem as a recovery conformance check: same reads,
    # same finals, faults or not.
    refs = random_refs(3)
    bare = run_differential(refs, protocols=["twobit"])
    faulted = run_differential(
        refs, protocols=["twobit"], faults=CANNED_PLANS["check"]
    )
    bare_trace = bare.traces["twobit"]
    faulted_trace = faulted.traces["twobit"]
    assert bare_trace.reads == faulted_trace.reads
    assert bare_trace.finals == faulted_trace.finals


def test_differential_rejects_fault_incapable_selection():
    with pytest.raises(ValueError, match="no fault-capable protocol"):
        run_differential(
            random_refs(0),
            protocols=["classical"],
            faults=FaultSpec(seed=1, delay_prob=0.1),
        )


#: The issue this guards: without a recovery path, a fault plan made the
#: checker report a false FAIL and the lockstep run die mid-stream.
NO_RECOVERY = ("classical", "static", "twobit_wt")


@pytest.mark.parametrize("protocol", NO_RECOVERY)
def test_model_checker_refuses_faults_without_recovery_path(protocol):
    with pytest.raises(ValueError, match="no NAK/retry recovery path"):
        check_protocol(protocol, depth="smoke", faults=CANNED_PLANS["check"])


@pytest.mark.parametrize("protocol", NO_RECOVERY)
def test_lockstep_refuses_faults_without_recovery_path(protocol):
    with pytest.raises(ValueError, match="no NAK/retry recovery path"):
        run_lockstep(protocol, random_refs(0), faults=CANNED_PLANS["check"])
