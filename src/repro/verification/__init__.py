"""Verification layer: oracle, audits, model checker, differential harness."""

from repro.verification.audit import AuditReport, audit_machine
from repro.verification.differential import (
    DifferentialReport,
    Divergence,
    ProtocolTrace,
    random_refs,
    run_differential,
    run_lockstep,
)
from repro.verification.model_check import (
    Counterexample,
    ModelCheckResult,
    Scenario,
    build_scenario_machine,
    check_all,
    check_protocol,
    explore,
    make_scenario,
    replay_schedule,
    scenarios_for,
)
from repro.verification.oracle import CoherenceOracle, CoherenceViolation
from repro.verification.schedules import (
    describe_entry,
    format_schedule,
    parse_schedule,
)
from repro.verification.state import machine_state

__all__ = [
    "AuditReport",
    "CoherenceOracle",
    "CoherenceViolation",
    "Counterexample",
    "DifferentialReport",
    "Divergence",
    "ModelCheckResult",
    "ProtocolTrace",
    "Scenario",
    "audit_machine",
    "build_scenario_machine",
    "check_all",
    "check_protocol",
    "describe_entry",
    "explore",
    "format_schedule",
    "machine_state",
    "make_scenario",
    "parse_schedule",
    "random_refs",
    "replay_schedule",
    "run_differential",
    "run_lockstep",
    "scenarios_for",
]
