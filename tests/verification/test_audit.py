"""Quiescent audits: clean machines pass; planted corruption is caught."""

import pytest

from repro.core.states import GlobalState
from repro.verification.audit import AuditReport, audit_machine

from tests.conftest import read, scripted_machine, uniform_machine, write


def test_report_mechanics():
    report = AuditReport()
    assert report.ok
    report.raise_if_failed()
    report.fail("boom")
    assert not report.ok
    with pytest.raises(AssertionError, match="boom"):
        report.raise_if_failed()


def test_clean_machine_audits_clean():
    machine = uniform_machine("twobit", n=4, seed=1, refs=400)
    assert audit_machine(machine).ok


def test_detects_phantom_directory_state():
    machine = scripted_machine([[], []])
    read(machine, 0, 3)
    # Corrupt: claim modified while the only copy is clean.
    machine.controllers[0].directory.set_state(3, GlobalState.PRESENTM)
    report = audit_machine(machine)
    assert any("PresentM" in v for v in report.violations)


def _plant_twobit_state(machine):
    machine.controllers[0].directory.set_state(3, GlobalState.PRESENTM)


def _plant_fullmap_owner(machine):
    directory = machine.controllers[0].directory
    entry = directory.entry(3)
    entry.owners.add(1)
    directory.commit(3, entry)


def _plant_tbuf_owner(machine):
    machine.controllers[0].tbuf.establish(3, {1})


@pytest.mark.parametrize(
    "protocol, tbuf, plant, needle",
    [
        ("twobit", 0, _plant_twobit_state, "PresentM"),
        ("fullmap", 0, _plant_fullmap_owner, "directory owners"),
        ("twobit", 8, _plant_tbuf_owner, "translation buffer"),
    ],
    ids=["twobit-state", "fullmap-owner", "tbuf-entry"],
)
def test_detects_directory_entry_for_a_block_no_cache_holds(
    protocol, tbuf, plant, needle
):
    """The audit walks only held blocks; a directory record is one, so
    a stale record for a block with no copy and no commit is still
    checked."""
    from repro.config import ProtocolOptions

    machine = scripted_machine(
        [[], []], protocol=protocol,
        options=ProtocolOptions(translation_buffer_entries=tbuf),
    )
    plant(machine)
    report = audit_machine(machine)
    assert any(needle in v for v in report.violations), report.violations


def test_detects_absent_with_cached_copy():
    machine = scripted_machine([[], []])
    read(machine, 0, 3)
    machine.controllers[0].directory.set_state(3, GlobalState.ABSENT)
    report = audit_machine(machine)
    assert any("Absent" in v for v in report.violations)


def test_detects_two_dirty_copies():
    machine = scripted_machine([[], []])
    read(machine, 0, 3)
    read(machine, 1, 3)
    for pid in (0, 1):
        machine.caches[pid].holds(3).modified = True
    report = audit_machine(machine)
    assert any("modified copies" in v for v in report.violations)


def test_detects_stale_clean_copy():
    machine = scripted_machine([[], []])
    read(machine, 0, 3)
    machine.caches[0].holds(3).version = 999
    report = audit_machine(machine)
    assert any("clean copy" in v for v in report.violations)


def test_detects_lost_write():
    machine = scripted_machine([[], []])
    v = write(machine, 0, 3).version
    line = machine.caches[0].holds(3)
    line.version = v - 1 if v else 123  # dirty copy not at latest
    report = audit_machine(machine)
    assert any("dirty copy" in v for v in report.violations)


def test_detects_corrupt_tbuf_entry():
    from repro.config import ProtocolOptions

    machine = scripted_machine(
        [[], []], options=ProtocolOptions(translation_buffer_entries=8)
    )
    read(machine, 0, 3)
    machine.controllers[0].tbuf.establish(3, {1})  # wrong owner
    report = audit_machine(machine)
    assert any("translation buffer" in v for v in report.violations)


def test_detects_fullmap_owner_mismatch():
    machine = scripted_machine([[], []], protocol="fullmap")
    read(machine, 0, 3)
    machine.controllers[0].directory.entry(3).owners = {1}
    report = audit_machine(machine)
    assert any("owners" in v for v in report.violations)


def test_detects_non_quiescence():
    machine = scripted_machine([[], []])
    read(machine, 0, 3)
    machine.sim.post(5, lambda: None)  # dangling event
    report = audit_machine(machine)
    assert any("pending" in v for v in report.violations)


def test_oracle_violations_surface_in_audit():
    machine = scripted_machine([[], []], strict_coherence=False)
    machine.oracle.violations.append("P0 read block 1 -> v0 (synthetic)")
    report = audit_machine(machine)
    assert any("oracle" in v for v in report.violations)
