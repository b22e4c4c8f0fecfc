"""Smoke-run the shipped examples (the quickest-to-rot artifacts)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"

#: Fast examples run whole; the sweep-style ones are exercised by the
#: benchmarks that share their code paths and would only slow the suite.
FAST_EXAMPLES = [
    "quickstart.py",
    "trace_driven.py",
    "verification_demo.py",
]


@pytest.mark.parametrize("script", FAST_EXAMPLES)
def test_example_runs_clean(script, tmp_path):
    """Runs under a private temp dir, which it must leave empty."""
    private_tmp = tmp_path / "tmp"
    private_tmp.mkdir()
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / script)],
        capture_output=True,
        text=True,
        timeout=240,
        env={**os.environ, "TMPDIR": str(private_tmp)},
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip()
    assert not list(private_tmp.iterdir()), "example left temp files behind"


def test_quickstart_reports_clean_audit():
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / "quickstart.py")],
        capture_output=True,
        text=True,
        timeout=240,
    )
    assert "coherence audit: CLEAN" in result.stdout


def test_verification_demo_shows_a_violation():
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / "verification_demo.py")],
        capture_output=True,
        text=True,
        timeout=240,
    )
    assert "oracle violations recorded" in result.stdout
    assert "requires >= v" in result.stdout


def test_quickstart_machine_audits_clean_in_process():
    """The quickstart configuration, run in-process and fully audited —
    subprocess smoke tests only see stdout; this sees the state."""
    from repro import DuboisBriggsWorkload, MachineConfig
    from repro.system.builder import build_machine
    from repro.verification.audit import audit_machine

    workload = DuboisBriggsWorkload(
        n_processors=4, q=0.05, w=0.2, n_shared_blocks=16,
        private_blocks_per_proc=64, seed=1984,
    )
    config = MachineConfig(
        n_processors=4, n_modules=2, n_blocks=workload.n_blocks,
        cache_sets=8, cache_assoc=4, protocol="twobit", network="xbar",
    )
    machine = build_machine(config, workload)
    machine.run(refs_per_proc=800, warmup_refs=100)
    audit_machine(machine).raise_if_failed()


def test_all_examples_present_and_documented():
    scripts = sorted(p.name for p in EXAMPLES.glob("*.py"))
    assert len(scripts) >= 8
    for script in scripts:
        text = (EXAMPLES / script).read_text()
        assert text.startswith("#!/usr/bin/env python3"), script
        assert '"""' in text.split("\n", 2)[1], script  # module docstring
