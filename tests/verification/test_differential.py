"""The differential conformance harness (lockstep cross-protocol replay)."""

from __future__ import annotations

import pytest

from repro.protocols import registry
from repro.verification.differential import (
    compare_traces,
    random_refs,
    run_differential,
    run_lockstep,
)
from repro.verification.oracle import CoherenceOracle
from repro.workloads.reference import MemRef, Op


def _refs(*specs):
    """(pid, 'R'|'W', block) tuples -> shared MemRefs."""
    return [
        MemRef(pid=pid, op=Op.parse(op), block=block, shared=True)
        for pid, op, block in specs
    ]


def test_all_protocols_agree_on_handwritten_stream():
    refs = _refs(
        (0, "W", 0), (1, "R", 0), (1, "W", 0), (0, "R", 0),
        (0, "W", 1), (1, "R", 1), (1, "W", 1), (0, "R", 1),
    )
    report = run_differential(refs)
    assert report.ok, report.render()
    assert set(report.traces) == set(registry.protocol_names())


@pytest.mark.parametrize("seed", range(4))
def test_all_protocols_agree_on_random_streams(seed):
    refs = random_refs(seed, n_processors=2, n_blocks=2, n_ops=12)
    report = run_differential(refs)
    assert report.ok, report.render()


def test_protocols_agree_past_oracle_pruning(monkeypatch):
    """The harness drives caches without processors, so the oracle's
    horizon is the current cycle; draining each reference before the
    next keeps every read at or after it.  A write-heavy stream long
    enough to prune many times must still agree with the full map."""
    prunes = []
    prune = CoherenceOracle._prune

    def counting_prune(oracle):
        prunes.append(oracle.writes_committed)
        prune(oracle)

    monkeypatch.setattr(CoherenceOracle, "_prune", counting_prune)
    refs = random_refs(7, n_processors=3, n_blocks=4, n_ops=900, write_frac=0.8)
    assert sum(ref.is_write for ref in refs) > 600
    report = run_differential(refs)
    assert report.ok, report.render()
    assert len(report.traces["fullmap"].reads) > 100
    assert len(prunes) >= 2 * len(report.traces)


def test_reads_observe_latest_committed_version():
    """Serial order fixes the truth: every read sees the last write."""
    refs = _refs((0, "W", 0), (0, "W", 0), (1, "R", 0))
    trace = run_lockstep("twobit", refs)
    # two writes committed -> the read observes version 2
    assert trace.reads == [(2, 1, 0, 2)]
    assert trace.finals[0] == 2
    assert trace.audit_violations == []


def test_divergence_is_reported():
    """A tampered trace produces read/final/audit divergences."""
    refs = _refs((0, "W", 0), (1, "R", 0))
    report = run_differential(refs, protocols=["twobit"])
    assert report.ok
    base = report.traces["fullmap"]
    trace = report.traces["twobit"]
    index, pid, block, version = trace.reads[0]
    trace.reads[0] = (index, pid, block, version + 1)
    trace.finals[0] = 99
    trace.audit_violations.append("synthetic violation")
    divergences = compare_traces(base, report.traces)
    kinds = {d.kind for d in divergences}
    assert kinds == {"read", "final", "audit"}
    assert all(d.protocol == "twobit" for d in divergences)


def test_reference_always_included():
    refs = _refs((0, "W", 0), (1, "R", 0))
    report = run_differential(refs, protocols=["illinois"])
    assert "fullmap" in report.traces
    assert report.reference == "fullmap"


def test_render_mentions_protocol_count():
    refs = _refs((0, "W", 0))
    report = run_differential(refs)
    text = report.render()
    assert f"{len(report.traces)} protocols" in text
    assert "all protocols agree" in text
