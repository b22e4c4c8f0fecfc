"""Adversarial workload search: determinism, replay, promotion."""

import pytest

from repro.workloads import WorkloadSpecError, parse_workload
from repro.workloads.adversarial import (
    OBJECTIVES,
    Stressor,
    dubois_baseline,
    hunt,
    load_stressor,
    promote,
    resolve_objective,
)
from repro.workloads.synthetic import ScriptedWorkload

# Tiny budgets keep these tier-1; the seeded search still finds a
# stressor an order of magnitude above the synthetic baseline.
BUDGET = 16
SEED = 11


@pytest.fixture(scope="module")
def small_hunt():
    return hunt("twobit", budget=BUDGET, seed=SEED, probes=2, baseline=0.05)


def test_same_seed_same_hunt(small_hunt):
    again = hunt("twobit", budget=BUDGET, seed=SEED, probes=2, baseline=0.05)
    assert again.best == small_hunt.best
    assert [e.score for e in again.corpus] == [
        e.score for e in small_hunt.corpus
    ]
    assert [e.schedule for e in again.corpus] == [
        e.schedule for e in small_hunt.corpus
    ]
    assert again.coverage == small_hunt.coverage


def test_different_seed_different_hunt(small_hunt):
    other = hunt("twobit", budget=BUDGET, seed=SEED + 1, probes=2,
                 baseline=0.05)
    # Scores may coincide; the explored corpora should not be identical.
    assert (
        other.best != small_hunt.best
        or [e.scripts for e in other.corpus]
        != [e.scripts for e in small_hunt.corpus]
    )


def test_replay_is_bit_identical(small_hunt):
    out1, score1 = small_hunt.best.replay()
    out2, score2 = small_hunt.best.replay()
    assert out1.status == out2.status == "ok"
    assert out1.decisions == out2.decisions
    assert score1 == score2 == small_hunt.best.score


def test_promote_load_roundtrip(small_hunt, tmp_path):
    path = tmp_path / "stressor.json"
    promote(small_hunt.best, str(path))
    loaded = load_stressor(str(path))
    assert loaded == small_hunt.best
    out, score = loaded.replay()
    assert out.status == "ok"
    assert score == small_hunt.best.score


def test_promoted_stressor_feeds_registry(small_hunt, tmp_path):
    path = tmp_path / "stressor.json"
    promote(small_hunt.best, str(path))
    w = parse_workload(f"scripted:{path}")
    assert isinstance(w, ScriptedWorkload)
    assert w.n_processors == 4


def test_promoted_stressor_takes_no_options(small_hunt, tmp_path):
    # A stressor fixes its own scripts: an option is an error, not
    # silently dropped.
    path = tmp_path / "stressor.json"
    promote(small_hunt.best, str(path))
    with pytest.raises(WorkloadSpecError, match="unknown option 'seed'"):
        parse_workload(f"scripted:{path},seed=3")


def test_load_rejects_non_stressor_json(tmp_path):
    path = tmp_path / "other.json"
    path.write_text('{"schema": "something-else"}')
    with pytest.raises(ValueError, match="not a stressor file"):
        load_stressor(str(path))


@pytest.mark.slow
def test_hunt_beats_dubois_high_sharing_baseline():
    """The acceptance bar: a small seeded hunt finds a workload whose
    useless-broadcast overhead exceeds the synthetic HIGH_SHARING point."""
    baseline = dubois_baseline("twobit", "broadcast_overhead", seed=SEED)
    result = hunt("twobit", budget=30, seed=SEED, probes=2,
                  baseline=baseline)
    assert result.best.score > baseline
    assert result.best.gain > 1.0


def test_hunt_fault_objective_requires_plan():
    with pytest.raises(ValueError, match="fault plan"):
        hunt("twobit", "nak_retries", budget=4, seed=1, baseline=1.0)


def test_hunt_nak_objective_under_faults():
    result = hunt(
        "twobit", "nak_retries", budget=8, seed=3, probes=2,
        faults="light", baseline=0.001,
    )
    out, score = result.best.replay()
    assert out.status == "ok"
    assert score == result.best.score


def test_hunt_refuses_faults_without_recovery_path():
    # At the parent this spent its budget and ended in "hunt found no
    # legal candidate": every faulted probe crashed.
    with pytest.raises(ValueError, match="no NAK/retry recovery path"):
        hunt("classical", "nak_retries", budget=2, faults="check",
             baseline=0.001)


def test_unknown_objective_lists_known():
    with pytest.raises(ValueError, match="unknown objective"):
        resolve_objective("entropy")
    assert set(OBJECTIVES) == {"broadcast_overhead", "nak_retries", "latency"}


def test_hunt_rejects_bad_arguments():
    with pytest.raises(ValueError):
        hunt("twobit", budget=0, baseline=1.0)
    with pytest.raises(ValueError):
        hunt("twobit", budget=4, probes=0, baseline=1.0)


def test_stressor_workload_replays_under_experiment(small_hunt, tmp_path):
    """A promoted stressor's scripts run as an ordinary finite workload
    through the facade (machine geometry differs from the scenario; the
    point is that the refs are legal and audit clean)."""
    from repro.api import Experiment

    path = tmp_path / "stressor.json"
    promote(small_hunt.best, str(path))
    outcome = Experiment(
        protocol="twobit", workload=f"scripted:{path}", warmup_refs=0
    ).run()
    assert outcome.audit.ok
    assert outcome.results.total_refs > 0
