"""Coherence oracle semantics."""

import pytest

from repro.verification.oracle import (
    PRUNE_MIN,
    CoherenceOracle,
    CoherenceViolation,
    OracleHorizonError,
)


def test_versions_monotone_and_unique():
    oracle = CoherenceOracle()
    versions = [oracle.new_version() for _ in range(5)]
    assert versions == sorted(set(versions))


def test_unwritten_block_reads_zero():
    oracle = CoherenceOracle()
    oracle.check_read(block=1, version=0, issue_time=10, pid=0)
    assert oracle.ok


def test_read_before_commit_may_see_old_value():
    oracle = CoherenceOracle()
    v = oracle.new_version()
    oracle.commit_write(1, v, time=20, pid=0)
    # Issued strictly before the commit: old value is legal.
    oracle.check_read(1, 0, issue_time=19, pid=1)
    # Issued exactly at commit time: not *strictly* before -> old ok too.
    oracle.check_read(1, 0, issue_time=20, pid=1)
    assert oracle.ok


def test_stale_read_after_commit_raises():
    oracle = CoherenceOracle()
    v = oracle.new_version()
    oracle.commit_write(1, v, time=20, pid=0)
    with pytest.raises(CoherenceViolation):
        oracle.check_read(1, 0, issue_time=21, pid=1)


def test_reading_a_never_written_version_raises():
    oracle = CoherenceOracle()
    v = oracle.new_version()
    oracle.commit_write(1, v, time=5, pid=0)
    with pytest.raises(CoherenceViolation):
        oracle.check_read(1, v + 7, issue_time=10, pid=1)


def test_newer_than_required_is_fine():
    oracle = CoherenceOracle()
    v1 = oracle.new_version()
    oracle.commit_write(1, v1, time=5, pid=0)
    v2 = oracle.new_version()
    oracle.commit_write(1, v2, time=15, pid=0)
    oracle.check_read(1, v2, issue_time=10, pid=1)  # newer than floor v1
    assert oracle.ok


def test_non_strict_mode_records_without_raising():
    oracle = CoherenceOracle(strict=False)
    v = oracle.new_version()
    oracle.commit_write(1, v, time=5, pid=0)
    oracle.check_read(1, 0, issue_time=10, pid=1)
    assert not oracle.ok
    assert len(oracle.violations) == 1
    assert "P1 read block 1" in oracle.violations[0]


def test_commits_must_be_time_ordered_per_block():
    oracle = CoherenceOracle()
    oracle.commit_write(1, oracle.new_version(), time=10, pid=0)
    with pytest.raises(ValueError):
        oracle.commit_write(1, oracle.new_version(), time=5, pid=0)


def test_blocks_are_independent():
    oracle = CoherenceOracle()
    v = oracle.new_version()
    oracle.commit_write(1, v, time=5, pid=0)
    oracle.check_read(2, 0, issue_time=50, pid=1)  # block 2 never written
    assert oracle.ok


def test_latest_version_and_time():
    oracle = CoherenceOracle()
    assert oracle.latest_version(3) == 0
    assert oracle.latest_committer_time(3) is None
    v = oracle.new_version()
    oracle.commit_write(3, v, time=7, pid=0)
    assert oracle.latest_version(3) == v
    assert oracle.latest_committer_time(3) == 7


def test_statistics():
    oracle = CoherenceOracle()
    v = oracle.new_version()
    oracle.commit_write(1, v, time=1, pid=0)
    oracle.check_read(1, v, issue_time=2, pid=1)
    assert oracle.writes_committed == 1
    assert oracle.reads_checked == 1


def test_violation_carries_structured_fields():
    oracle = CoherenceOracle(strict=True)
    v = oracle.new_version()
    oracle.commit_write(3, v, time=5, pid=0)
    with pytest.raises(CoherenceViolation) as excinfo:
        oracle.check_read(3, 0, issue_time=10, pid=1)
    violation = excinfo.value
    assert violation.block == 3
    assert violation.pid == 1
    assert violation.issue_time == 10
    assert violation.observed == 0
    assert violation.required == v
    assert violation.known is True
    # The message stays human-readable alongside the fields.
    assert f"requires >= v{v}" in str(violation)


def test_unknown_version_violation_is_flagged():
    oracle = CoherenceOracle(strict=True)
    with pytest.raises(CoherenceViolation) as excinfo:
        oracle.check_read(1, 42, issue_time=10, pid=0)  # never written
    assert excinfo.value.known is False
    assert excinfo.value.observed == 42


def test_violation_fields_default_to_none():
    violation = CoherenceViolation("free-form message")
    assert violation.block is None
    assert violation.pid is None
    assert violation.observed is None


# ----------------------------------------------------------------------
# Bounded history: pruning below the in-flight horizon
# ----------------------------------------------------------------------
def _pruning_oracle(horizon_cell):
    return CoherenceOracle(horizon=lambda: horizon_cell[0])


def test_bare_oracle_keeps_every_commit():
    oracle = CoherenceOracle()
    for t in range(3 * PRUNE_MIN):
        oracle.commit_write(1, oracle.new_version(), time=t, pid=0)
    assert len(oracle._history[1].times) == 3 * PRUNE_MIN
    oracle.check_read(1, 1, issue_time=1, pid=0)  # the oldest floor


def test_kept_window_is_last_commit_before_horizon_and_all_after():
    horizon = [0]
    oracle = _pruning_oracle(horizon)
    # Block 7 commits at t = 0, 2, 4, ...; block 8 once, long ago.
    oracle.commit_write(8, oracle.new_version(), time=0, pid=1)
    times = [2 * i for i in range(PRUNE_MIN - 2)]
    versions = []
    for t in times:
        v = oracle.new_version()
        oracle.commit_write(7, v, time=t, pid=0)
        versions.append(v)
    assert oracle.writes_committed == PRUNE_MIN - 1  # one short of a prune
    horizon[0] = 101  # between the commits at t=100 and t=102
    v = oracle.new_version()
    oracle.commit_write(7, v, time=times[-1] + 2, pid=0)  # the 256th commit
    times.append(times[-1] + 2)
    versions.append(v)
    kept = oracle._history[7]
    assert kept.times == [100] + [t for t in times if t >= 101]
    assert kept.versions == versions[50:]
    assert kept.dropped == 50
    # A block whose only commit is before the horizon keeps it.
    assert oracle._history[8].times == [0]
    # Every read from the horizon on gets the full-history verdict.
    oracle.check_read(7, versions[50], issue_time=101, pid=1)
    oracle.check_read(7, versions[51], issue_time=103, pid=1)
    with pytest.raises(CoherenceViolation) as excinfo:
        oracle.check_read(7, versions[50], issue_time=103, pid=1)
    assert excinfo.value.required == versions[51]
    assert excinfo.value.known is True
    # A pruned version is below the floor, so still a violation; whether
    # it was this block's can no longer be told, and it reads as stale.
    with pytest.raises(CoherenceViolation) as excinfo:
        oracle.check_read(7, versions[10], issue_time=101, pid=1)
    assert (excinfo.value.required, excinfo.value.known) == (versions[50], True)


def test_read_below_pruned_horizon_raises_a_horizon_error():
    horizon = [0]
    oracle = _pruning_oracle(horizon)
    horizon[0] = 40
    for t in range(PRUNE_MIN):
        oracle.commit_write(t % 4, oracle.new_version(), time=t, pid=0)
    with pytest.raises(OracleHorizonError) as excinfo:
        oracle.check_read(1, 0, issue_time=39, pid=2)
    assert not isinstance(excinfo.value, CoherenceViolation)
    assert "below the pruned horizon t=40" in str(excinfo.value)
    assert oracle.ok
    oracle.check_read(1, oracle.latest_version(1), issue_time=40, pid=2)


def test_prune_threshold_doubles_with_the_kept_count():
    horizon = [0]
    oracle = _pruning_oracle(horizon)
    # Nothing is old enough to drop, so each prune keeps everything and
    # the next waits until the kept count doubles.
    for t in range(4 * PRUNE_MIN):
        oracle.commit_write(t % 3, oracle.new_version(), time=t, pid=0)
    assert oracle._prune_at == 8 * PRUNE_MIN
    horizon[0] = 4 * PRUNE_MIN
    for t in range(4 * PRUNE_MIN, 8 * PRUNE_MIN):
        oracle.commit_write(t % 3, oracle.new_version(), time=t, pid=0)
    # At 8 x PRUNE_MIN commits the three blocks fell to one commit before
    # the horizon plus the 4 x PRUNE_MIN after it.
    kept = sum(len(h.times) for h in oracle._history.values())
    assert kept == 3 + 4 * PRUNE_MIN
    assert oracle._prune_at == oracle.writes_committed + kept
