"""Property-based tests for the coherence oracle's semantics."""

from unittest.mock import patch

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.verification import oracle as oracle_module
from repro.verification.oracle import CoherenceOracle, CoherenceViolation


@st.composite
def commit_schedules(draw):
    """A time-ordered list of commit instants for one block."""
    gaps = draw(st.lists(st.integers(min_value=1, max_value=20), max_size=15))
    times = []
    now = 0
    for gap in gaps:
        now += gap
        times.append(now)
    return times


@given(times=commit_schedules())
def test_latest_version_tracks_last_commit(times):
    oracle = CoherenceOracle()
    versions = []
    for t in times:
        v = oracle.new_version()
        oracle.commit_write(1, v, time=t, pid=0)
        versions.append(v)
    expected = versions[-1] if versions else 0
    assert oracle.latest_version(1) == expected


@given(times=commit_schedules(), probe=st.integers(min_value=0, max_value=400))
def test_reads_of_current_or_newer_versions_always_pass(times, probe):
    oracle = CoherenceOracle()
    versions = [0]
    for t in times:
        v = oracle.new_version()
        oracle.commit_write(1, v, time=t, pid=0)
        versions.append(v)
    # The version current at `probe` is the last committed strictly
    # before it; reading it, or anything newer that was committed, is
    # legal.
    current = 0
    for t, v in zip(times, versions[1:]):
        if t < probe:
            current = v
    for v in versions:
        if v >= current:
            oracle.check_read(1, v, issue_time=probe, pid=1)
    assert oracle.ok


@given(times=commit_schedules())
@settings(max_examples=50)
def test_reading_older_than_current_fails(times):
    oracle = CoherenceOracle(strict=False)
    versions = []
    for t in times:
        v = oracle.new_version()
        oracle.commit_write(1, v, time=t, pid=0)
        versions.append(v)
    if len(versions) < 2:
        return
    # Read issued after the final commit must not see the first version.
    oracle.check_read(1, versions[0], issue_time=times[-1] + 1, pid=1)
    assert not oracle.ok


@given(
    blocks=st.lists(
        st.integers(min_value=0, max_value=5), min_size=1, max_size=20
    )
)
def test_blocks_never_interfere(blocks):
    oracle = CoherenceOracle()
    time = 0
    latest = {}
    for block in blocks:
        time += 1
        v = oracle.new_version()
        oracle.commit_write(block, v, time=time, pid=0)
        latest[block] = v
    for block, v in latest.items():
        assert oracle.latest_version(block) == v
        oracle.check_read(block, v, issue_time=time + 1, pid=1)
    assert oracle.ok


@st.composite
def horizon_schedules(draw):
    """Commits, reads and horizon advances in cycle order.

    Each step is ``("commit", block, gap)``, ``("read", block, back,
    pick)`` or ``("advance", amount)``.  Reads are issued at or after the
    horizon and no later than the current cycle, as a processor's are.
    """
    step = st.one_of(
        st.tuples(
            st.just("commit"),
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=0, max_value=3),
        ),
        st.tuples(
            st.just("read"),
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=0, max_value=40),
            st.integers(min_value=0, max_value=1 << 16),
        ),
        st.tuples(st.just("advance"), st.integers(min_value=0, max_value=30)),
    )
    return draw(st.lists(step, min_size=30, max_size=300))


def _check(oracle, block, version, issue_time):
    try:
        oracle.check_read(block, version, issue_time=issue_time, pid=1)
    except CoherenceViolation as exc:
        return (exc.block, exc.pid, exc.issue_time, exc.observed,
                exc.required, exc.known)
    return None


@given(steps=horizon_schedules())
@settings(max_examples=200, deadline=None)
def test_pruning_oracle_gives_the_full_history_verdict(steps):
    """Pruning below a nondecreasing horizon changes no verdict and no
    violation field.  A threshold of 2 makes it prune every few
    commits."""
    horizon = [0]
    with patch.object(oracle_module, "PRUNE_MIN", 2):
        pruning = CoherenceOracle(horizon=lambda: horizon[0])
        full = CoherenceOracle()
        now = newest = 0
        written = {}  # block -> every version committed to it
        for step in steps:
            if step[0] == "commit":
                _, block, gap = step
                now += gap
                newest = full.new_version()
                assert pruning.new_version() == newest
                full.commit_write(block, newest, time=now, pid=0)
                pruning.commit_write(block, newest, time=now, pid=0)
                written.setdefault(block, []).append(newest)
            elif step[0] == "advance":
                horizon[0] = min(now, horizon[0] + step[1])
            else:
                _, block, back, pick = step
                issue = max(horizon[0], now - back)
                # Half the reads return a version written to the block,
                # the rest any version at all (or one never issued).
                ours = written.get(block, [0])
                if pick % 2:
                    version = ours[pick // 2 % len(ours)]
                else:
                    version = pick // 2 % (newest + 2)
                want = _check(full, block, version, issue)
                got = _check(pruning, block, version, issue)
                if want and got and want[5] is False and got[5] is True:
                    # The one documented difference: a version that was
                    # never this block's, below its pruned window, is
                    # reported as a stale copy.
                    history = pruning._history[block]
                    assert history.dropped and version < history.versions[0]
                    assert version not in ours
                    got = got[:5] + (False,)
                assert want == got
        assert pruning.reads_checked == full.reads_checked
        assert len(pruning.violations) == len(full.violations)
        for block in written:
            assert pruning.latest_version(block) == full.latest_version(block)
            assert (pruning.latest_committer_time(block)
                    == full.latest_committer_time(block))
