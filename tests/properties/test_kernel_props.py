"""Property-based tests for the simulation kernel."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.kernel import Simulator


@given(delays=st.lists(st.integers(min_value=0, max_value=1000), max_size=60))
def test_execution_order_is_time_sorted(delays):
    sim = Simulator()
    fired = []
    for i, delay in enumerate(delays):
        sim.post(delay, fired.append, (delay, i))
    sim.run()
    assert [t for t, _ in fired] == sorted(delays)
    assert len(fired) == len(delays)


@given(delays=st.lists(st.integers(min_value=0, max_value=100), max_size=40))
def test_ties_preserve_submission_order(delays):
    sim = Simulator()
    fired = []
    for i, delay in enumerate(delays):
        sim.post(delay, fired.append, (delay, i))
    sim.run()
    # Among equal times, sequence numbers must ascend.
    for (t1, i1), (t2, i2) in zip(fired, fired[1:]):
        if t1 == t2:
            assert i1 < i2


@given(
    calls=st.lists(
        st.tuples(st.booleans(), st.integers(min_value=0, max_value=100)),
        max_size=40,
    ),
    steps=st.integers(min_value=0, max_value=50),
)
def test_pending_counts_unrun_events(calls, steps):
    sim = Simulator()
    fired = []
    for absolute, when in calls:
        if absolute:
            sim.post_at(when, fired.append, when)
        else:
            sim.post(when, fired.append, when)
    assert sim.pending == len(calls)
    for _ in range(steps):
        sim.step()
        assert sim.pending == len(calls) - len(fired)
    sim.run()
    assert sim.pending == 0 and len(fired) == len(calls)


@given(
    delays=st.lists(st.integers(min_value=0, max_value=50), max_size=30),
    until=st.integers(min_value=0, max_value=60),
)
@settings(max_examples=50)
def test_run_until_partitions_events(delays, until):
    sim = Simulator()
    fired = []
    for d in delays:
        sim.post(d, fired.append, d)
    sim.run(until=until)
    assert all(d <= until for d in fired)
    assert sim.now == until or (fired and sim.now <= until)
    sim.run()
    assert sorted(fired) == sorted(delays)
