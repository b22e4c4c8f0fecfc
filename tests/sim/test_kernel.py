"""Simulation kernel: ordering, run bounds, model-checking choices."""

import pytest

from repro.sim.kernel import SimulationError, Simulator


def test_events_run_in_time_order():
    sim = Simulator()
    order = []
    sim.post(5, order.append, "late")
    sim.post(1, order.append, "early")
    sim.post(3, order.append, "middle")
    sim.run()
    assert order == ["early", "middle", "late"]
    assert sim.now == 5


def test_ties_break_by_schedule_order():
    sim = Simulator()
    order = []
    for tag in ("a", "b", "c"):
        sim.post(2, order.append, tag)
    sim.run()
    assert order == ["a", "b", "c"]


def test_schedule_relative_and_absolute_agree():
    sim = Simulator()
    seen = []
    sim.post_at(7, seen.append, "abs")
    sim.post(7, seen.append, "rel")
    sim.run()
    assert seen == ["abs", "rel"]
    assert sim.now == 7


def test_events_can_schedule_more_events():
    sim = Simulator()
    hits = []

    def chain(depth):
        hits.append(depth)
        if depth < 3:
            sim.post(1, chain, depth + 1)

    sim.post(0, chain, 0)
    sim.run()
    assert hits == [0, 1, 2, 3]
    assert sim.now == 3


def test_run_until_stops_the_clock():
    sim = Simulator()
    hits = []
    sim.post(2, hits.append, "in")
    sim.post(10, hits.append, "out")
    sim.run(until=5)
    assert hits == ["in"]
    assert sim.now == 5
    sim.run()
    assert hits == ["in", "out"]


def test_run_until_advances_clock_with_empty_queue():
    sim = Simulator()
    sim.run(until=42)
    assert sim.now == 42


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.post(-1, lambda: None)


def test_scheduling_in_the_past_rejected():
    sim = Simulator()
    sim.post(5, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.post_at(3, lambda: None)


def test_max_events_guard_catches_livelock():
    sim = Simulator()

    def forever():
        sim.post(1, forever)

    sim.post(0, forever)
    with pytest.raises(SimulationError, match="livelock"):
        sim.run(max_events=50)


def test_max_events_bound_is_inclusive():
    # Exactly max_events events is allowed; one more trips the guard.
    sim = Simulator()
    hits = []
    for i in range(5):
        sim.post(i, hits.append, i)
    sim.run(max_events=5)
    assert hits == [0, 1, 2, 3, 4]

    sim = Simulator()
    hits = []
    for i in range(6):
        sim.post(i, hits.append, i)
    with pytest.raises(SimulationError, match="max_events=5"):
        sim.run(max_events=5)
    assert hits == [0, 1, 2, 3, 4]  # the 6th never ran


def test_max_events_inclusive_within_one_cycle():
    # The same-cycle batched pop path honours the inclusive bound too.
    sim = Simulator()
    hits = []
    for i in range(6):
        sim.post(1, hits.append, i)
    with pytest.raises(SimulationError, match="max_events"):
        sim.run(max_events=5)
    assert hits == [0, 1, 2, 3, 4]


def test_post_orders_like_schedule():
    # Relative and absolute entries interleave in submission order.
    sim = Simulator()
    order = []
    sim.post_at(2, order.append, "a")
    sim.post(2, order.append, "b")
    sim.post_at(2, order.append, "c")
    sim.post(2, order.append, "d")
    sim.run()
    assert order == ["a", "b", "c", "d"]
    assert sim.events_processed == 4


def test_post_rejects_past_times():
    sim = Simulator()
    sim.post(5, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.post(-1, lambda: None)
    with pytest.raises(SimulationError):
        sim.post_at(3, lambda: None)


def test_step_executes_one_event():
    sim = Simulator()
    hits = []
    sim.post(1, hits.append, 1)
    sim.post(2, hits.append, 2)
    assert sim.step() is True
    assert hits == [1]
    assert sim.step() is True
    assert sim.step() is False
    assert hits == [1, 2]


def test_pending_counts_live_events_only():
    sim = Simulator()
    sim.post(1, lambda: None)
    sim.post_at(2, lambda: None)
    assert sim.pending == 2
    sim.step()
    assert sim.pending == 1
    sim.run()
    assert sim.pending == 0


def test_events_processed_counter():
    sim = Simulator()
    for _ in range(4):
        sim.post(1, lambda: None)
    sim.run()
    assert sim.events_processed == 4


def test_run_is_not_reentrant():
    sim = Simulator()
    errors = []

    def reenter():
        try:
            sim.run()
        except SimulationError as exc:
            errors.append(exc)

    sim.post(0, reenter)
    sim.run()
    assert len(errors) == 1


# ----------------------------------------------------------------------
# Model-checking choice API: enabled() / step_select()
# ----------------------------------------------------------------------
def test_enabled_lists_same_cycle_events_in_pop_order():
    sim = Simulator()
    order = []
    sim.post(2, order.append, "a")
    sim.post(2, order.append, "b")
    sim.post(5, order.append, "later")
    entries = sim.enabled()
    assert [e[4][0] for e in entries] == ["a", "b"]  # due events only
    assert order == []  # enabled() never executes anything


def test_step_select_zero_matches_step():
    def build():
        sim = Simulator()
        order = []
        for tag in ("a", "b", "c"):
            sim.post(1, order.append, tag)
        return sim, order

    stepped, order_step = build()
    stepped.step()
    selected, order_sel = build()
    selected.step_select(0)
    assert order_step == order_sel == ["a"]
    assert stepped.now == selected.now


def test_step_select_reorders_ties():
    sim = Simulator()
    order = []
    for tag in ("a", "b", "c"):
        sim.post(1, order.append, tag)
    sim.step_select(2)
    sim.step_select(0)
    sim.step_select(0)
    assert order == ["c", "a", "b"]
    assert not sim.enabled()


def test_step_select_rejects_out_of_range():
    sim = Simulator()
    sim.post(1, lambda: None)
    with pytest.raises(SimulationError, match="step_select"):
        sim.step_select(1)


def test_enabled_empty_when_drained():
    sim = Simulator()
    assert sim.enabled() == []
