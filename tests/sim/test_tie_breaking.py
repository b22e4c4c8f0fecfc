"""Randomized same-cycle tie-breaking (the event-order fuzzer)."""

from repro.sim.kernel import Simulator


def run_order(tie_seed):
    sim = Simulator(tie_seed=tie_seed)
    fired = []
    for i in range(12):
        sim.post(5, fired.append, i)
    sim.run()
    return fired


def test_default_is_submission_order():
    assert run_order(None) == list(range(12))


def test_tie_seed_shuffles_same_cycle_events():
    shuffled = run_order(1)
    assert sorted(shuffled) == list(range(12))
    assert shuffled != list(range(12))


def test_tie_seed_is_reproducible():
    assert run_order(7) == run_order(7)


def test_different_seeds_differ():
    orders = {tuple(run_order(seed)) for seed in range(6)}
    assert len(orders) > 1


def test_time_order_still_respected():
    sim = Simulator(tie_seed=3)
    fired = []
    sim.post(9, fired.append, "late")
    for i in range(5):
        sim.post(2, fired.append, i)
    sim.run()
    assert fired[-1] == "late"
    assert sorted(fired[:-1]) == list(range(5))
