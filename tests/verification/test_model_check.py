"""The bounded model checker: exhaustion, bug detection, replay."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.protocols import registry
from repro.protocols.cache_side import CACHE_SIDE_SPEC, expand_rows
from repro.verification.model_check import (
    DEEP_SCENARIOS,
    SMOKE_SCENARIO,
    build_scenario_machine,
    check_protocol,
    explore,
    make_scenario,
    random_scenario,
    replay_schedule,
    scenarios_for,
)
from repro.verification.schedules import format_schedule, parse_schedule
from repro.verification.state import machine_state


# ----------------------------------------------------------------------
# Tier 1: the acceptance configuration, every registered protocol.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("protocol", registry.protocol_names())
def test_smoke_scenario_exhausts_clean(protocol):
    """Every interleaving of the 2-proc/1-block/3-op config is coherent."""
    (result,) = check_protocol(protocol, depth="smoke")
    assert result.exhausted, f"{protocol}: exploration hit the schedule cap"
    assert result.ok, (
        f"{protocol}: {result.counterexample.render()}"
    )
    # The scenario genuinely has concurrency to explore: a single
    # schedule would mean the choice enumeration is broken.
    assert result.schedules_run > 1


def test_smoke_scenario_has_races():
    """The acceptance scenario reaches >1 decision point depth."""
    (result,) = check_protocol("twobit", depth="smoke")
    assert result.max_decisions >= 5


def test_pruning_is_sound():
    """Pruned and unpruned explorations agree on the verdict."""
    pruned = explore("twobit", SMOKE_SCENARIO, prune=True)
    full = explore("twobit", SMOKE_SCENARIO, prune=False, max_schedules=10_000)
    assert pruned.ok and full.ok
    assert pruned.exhausted and full.exhausted
    # Pruning must only ever skip work, never add it.
    assert pruned.schedules_run <= full.schedules_run


# ----------------------------------------------------------------------
# Fault injection: the checker must catch deliberately broken protocols.
# ----------------------------------------------------------------------
def _edit_invalidation_rows(machine, edit):
    """Run every cache on a copy of the cache-side table whose
    invalidation rows pass through ``edit``."""
    rows = expand_rows(
        edit(row) if "BROADINV" in row.commands else row
        for row in CACHE_SIDE_SPEC
    )
    for cache in machine.caches:
        cache._rows = rows


def _stale_read_bug(machine):
    """BROADINV handled (acks sent, races converted) but the line itself
    is never reset — the classic "forgot to actually invalidate" bug."""
    _edit_invalidation_rows(
        machine,
        lambda row: replace(
            row, steps=tuple(s for s in row.steps if s != "drop_line")
        ),
    )


def _dropped_invalidation_bug(machine):
    """Victim caches silently drop BROADINV (no INV_ACK): the
    controller's invalidation round can never complete."""
    _edit_invalidation_rows(
        machine, lambda row: replace(row, steps=(), counter="")
    )


def test_injected_stale_read_is_caught():
    scenario = DEEP_SCENARIOS[1]  # 2p2b: reads follow the invalidation
    result = explore("twobit", scenario, mutate=_stale_read_bug)
    counter = result.counterexample
    assert counter is not None, "stale-read bug was not caught"
    assert counter.status == "violation"
    assert "requires" in counter.detail
    rendered = counter.render()
    assert "schedule:" in rendered and "reproduce:" in rendered
    assert counter.trace, "counterexample must carry a trace"
    # The minimized schedule must still reproduce the failure.
    machine = build_scenario_machine("twobit", scenario)
    _stale_read_bug(machine)
    outcome = replay_schedule(machine, scenario, counter.schedule)
    assert outcome.status == "violation"


def test_counterexample_exports_replay_trace(tmp_path):
    """The minimized schedule replays under instrumentation, so every
    counterexample carries a Perfetto-loadable trace of the failure."""
    import json

    result = explore("twobit", DEEP_SCENARIOS[1], mutate=_stale_read_bug)
    counter = result.counterexample
    assert counter.trace_events, "minimized replay produced no trace"
    names = {e["name"] for e in counter.trace_events if e.get("ph") == "M"}
    assert "thread_name" in names
    path = tmp_path / "counterexample.json"
    counter.write_chrome_trace(path)
    loaded = json.loads(path.read_text())
    assert loaded["traceEvents"] == counter.trace_events
    other = loaded["otherData"]
    assert other["status"] == "violation"
    assert other["schedule"] == format_schedule(counter.schedule)


def test_injected_dropped_invalidation_deadlocks():
    result = explore("twobit", SMOKE_SCENARIO, mutate=_dropped_invalidation_bug)
    counter = result.counterexample
    assert counter is not None, "dropped-invalidation bug was not caught"
    assert counter.status == "deadlock"
    assert "still have work" in counter.detail


def test_counterexample_is_printed(capsys):
    """The regression contract: a failing check prints the schedule."""
    result = explore(
        "twobit", DEEP_SCENARIOS[1], mutate=_stale_read_bug
    )
    print(result.counterexample.render())
    out = capsys.readouterr().out
    assert "counterexample: violation" in out
    assert "schedule:" in out
    assert "repro check" in out


# ----------------------------------------------------------------------
# Replay and schedule round-tripping.
# ----------------------------------------------------------------------
def test_replay_is_deterministic():
    scenario = SMOKE_SCENARIO
    first = replay_schedule(
        build_scenario_machine("twobit", scenario), scenario, [0, 1]
    )
    second = replay_schedule(
        build_scenario_machine("twobit", scenario), scenario, [0, 1]
    )
    assert first.status == second.status == "ok"
    assert first.decisions == second.decisions
    assert first.steps == second.steps


def test_replay_rejects_out_of_range_choice():
    scenario = SMOKE_SCENARIO
    with pytest.raises(ValueError, match="schedule mismatch"):
        replay_schedule(
            build_scenario_machine("twobit", scenario), scenario, [99]
        )


def test_schedule_format_round_trip():
    assert parse_schedule(format_schedule([0, 2, 1])) == [0, 2, 1]
    assert parse_schedule(format_schedule([])) == []
    assert format_schedule([]) == "-"
    with pytest.raises(ValueError):
        parse_schedule("0,x")
    with pytest.raises(ValueError):
        parse_schedule("0,-1")


def test_fingerprint_stable_across_fresh_builds():
    one = machine_state(build_scenario_machine("twobit", SMOKE_SCENARIO))
    two = machine_state(build_scenario_machine("twobit", SMOKE_SCENARIO))
    assert one == two
    assert hash(one) == hash(two)


def test_fingerprint_differs_after_a_step():
    machine = build_scenario_machine("twobit", SMOKE_SCENARIO)
    before = machine_state(machine)
    for proc, script in zip(machine.processors, SMOKE_SCENARIO.scripts):
        proc.budget = len(script)
        proc.resume()
    machine.sim.step_select(0)
    assert machine_state(machine) != before


def test_random_scenario_is_seed_stable():
    assert random_scenario(7) == random_scenario(7)
    assert random_scenario(7) != random_scenario(8)


def test_scenarios_for_rejects_unknown_depth():
    with pytest.raises(ValueError, match="unknown depth"):
        scenarios_for("bogus")


def test_make_scenario_parses_scripts():
    scenario = make_scenario("t", "R0 W1", "W0")
    assert scenario.n_processors == 2
    assert scenario.n_blocks == 2
    assert [r.is_write for r in scenario.scripts[0]] == [False, True]


# ----------------------------------------------------------------------
# The §3.2.5 MREQ_CANCEL late race: the scripted scenario must actually
# reach the race, not just pass vacuously.
# ----------------------------------------------------------------------
def test_mreq_cancel_late_scenario_exercises_the_race():
    """Exhaust the cancel-late scenario and prove the cancel hierarchy
    fires: the loser's stale MREQUEST is caught queued (engine scrub),
    at dispatch (marker), and while active (`cancelled` flag).  A zero
    count would mean the scenario's timing window closed and the race
    code is no longer being model-checked."""
    from collections import Counter

    scenario = next(s for s in DEEP_SCENARIOS if s.name == "mreq-cancel-late")
    machines = []
    result = explore("twobit", scenario, mutate=machines.append)
    assert result.exhausted and result.ok, (
        result.counterexample.render() if result.counterexample else "cap hit"
    )
    totals = Counter()
    for machine in machines:
        for name, value in machine.registry.merged().snapshot().items():
            totals[name] += value
    assert totals["mrequests_cancelled"] > 0  # scrubbed while queued
    assert totals["mrequests_cancelled_at_dispatch"] > 0
    assert totals["mrequests_cancelled_active"] > 0
    # The race exists at all only because the winner's BROADINV caught
    # the loser with a pending MREQUEST (the §3.2.5 conversion).
    assert totals["mreq_converted_to_miss"] > 0


# ----------------------------------------------------------------------
# Slow tier: the full deep matrix (nightly CI).
# ----------------------------------------------------------------------
@pytest.mark.slow
@pytest.mark.parametrize("protocol", registry.protocol_names())
def test_deep_scenarios_exhaust_clean(protocol):
    results = check_protocol(protocol, depth="deep", max_schedules=100_000)
    for result in results:
        assert result.exhausted, (
            f"{protocol}/{result.scenario}: hit the schedule cap"
        )
        assert result.ok, (
            f"{protocol}/{result.scenario}:\n"
            f"{result.counterexample.render()}"
        )


def test_chooser_walk_replays_from_its_recorded_schedule():
    """A callable prefix decides every decision point; the schedule it
    took replays to the same end state as a plain sequence prefix."""
    seen = []

    def choose(n_choices):
        seen.append(n_choices)
        return n_choices - 1

    walked = build_scenario_machine("twobit", SMOKE_SCENARIO)
    outcome = replay_schedule(walked, SMOKE_SCENARIO, choose)
    assert outcome.status == "ok"
    assert seen == [n for _, n in outcome.decisions]
    assert outcome.schedule == [n - 1 for n in seen]

    replayed = build_scenario_machine("twobit", SMOKE_SCENARIO)
    again = replay_schedule(replayed, SMOKE_SCENARIO, outcome.schedule)
    assert again.decisions == outcome.decisions
    assert machine_state(replayed) == machine_state(walked)


def test_experiment_check_is_quiet_on_success(capsys):
    from repro.api import Experiment

    assert Experiment(protocol="fullmap", faults="check").check(
        differential=1
    )
    assert capsys.readouterr().out == ""


def test_experiment_check_refuses_faults_without_recovery_path():
    from repro.api import Experiment

    with pytest.raises(ValueError, match="no NAK/retry recovery path"):
        Experiment(protocol="classical", faults="check").check()
