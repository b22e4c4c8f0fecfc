"""Span lifecycle, outcome derivation, event retention, and reset."""

from repro.obs import OUTCOMES, PHASES, Observability
from repro.workloads.reference import MemRef, Op


def _ref(pid, block, op=Op.READ):
    return MemRef(pid=pid, op=op, block=block, shared=True)


def test_span_lifecycle_with_phases():
    obs = Observability(protocol="twobit")
    obs.span_begin(0, 10, _ref(0, 3, Op.WRITE))
    obs.span_phase(0, 12, "lookup")
    obs.span_phase(0, 18, "directory")
    obs.span_phase(0, 25, "fanout")
    obs.span_phase(0, 33, "grant")
    obs.span_outcome(0, "WM")
    obs.span_end(0, 40, hit=False)
    (span,) = obs.spans
    assert span.pid == 0 and span.block == 3 and span.op == "W"
    assert span.outcome == "WM"
    assert span.latency == 30
    assert span.segments() == [
        ("lookup", 10, 12),
        ("directory", 12, 18),
        ("fanout", 18, 25),
        ("grant", 25, 33),
        ("retire", 33, 40),
    ]
    assert all(phase in PHASES for phase, _, _ in span.segments())
    assert obs.latency["WM"].summary()["count"] == 1
    assert obs.phases["WM/directory"].summary()["p50"] == 6


def test_overlapping_spans_across_pids():
    obs = Observability()
    obs.span_begin(0, 0, _ref(0, 1))
    obs.span_begin(1, 2, _ref(1, 1, Op.WRITE))
    assert obs.outstanding == 2
    obs.span_phase(1, 3, "lookup")
    obs.span_end(0, 5, hit=True)
    assert obs.outstanding == 1
    obs.span_end(1, 9, hit=False)
    assert obs.outstanding == 0
    by_pid = {s.pid: s for s in obs.spans}
    assert by_pid[0].outcome == "read-hit" and by_pid[0].latency == 5
    assert by_pid[1].outcome == "WM" and by_pid[1].latency == 7
    # P1's phase mark must not leak into P0's span.
    assert by_pid[0].marks == []


def test_outcome_derivation_covers_all_cases():
    obs = Observability()
    cases = [
        (Op.READ, True, "read-hit"),
        (Op.WRITE, True, "write-hit"),
        (Op.READ, False, "RM"),
        (Op.WRITE, False, "WM"),
    ]
    for pid, (op, hit, expected) in enumerate(cases):
        obs.span_begin(pid, 0, _ref(pid, 0, op))
        obs.span_end(pid, 1, hit=hit)
    assert sorted(obs.latency) == sorted({e for _, _, e in cases})
    for outcome in obs.latency:
        assert outcome in OUTCOMES


def test_explicit_outcome_survives_contradicting_completion():
    # §3.2.5: a WH-unmod converted to a write miss completes with
    # hit=False, but the classification outcome must stick.
    obs = Observability()
    obs.span_begin(2, 0, _ref(2, 5, Op.WRITE))
    obs.span_outcome(2, "WH-unmod")
    obs.span_end(2, 30, hit=False)
    assert obs.spans[0].outcome == "WH-unmod"
    assert "WM" not in obs.latency


def test_phase_and_outcome_without_active_span_are_noops():
    obs = Observability()
    obs.span_phase(0, 5, "lookup")
    obs.span_outcome(0, "RM")
    obs.span_end(0, 9, hit=True)
    assert obs.spans == [] and obs.latency == {}


def test_keep_events_off():
    obs = Observability(keep_events=False)
    obs.emit("send", 3, "net", {"message": None, "delivery": 7})
    assert obs.events == []  # not retained
    # keep_events off also skips span retention but not histograms.
    obs.span_begin(0, 0, _ref(0, 1))
    obs.span_end(0, 6, hit=True)
    assert obs.spans == []
    assert obs.latency["read-hit"].summary()["count"] == 1


def test_reset_opens_measurement_window():
    obs = Observability()
    obs.span_begin(0, 0, _ref(0, 1))
    obs.span_end(0, 4, hit=True)
    obs.emit("send", 4, "net", {"message": None, "delivery": 9})
    obs.span_begin(1, 5, _ref(1, 2))  # still in flight at reset
    obs.reset(10)
    assert obs.spans == [] and obs.events == [] and obs.latency == {}
    assert obs.outstanding == 0
    # A retire arriving after reset for a pre-reset issue is dropped.
    obs.span_end(1, 12, hit=True)
    assert obs.spans == []
