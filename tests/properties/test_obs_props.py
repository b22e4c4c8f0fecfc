"""The probe hub equals an eager reference under any probe interleaving.

:class:`repro.obs.Observability` defers its bookkeeping: a completed
span adds pending ``(outcome, phase, cycles)`` counts that are folded
into histograms only when ``latency``/``phases`` are read, and probes
enter the samplers only once the clock reaches the cached earliest
window boundary.  :class:`EagerHub` below is the straightforward form
of the same hub — every span binned into its histograms as it retires,
every probe ticking every sampler — kept here as the reference.

Random sequences of span, event, reset, flush and read operations over
several processors, with zero to two small-interval samplers and both
``keep_events`` modes, must leave the two hubs with equal histograms
(buckets, names and creation order), retained spans and events, and
sampler windows.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import PHASES, Observability, TimeSeriesSampler
from repro.obs.core import ObsEvent, TransactionSpan
from repro.stats.histogram import Histogram
from repro.workloads.reference import MemRef, Op


class EagerHub:
    """Reference hub: histograms binned per span, samplers per probe."""

    def __init__(self, keep_events: bool) -> None:
        self.keep_events = keep_events
        self.events = []
        self.spans = []
        self.samplers = []
        self.latency = {}
        self.phases = {}
        self._active = {}

    @property
    def outstanding(self) -> int:
        return len(self._active)

    def add_sampler(self, sampler) -> None:
        self.samplers.append(sampler)

    def emit(self, name, time, track, data) -> None:
        if self.keep_events:
            self.events.append(ObsEvent(name, time, track, data))
        self.tick(time)

    def on_send(self, message, now, delivery, track) -> None:
        self.emit(
            "send", now, track, {"message": message, "delivery": delivery}
        )

    def on_broadcast(self, message, now, recipients, exclude, track) -> None:
        self.emit(
            "broadcast",
            now,
            track,
            {"message": message, "recipients": recipients, "exclude": exclude},
        )

    def on_state(self, owner, now, block, old, new) -> None:
        self.emit(
            "state", now, owner, {"block": block, "old": old, "new": new}
        )

    def span_begin(self, pid, now, ref) -> None:
        self._active[pid] = TransactionSpan(
            pid=pid, block=ref.block, op="W" if ref.is_write else "R",
            start=now,
        )
        self.tick(now)

    def span_phase(self, pid, now, phase) -> None:
        span = self._active.get(pid)
        if span is not None:
            span.marks.append((phase, now))
        self.tick(now)

    def span_outcome(self, pid, outcome) -> None:
        span = self._active.get(pid)
        if span is not None:
            span.outcome = outcome

    def span_end(self, pid, now, hit) -> None:
        span = self._active.pop(pid, None)
        if span is None:
            return
        span.end = now
        if span.outcome is None:
            if hit:
                span.outcome = "write-hit" if span.op == "W" else "read-hit"
            else:
                span.outcome = "WM" if span.op == "W" else "RM"
        self._record_span(span)
        self.tick(now)

    def _record_span(self, span) -> None:
        outcome = span.outcome
        hist = self.latency.get(outcome)
        if hist is None:
            hist = self.latency[outcome] = Histogram(
                name=f"latency[{outcome}]"
            )
        hist.add(span.latency)
        for phase, t0, t1 in span.segments():
            key = f"{outcome}/{phase}"
            phist = self.phases.get(key)
            if phist is None:
                phist = self.phases[key] = Histogram(name=f"phase[{key}]")
            phist.add(t1 - t0)
        if self.keep_events:
            self.spans.append(span)

    def tick(self, now) -> None:
        for sampler in self.samplers:
            sampler.maybe_sample(now)

    def flush(self, now) -> None:
        for sampler in self.samplers:
            sampler.flush(now)

    def reset(self, now) -> None:
        self.events.clear()
        self.spans.clear()
        self.latency.clear()
        self.phases.clear()
        self._active.clear()
        for sampler in self.samplers:
            sampler.reset(now)


PIDS = st.integers(min_value=0, max_value=2)

SPAN_OPS = st.one_of(
    st.tuples(st.just("begin"), PIDS, st.integers(0, 7), st.booleans()),
    st.tuples(st.just("phase"), PIDS, st.sampled_from(PHASES[1:-1])),
    st.tuples(
        st.just("outcome"), PIDS, st.sampled_from(("RM", "WM", "WH-unmod"))
    ),
    st.tuples(st.just("end"), PIDS, st.booleans()),
)

OTHER_OPS = st.one_of(
    st.tuples(st.just("emit"), st.integers(0, 3)),
    st.tuples(st.just("send"), st.integers(0, 5)),
    st.tuples(st.just("broadcast"), st.integers(1, 4)),
    st.tuples(st.just("state"), st.integers(0, 7)),
    st.tuples(st.just("reset")),
    st.tuples(st.just("flush")),
    st.tuples(st.just("read")),
)

#: Two draws in three are span probes, so most sequences retire spans.
OPS = st.one_of(SPAN_OPS, SPAN_OPS, OTHER_OPS)


def _hists(hub_hists):
    """Histograms with their dict order and bucket first-seen order."""
    return [
        (key, hist.name, list(hist.snapshot().items()), hist.to_dict())
        for key, hist in hub_hists.items()
    ]


def _spans(hub):
    return [
        (s.pid, s.block, s.op, s.outcome, s.start, s.end, list(s.marks))
        for s in hub.spans
    ]


def _events(hub):
    return [(e.name, e.time, e.track, e.data) for e in hub.events]


def _assert_same(lazy, eager):
    assert _hists(lazy.latency) == _hists(eager.latency)
    assert _hists(lazy.phases) == _hists(eager.phases)
    assert _spans(lazy) == _spans(eager)
    assert _events(lazy) == _events(eager)
    assert lazy.outstanding == eager.outstanding
    assert [s.windows for s in lazy.samplers] == [
        s.windows for s in eager.samplers
    ]


def _apply(hub, op, now):
    kind = op[0]
    if kind == "begin":
        _, pid, block, write = op
        ref = MemRef(
            pid=pid, op=Op.WRITE if write else Op.READ, block=block,
            shared=True,
        )
        hub.span_begin(pid, now, ref)
    elif kind == "phase":
        hub.span_phase(op[1], now, op[2])
    elif kind == "outcome":
        hub.span_outcome(op[1], op[2])
    elif kind == "end":
        hub.span_end(op[1], now, op[2])
    elif kind == "emit":
        hub.emit("note", now, f"T{op[1]}", {"n": op[1]})
    elif kind == "send":
        hub.on_send(f"msg{op[1]}", now, now + op[1], track="net")
    elif kind == "broadcast":
        hub.on_broadcast("BROADINV", now, op[1], {"C0"}, track="net")
    elif kind == "state":
        hub.on_state("M0", now, op[1], "absent", "present1")
    elif kind == "reset":
        hub.reset(now)
    elif kind == "flush":
        hub.flush(now)


@settings(max_examples=200, deadline=None)
@given(
    steps=st.lists(
        st.tuples(st.integers(min_value=0, max_value=6), OPS),
        min_size=20,
        max_size=120,
    ),
    intervals=st.lists(st.integers(min_value=1, max_value=9), max_size=2),
    keep_events=st.booleans(),
)
def test_deferred_hub_matches_eager_reference(steps, intervals, keep_events):
    lazy = Observability(keep_events=keep_events)
    eager = EagerHub(keep_events=keep_events)
    # A rate counter both hubs' samplers read; it grows every step.
    traffic = [0]
    for hub in (lazy, eager):
        for i, interval in enumerate(intervals):
            hub.add_sampler(
                TimeSeriesSampler(
                    name=f"s{i}",
                    interval=interval,
                    gauges={"outstanding": lambda hub=hub: hub.outstanding},
                    rates={"traffic": lambda: traffic[0]},
                )
            )
    now = 0
    for dt, op in steps:
        now += dt
        traffic[0] += 1
        if op[0] == "read":
            _assert_same(lazy, eager)
            continue
        _apply(eager, op, now)
        _apply(lazy, op, now)
    lazy.flush(now)
    eager.flush(now)
    _assert_same(lazy, eager)
