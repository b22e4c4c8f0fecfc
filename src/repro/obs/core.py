"""The probe/event hub: :class:`Observability`.

One instance hangs off ``Simulator.obs`` when instrumentation is on;
``Simulator.obs`` is ``None`` by default and every probe site guards
with ``obs = self.sim.obs; if obs is not None: ...`` — the null-object
fast path costs two attribute loads and a branch, nothing else: a bare
machine never calls into this package (``tests/obs/test_attach.py``),
and the cost when on is gated by ``benchmarks/bench_probe_cost.py``.

Three telemetry streams share the hub:

* **Events** (:class:`ObsEvent`) — point records for network sends,
  broadcasts, and directory state transitions, retained (unless
  ``keep_events=False``) for the exporters: the Chrome trace and the
  plain-text :func:`~repro.obs.export.render_events` log.
* **Transaction spans** — one per memory reference, from processor
  issue to retire, with phase marks added by the protocol layers along
  the way.  In flight a span is a compact per-pid list; it becomes a
  :class:`TransactionSpan` only when retained (``keep_events``).  A
  completed span adds one count per segment to a pending dict keyed
  ``(outcome, phase, cycles)``; the per-outcome latency histograms and
  per-phase segment histograms (:attr:`Observability.latency`,
  :attr:`Observability.phases`) are folded from it when read.
* **Samplers** (:class:`~repro.obs.sampler.TimeSeriesSampler`) — fixed
  interval time-series windows, advanced *lazily* from probe activity
  (never by posting kernel events, which would perturb determinism
  goldens).  The hub caches the earliest next window boundary, so a
  probe enters the samplers only when the clock has reached it.

A probe therefore does O(1) work when the hub is on: a span segment
is one dict update, a sampler window is entered once per boundary, and
with ``keep_events=False`` the point-event probes build no payload and
the span probes build no span object.

Span phases map onto the §3.2 protocol flows::

    issue      processor hands the reference to its cache
    lookup     cache array access + §3.2 classification
    directory  home controller dispatches REQUEST / MREQUEST
    fanout     BROADINV / BROADQUERY (or selective) round launches
    grant      GET / MGRANTED leaves the home controller
    retire     the processor retires the reference

A hit's span has no directory phases; a §3.2.5 conversion (MREQUEST
denied, reissued as write miss) legitimately revisits ``directory``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.stats.histogram import Histogram

#: Span phase names, in nominal §3.2 order ("retry" marks NAK/
#: backpressure recovery under a fault plan and may repeat).
PHASES = ("issue", "lookup", "directory", "fanout", "grant", "retry", "retire")

#: Reference outcomes (§3.2 instances + the two hit flavours).
OUTCOMES = ("read-hit", "write-hit", "RM", "WM", "WH-unmod")


class ObsEvent:
    """One point event emitted by a probe site."""

    __slots__ = ("name", "time", "track", "data")

    def __init__(self, name: str, time: int, track: str, data: Dict[str, Any]):
        self.name = name
        self.time = time
        self.track = track
        self.data = data

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ObsEvent {self.name} t={self.time} {self.track}>"


class TransactionSpan:
    """The lifecycle of one memory reference (issue -> retire)."""

    __slots__ = ("pid", "block", "op", "outcome", "start", "end", "marks")

    def __init__(self, pid: int, block: int, op: str, start: int) -> None:
        self.pid = pid
        self.block = block
        self.op = op  # "R" | "W"
        self.outcome: Optional[str] = None
        self.start = start
        self.end: Optional[int] = None
        #: ``(phase, time)`` marks between issue and retire.
        self.marks: List[Tuple[str, int]] = []

    @property
    def latency(self) -> int:
        assert self.end is not None
        return self.end - self.start

    def segments(self) -> List[Tuple[str, int, int]]:
        """``(phase, t0, t1)`` slices partitioning the span.

        Each segment is named after the mark that *closes* it: the
        ``lookup`` segment is the time from issue until the cache array
        classified the reference, and the terminal ``retire`` segment
        runs from the last mark to completion.
        """
        assert self.end is not None
        points = [("issue", self.start), *self.marks, ("retire", self.end)]
        return [
            (points[i + 1][0], points[i][1], points[i + 1][1])
            for i in range(len(points) - 1)
        ]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Span P{self.pid} {self.op}{self.block} {self.outcome} "
            f"t={self.start}->{self.end}>"
        )


#: ``listener(ref)`` callback fired once per issued memory reference.
RefListener = Callable[[Any], None]

#: A pending span count's key: ``(outcome, phase, cycles)``, where
#: ``phase`` is ``None`` for the whole span's latency.
PendingKey = Tuple[str, Optional[str], int]

#: The cached next window boundary while no sampler is attached.
_NEVER = float("inf")


class Observability:
    """Event hub + span tracker + sampler host for one machine."""

    def __init__(self, protocol: str = "", keep_events: bool = True) -> None:
        self.protocol = protocol
        #: Retain events/spans for export (off keeps only histograms
        #: and sampler windows — the metrics-only mode).
        self.keep_events = keep_events
        self.events: List[ObsEvent] = []
        self.spans: List[TransactionSpan] = []
        self.samplers: List = []
        self._latency: Dict[str, Histogram] = {}
        self._phases: Dict[str, Histogram] = {}
        #: Span counts not yet folded into the histograms.
        self._pending: Dict[PendingKey, int] = {}
        #: Earliest next window boundary over the samplers.
        self._next_tick = _NEVER
        #: pid -> in-flight span, ``[outcome, start, ref, (phase, time)
        #: marks...]``; it becomes a :class:`TransactionSpan` at retire
        #: only when spans are retained.
        self._active: Dict[int, list] = {}
        self._ref_listeners: List[RefListener] = []

    # ------------------------------------------------------------------
    # Ref listeners
    # ------------------------------------------------------------------
    def add_ref_listener(self, listener: RefListener) -> None:
        """Register a per-issued-reference callback.

        Fired from :meth:`span_begin` — exactly once per reference a
        processor pulls from its stream (NAK retries replay below the
        cache and never re-issue), in global simulation issue order.
        ``Experiment.run(record_trace=...)`` records a trace through it.
        Unlike spans/events, ref listeners survive :meth:`reset` — a
        recorded trace must include the warm-up prefix to replay
        bit-identically.
        """
        self._ref_listeners.append(listener)

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------
    def emit(
        self, name: str, time: int, track: str, data: Dict[str, Any]
    ) -> None:
        """Record a point event (retained only with ``keep_events``)."""
        if self.keep_events:
            self.events.append(ObsEvent(name, time, track, data))
        if time >= self._next_tick:
            self.tick(time)

    # Convenience wrappers so probe sites stay one-liners.  Without
    # keep_events they build no payload: the event would be dropped.
    def on_send(self, message, now: int, delivery: int, track: str) -> None:
        if self.keep_events:
            self.emit(
                "send", now, track, {"message": message, "delivery": delivery}
            )
        elif now >= self._next_tick:
            self.tick(now)

    def on_broadcast(
        self, message, now: int, recipients: int, exclude, track: str
    ) -> None:
        if self.keep_events:
            self.emit(
                "broadcast",
                now,
                track,
                {
                    "message": message,
                    "recipients": recipients,
                    "exclude": exclude,
                },
            )
        elif now >= self._next_tick:
            self.tick(now)

    def on_state(self, owner: str, now: int, block: int, old, new) -> None:
        if self.keep_events:
            self.emit(
                "state", now, owner, {"block": block, "old": old, "new": new}
            )
        elif now >= self._next_tick:
            self.tick(now)

    # ------------------------------------------------------------------
    # Transaction spans
    # ------------------------------------------------------------------
    def span_begin(self, pid: int, now: int, ref) -> None:
        self._active[pid] = [None, now, ref]
        if self._ref_listeners:
            for listener in self._ref_listeners:
                listener(ref)
        if now >= self._next_tick:
            self.tick(now)

    def span_phase(self, pid: int, now: int, phase: str) -> None:
        span = self._active.get(pid)
        if span is not None:
            span.append((phase, now))
        if now >= self._next_tick:
            self.tick(now)

    def span_outcome(self, pid: int, outcome: str) -> None:
        span = self._active.get(pid)
        if span is not None:
            span[0] = outcome

    def span_end(self, pid: int, now: int, hit: bool) -> None:
        """Retire ``pid``'s span: count its latency and each segment
        (the slices of :meth:`TransactionSpan.segments`) as pending."""
        span = self._active.pop(pid, None)
        if span is None:
            return
        outcome, start, ref, *marks = span
        if outcome is None:
            # Protocols without a classification probe derive the
            # outcome from the completion result alone.
            if hit:
                outcome = "write-hit" if ref.is_write else "read-hit"
            else:
                outcome = "WM" if ref.is_write else "RM"
        pending = self._pending
        key = (outcome, None, now - start)
        pending[key] = pending.get(key, 0) + 1
        t0 = start
        for phase, t1 in marks:
            key = (outcome, phase, t1 - t0)
            pending[key] = pending.get(key, 0) + 1
            t0 = t1
        key = (outcome, "retire", now - t0)
        pending[key] = pending.get(key, 0) + 1
        if self.keep_events:
            kept = TransactionSpan(
                pid, ref.block, "W" if ref.is_write else "R", start
            )
            kept.outcome = outcome
            kept.end = now
            kept.marks = marks
            self.spans.append(kept)
        if now >= self._next_tick:
            self.tick(now)

    def _fold(self) -> None:
        """Add the pending span counts to the histograms.

        Keys are folded in first-seen order, so histograms and their
        buckets are created in the order per-span adds would create
        them.
        """
        latency = self._latency
        phases = self._phases
        for (outcome, phase, cycles), count in self._pending.items():
            if phase is None:
                hist = latency.get(outcome)
                if hist is None:
                    hist = latency[outcome] = Histogram(
                        name=f"latency[{outcome}]"
                    )
            else:
                key = f"{outcome}/{phase}"
                hist = phases.get(key)
                if hist is None:
                    hist = phases[key] = Histogram(name=f"phase[{key}]")
            hist.add(cycles, count)
        self._pending.clear()

    @property
    def latency(self) -> Dict[str, Histogram]:
        """outcome -> total-latency Histogram (built on read)."""
        if self._pending:
            self._fold()
        return self._latency

    @property
    def phases(self) -> Dict[str, Histogram]:
        """"outcome/phase" -> segment-latency Histogram (built on read)."""
        if self._pending:
            self._fold()
        return self._phases

    @property
    def outstanding(self) -> int:
        """Spans currently between issue and retire."""
        return len(self._active)

    # ------------------------------------------------------------------
    # Samplers
    # ------------------------------------------------------------------
    # Samplers are driven through the hub only: it caches their earliest
    # next boundary, and probes enter tick() only once ``now`` reaches
    # it, which is exactly when some sampler has a window to close.
    def add_sampler(self, sampler) -> None:
        self.samplers.append(sampler)
        self._rearm()

    def tick(self, now: int) -> None:
        """Give every sampler a chance to close elapsed windows.

        Called from probe activity only, once ``now`` reaches the cached
        boundary — samplers never post kernel events, so instrumented
        runs stay bit-identical to bare runs.
        """
        for sampler in self.samplers:
            sampler.maybe_sample(now)
        self._rearm()

    def flush(self, now: int) -> None:
        """Close trailing sampler windows (call once, after the run)."""
        for sampler in self.samplers:
            sampler.flush(now)
        self._rearm()

    def _rearm(self) -> None:
        self._next_tick = min(
            (sampler.next_boundary for sampler in self.samplers),
            default=_NEVER,
        )

    # ------------------------------------------------------------------
    # Measurement windows
    # ------------------------------------------------------------------
    def reset(self, now: int) -> None:
        """Open a measurement window: drop telemetry gathered so far.

        Mirrors :meth:`Machine.reset_measurement` so span/latency counts
        stay consistent with the (reset) counter totals.
        """
        self.events.clear()
        self.spans.clear()
        self._latency.clear()
        self._phases.clear()
        self._pending.clear()
        self._active.clear()
        for sampler in self.samplers:
            sampler.reset(now)
        self._rearm()
