"""Discrete-event simulation kernel.

The kernel is deliberately small: a time-ordered event queue and a
:class:`Simulator` that drains it.  Determinism is guaranteed by breaking
time ties with a monotonically increasing sequence number, so two runs with
the same seed produce identical event orderings.

All times are integer cycles.  Components schedule work with
:meth:`Simulator.post` (relative delay) or :meth:`Simulator.post_at`
(absolute time); events are fire-and-forget — there is no handle and no
cancellation.  :meth:`Simulator.uid` numbers the transactions the
protocols match by identity; the counter is part of the machine, so it
checkpoints and restores with it.

Hot-path layout
---------------
The heap holds plain ``(time, tie, seq, fn, args)`` tuples: ``seq`` is
unique, so tuple comparison is resolved in C by the first three fields
and never touches the payload.  Every queued entry is live, so
:attr:`Simulator.pending` is the heap's length.
"""

from __future__ import annotations

import heapq
import random
from typing import Any, Callable, List, Optional, Tuple


class SimulationError(RuntimeError):
    """Raised for kernel misuse (scheduling in the past, runaway runs)."""


class SimClock:
    """Picklable ``() -> sim.now`` callable.

    Components that need a clock hook (e.g. the directory's
    time-in-state accounting) must not close over the simulator with a
    lambda — checkpointing pickles the whole machine graph, and lambdas
    don't pickle.  A ``SimClock`` carries the simulator reference as
    plain state instead.
    """

    __slots__ = ("sim",)

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim

    def __call__(self) -> int:
        return self.sim.now


#: A heap entry: (time, tie, seq, fn, args).
_Entry = Tuple[int, float, int, Callable[..., None], tuple]


def _check_queue(queue: Any, now: Any, next_seq: Any) -> None:
    """Reject an event queue the run loop could not drain safely.

    Called on unpickling: a checkpoint from another code version (or a
    crafted payload) must fail here, not with a ``TypeError`` deep in
    :meth:`Simulator.run`.
    """
    if not (type(now) is type(next_seq) is int and type(queue) is list):
        raise SimulationError(
            "the clock and seq must be ints, the event queue a list"
        )
    seqs = set()
    for i, entry in enumerate(queue):
        if not (
            type(entry) is tuple and len(entry) == 5
            and type(entry[0]) is int and entry[0] >= now
            and type(entry[1]) is float
            and type(entry[2]) is int and entry[2] < next_seq
            and entry[2] not in seqs
            and callable(entry[3]) and type(entry[4]) is tuple
        ):
            raise SimulationError(
                f"event queue entry {i} is not a (time >= {now}, float "
                f"tie, unique int seq < {next_seq}, callable, args tuple) "
                f"tuple"
            )
        seqs.add(entry[2])
    for i in range(1, len(queue)):
        if queue[i][:3] < queue[(i - 1) // 2][:3]:
            raise SimulationError("event queue violates the heap order")


class Simulator:
    """Event-driven simulator with integer-cycle time.

    >>> sim = Simulator()
    >>> order = []
    >>> sim.post(5, order.append, "b")
    >>> sim.post(1, order.append, "a")
    >>> sim.run()
    >>> order
    ['a', 'b']
    >>> sim.now
    5

    Args:
        tie_seed: None (default) keeps same-cycle events in submission
            order — fully deterministic.  An integer seed *randomizes*
            the order of events scheduled for the same cycle (still
            reproducibly per seed): a cheap model checker that explores
            orderings a fixed tie-break can never produce, used by the
            property tests to hunt protocol races.
    """

    def __init__(self, tie_seed: Optional[int] = None) -> None:
        #: Current simulation time in cycles (read-only for components).
        self.now: int = 0
        #: Observability hub (``repro.obs``), or None when telemetry is
        #: off.  The kernel itself never reads it — probe sites in the
        #: component layers guard on it — so the run loop stays on the
        #: fast path either way.
        self.obs = None
        self._seq: int = 0
        self._uid: int = 1
        self._queue: List[_Entry] = []
        self._events_processed: int = 0
        self._running: bool = False
        self._tie_rng = random.Random(tie_seed) if tie_seed is not None else None

    def __setstate__(self, state: dict) -> None:
        _check_queue(state.get("_queue"), state.get("now"), state.get("_seq"))
        if type(state.get("_uid")) is not int:
            raise SimulationError("the uid counter must be an int")
        self.__dict__.update(state)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def events_processed(self) -> int:
        """Number of events executed so far."""
        return self._events_processed

    @property
    def pending(self) -> int:
        """Number of events still queued."""
        return len(self._queue)

    def uid(self) -> int:
        """A transaction uid no earlier call on this simulator returned.

        The §3.2.5 race defences match commands by identity (a cancel
        names the MREQUEST it withdraws, an ack the eviction notice it
        answers); only equality between uids matters, never their
        values.
        """
        uid = self._uid
        self._uid = uid + 1
        return uid

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def post(self, delay: int, fn: Callable[..., None], *args: Any) -> None:
        """Schedule ``fn(*args)`` to run ``delay`` cycles from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        self.post_at(self.now + delay, fn, *args)

    def post_at(self, time: int, fn: Callable[..., None], *args: Any) -> None:
        """Schedule ``fn(*args)`` at absolute cycle ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time}; current time is {self.now}"
            )
        tie = self._tie_rng.random() if self._tie_rng is not None else 0.0
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._queue, (time, tie, seq, fn, args))

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the next event.  Returns False if the queue is empty."""
        if not self._queue:
            return False
        time, _tie, _seq, fn, args = heapq.heappop(self._queue)
        self.now = time
        fn(*args)
        self._events_processed += 1
        return True

    def run(
        self,
        until: Optional[int] = None,
        max_events: Optional[int] = None,
        advance_clock: bool = True,
    ) -> None:
        """Drain the event queue.

        Args:
            until: stop once simulation time would exceed this cycle; the
                clock is advanced to ``until`` on a timed stop.
            max_events: inclusive safety valve; raise
                :class:`SimulationError` as soon as an event beyond this
                count is about to run (catches protocol livelock).  At
                most ``max_events`` events execute.
            advance_clock: when False and the queue drains before
                ``until``, leave ``now`` at the last executed event
                instead of advancing it to ``until``.  Checkpoint-sliced
                runs use this so a run split into windows finishes with
                exactly the same clock as an uninterrupted one.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        executed = 0
        queue = self._queue
        heappop = heapq.heappop
        try:
            while queue:
                time = queue[0][0]
                if until is not None and time > until:
                    self.now = until
                    return
                if max_events is not None and executed >= max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; likely livelock"
                    )
                head = heappop(queue)
                self.now = time
                head[3](*head[4])
                self._events_processed += 1
                executed += 1
                # Batch same-cycle pops: while the head is due at the
                # cycle we already advanced to, skip the until check.
                while queue and queue[0][0] == time:
                    if max_events is not None and executed >= max_events:
                        raise SimulationError(
                            f"exceeded max_events={max_events}; likely livelock"
                        )
                    head = heappop(queue)
                    head[3](*head[4])
                    self._events_processed += 1
                    executed += 1
            if advance_clock and until is not None and until > self.now:
                self.now = until
        finally:
            self._running = False

    # ------------------------------------------------------------------
    # Model-checking interface
    # ------------------------------------------------------------------
    def enabled(self) -> List[_Entry]:
        """Entries due at the earliest queued cycle, in pop order.

        This is the set of schedulable choices a model checker may
        reorder: events at strictly later cycles can never legally run
        before these, so the only interleaving freedom the kernel offers
        is the order of same-cycle events.  The returned list is sorted
        by ``(tie, seq)`` — index 0 is what :meth:`step` would run.
        """
        queue = self._queue
        if not queue:
            return []
        due = queue[0][0]
        # Equal times and unique seqs: tuple order is (tie, seq) order.
        return sorted(entry for entry in queue if entry[0] == due)

    def step_select(self, index: int) -> None:
        """Execute the ``index``-th entry of :meth:`enabled`.

        The model checker's counterpart to :meth:`step`:
        ``step_select(0)`` is exactly ``step()``, any other index runs a
        same-cycle event out of its deterministic order.  Removal is
        O(n) + heapify — acceptable because model-checked configurations
        keep the queue tiny; the production :meth:`run` path is
        untouched.
        """
        entries = self.enabled()
        if not 0 <= index < len(entries):
            raise SimulationError(
                f"step_select({index}): only {len(entries)} enabled events"
            )
        entry = entries[index]
        # seq (entry[2]) is unique, so tuple equality identifies exactly
        # this entry without comparing the payload fields.
        self._queue.remove(entry)
        heapq.heapify(self._queue)
        self.now = entry[0]
        entry[3](*entry[4])
        self._events_processed += 1
