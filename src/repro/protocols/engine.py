"""Controller transaction serialization engine.

§3.2.5 sketches two controller designs: (1) treat only one command at a
time, and (2) treat commands *for a given block* one at a time, allowing
multiprogramming across blocks.  :class:`TransactionEngine` implements
both behind one interface; directory controllers submit initiating
messages and call :meth:`complete` when a transaction finishes, at which
point the next eligible queued command is started.

The engine also implements the paper's queue surgery ("logic to insert
and delete (anywhere) elements in the queue"): :meth:`scrub` removes
queued commands matching a predicate, used to delete superseded
MREQUESTs when an invalidation is broadcast.

The lifecycle is pure-step: every mutation (:meth:`submit`,
:meth:`complete`) enqueues or retires and then calls :meth:`_pump`,
which synchronously starts whatever :meth:`_eligible` says may run.
The eligibility rule lives in that one inspectable place, and
:meth:`snapshot` exposes the full active/queued state.

Cache hits never reach a controller: the cache's table-driven hit step
(:mod:`repro.protocols.compiled`) completes them locally.  Only the
table's escape rows that need the interconnect — misses and upgrades —
become transactions, and every one of them serializes here.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.interconnect.message import Message

StartFn = Callable[[Message], None]


class TransactionEngine:
    """Per-block or global serialization of controller transactions."""

    #: Non-state fields (see :mod:`repro.verification.state`).
    _not_state = {
        "_start_fn": "wiring to the owning controller",
        "max_concurrency": "statistics",
        "max_queue_depth": "statistics",
    }

    def __init__(self, start_fn: StartFn, serialization: str = "block") -> None:
        if serialization not in ("block", "global"):
            raise ValueError("serialization must be 'block' or 'global'")
        self._start_fn = start_fn
        self.serialization = serialization
        # Global mode state:
        self._global_active: Optional[Message] = None
        self._global_queue: Deque[Message] = deque()
        # Block mode state:
        self._active: Dict[int, Message] = {}
        self._queues: Dict[int, Deque[Message]] = {}
        self.max_concurrency = 0
        #: Deepest backlog ever observed (the paper's controller queue).
        self.max_queue_depth = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def active_for(self, block: int) -> Optional[Message]:
        """The transaction currently holding ``block``, if any."""
        if self.serialization == "global":
            active = self._global_active
            return active if active is not None and active.block == block else None
        return self._active.get(block)

    @property
    def n_active(self) -> int:
        if self.serialization == "global":
            return 0 if self._global_active is None else 1
        return len(self._active)

    @property
    def n_queued(self) -> int:
        if self.serialization == "global":
            return len(self._global_queue)
        return sum(len(q) for q in self._queues.values())

    @property
    def idle(self) -> bool:
        return self.n_active == 0 and self.n_queued == 0

    def snapshot(self) -> Tuple[Tuple[Message, ...], Tuple[Message, ...]]:
        """Replay-stable ``(active, queued)`` message listings.

        Actives are ordered by block (global mode has at most one);
        queued messages keep their queue order, concatenated in block
        order.
        """
        if self.serialization == "global":
            active = (
                (self._global_active,) if self._global_active is not None else ()
            )
            return active, tuple(self._global_queue)
        active = tuple(self._active[b] for b in sorted(self._active))
        queued = tuple(
            msg for b in sorted(self._queues) for msg in self._queues[b]
        )
        return active, queued

    # ------------------------------------------------------------------
    # Lifecycle (pure-step: mutate, then pump eligible work)
    # ------------------------------------------------------------------
    def _eligible(self, block: int) -> Optional[Message]:
        """The message that may start next on ``block``, if any."""
        if self.serialization == "global":
            if self._global_active is None and self._global_queue:
                return self._global_queue[0]
            return None
        if block in self._active:
            return None
        queue = self._queues.get(block)
        return queue[0] if queue else None

    def _pump(self, block: int) -> None:
        """Start eligible transactions on ``block`` until none remain."""
        while True:
            nxt = self._eligible(block)
            if nxt is None:
                return
            if self.serialization == "global":
                self._global_queue.popleft()
                self._global_active = nxt
            else:
                queue = self._queues[block]
                queue.popleft()
                if not queue:
                    del self._queues[block]
                self._active[block] = nxt
                self.max_concurrency = max(
                    self.max_concurrency, len(self._active)
                )
            self._start_fn(nxt)

    def submit(self, message: Message) -> None:
        """Start ``message``'s transaction now, or queue it."""
        if self.serialization == "global":
            self._global_queue.append(message)
        else:
            self._queues.setdefault(message.block, deque()).append(message)
        self._pump(message.block)
        # Backlog is measured after the pump: a message that started
        # immediately never counted as queue depth.
        self.max_queue_depth = max(self.max_queue_depth, self.n_queued)

    def complete(self, block: int) -> None:
        """Finish the active transaction on ``block``; start the next."""
        if self.serialization == "global":
            active = self._global_active
            if active is None or active.block != block:
                raise RuntimeError(f"no active global transaction on block {block}")
            self._global_active = None
        else:
            if block not in self._active:
                raise RuntimeError(f"no active transaction on block {block}")
            del self._active[block]
        self._pump(block)

    def scrub(
        self, block: int, predicate: Callable[[Message], bool]
    ) -> List[Message]:
        """Delete queued commands on ``block`` matching ``predicate``.

        Active transactions are never scrubbed.  Returns the removed
        messages (the paper's controller deletes them silently; callers
        may count them).
        """
        removed: List[Message] = []
        if self.serialization == "global":
            kept: Deque[Message] = deque()
            for msg in self._global_queue:
                if msg.block == block and predicate(msg):
                    removed.append(msg)
                else:
                    kept.append(msg)
            self._global_queue = kept
            return removed
        queue = self._queues.get(block)
        if not queue:
            return removed
        kept: Deque[Message] = deque()
        for msg in queue:
            if predicate(msg):
                removed.append(msg)
            else:
                kept.append(msg)
        if kept:
            self._queues[block] = kept
        else:
            self._queues.pop(block, None)
        return removed
