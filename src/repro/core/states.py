"""The two-bit global directory (§3.1).

Each memory block has one of exactly four global states, encodable in two
bits.  :class:`TwoBitDirectory` is the per-controller bit map; it also
accumulates time-in-state statistics so experiments can measure the state
occupancy probabilities P(P1), P(P*), P(PM) that parameterize the paper's
analytical model.
"""

from __future__ import annotations

from typing import Callable, Collection, Dict, Iterable, List, Optional

from repro.sim.enums import IdentityEnum


def _zero_clock() -> int:
    """Default stats clock (module-level so directories stay picklable)."""
    return 0


class GlobalState(IdentityEnum):
    """The four two-bit global states of §3.1."""

    #: Not present in any cache.
    ABSENT = 0
    #: Present in exactly one cache, read-only.
    PRESENT1 = 1
    #: Present in zero or more caches, read-only (the "apparent anomaly":
    #: clean ejections from Present* are not tracked, so the count may
    #: silently reach zero).
    PRESENT_STAR = 2
    #: Present in exactly one cache, modified.
    PRESENTM = 3

    @property
    def bits(self) -> str:
        """Two-bit encoding (demonstrates the fixed-size tag)."""
        return format(self.value, "02b")


#: A state's slot in a time-in-state record: its two-bit value, without
#: a Python-level ``Enum.value`` call.
_SLOT = {state: state.value for state in GlobalState}


class TwoBitDirectory:
    """Per-module map: block -> :class:`GlobalState` (2 bits/block).

    A block in its initial state has no entry: the map stores only the
    blocks that are not ``ABSENT``, and time-in-state records only for
    the blocks whose state changed during the measurement window (every
    other homed block has been in its current state since the window
    opened).  So a built directory holds nothing, and one block's state
    is the same Python value however the machine reached it.

    Args:
        blocks: blocks homed at this controller (a ``range``, as
            :meth:`~repro.memory.address.AddressMap.blocks_of` gives).
        clock: callable returning the current cycle (for time-in-state).
        keep_present1: §3.2.1 note — `Present1` may be merged into
            `Present*` and the protocol stays correct, at the cost of
            extra broadcasts.  When False every transition that would
            produce `PRESENT1` produces `PRESENT_STAR` instead.
    """

    #: Non-state fields (see :mod:`repro.verification.state`).
    _not_state = {
        "blocks": "configuration",
        "_clock": "wiring to the kernel clock",
        "observer": "telemetry probe",
        "transitions": "statistics",
        "_time_in": "time-in-state statistics",
        "_opened": "time-in-state statistics",
        "_closed": "time-in-state statistics",
    }

    def __init__(
        self,
        blocks: Collection[int],
        clock: Optional[Callable[[], int]] = None,
        keep_present1: bool = True,
    ) -> None:
        self.blocks = blocks
        self._clock = clock if clock is not None else _zero_clock
        self.keep_present1 = keep_present1
        #: Optional ``observer(block, old, new)`` invoked after each
        #: stored transition (the controller routes it to ``repro.obs``).
        self.observer: Optional[Callable[[int, GlobalState, GlobalState], None]] = None
        #: The blocks not ``ABSENT``, and their states.
        self._states: Dict[int, GlobalState] = {}
        #: block -> ``[cycles in each state by value..., flushed up to]``
        #: for the blocks whose state changed during the window.
        self._time_in: Dict[int, List[int]] = {}
        #: The window opened at ``_opened`` and was last flushed at
        #: ``_closed``: a block with no record spent that span in its
        #: current state.
        self._opened = self._closed = 0
        self.transitions = 0

    def __contains__(self, block: int) -> bool:
        return block in self.blocks

    def __len__(self) -> int:
        return len(self.blocks)

    def state(self, block: int) -> GlobalState:
        """Current global state of ``block``."""
        state = self._states.get(block)
        if state is not None:
            return state
        if block not in self.blocks:
            raise KeyError(f"block {block} not homed at this directory")
        return GlobalState.ABSENT

    def recorded(self) -> Iterable[int]:
        """The blocks with an entry: those not ``ABSENT``."""
        return self._states.keys()

    def set_state(self, block: int, state: GlobalState) -> GlobalState:
        """SETSTATE(a, st): transition ``block``; returns the state stored
        (PRESENT1 collapses to PRESENT_STAR when keep_present1 is off)."""
        if state is GlobalState.PRESENT1 and not self.keep_present1:
            state = GlobalState.PRESENT_STAR
        old = self.state(block)
        if state is not old:
            self.transitions += 1
            record = self._time_in.get(block)
            slot = _SLOT[old]
            if record is None:
                # In ``old`` since the window opened, flushed at the
                # last close.
                record = self._time_in[block] = [0, 0, 0, 0, self._closed]
                record[slot] = self._closed - self._opened
            now = self._clock()
            record[slot] += now - record[4]
            record[4] = now
            if state is GlobalState.ABSENT:
                del self._states[block]
            else:
                self._states[block] = state
        if self.observer is not None:
            self.observer(block, old, state)
        return state

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def close_window(self) -> None:
        """Flush time-in-state accumulation up to the current cycle."""
        now = self._clock()
        absent = GlobalState.ABSENT
        for block, record in self._time_in.items():
            record[_SLOT[self._states.get(block, absent)]] += now - record[4]
            record[4] = now
        self._closed = now

    def reset_window(self) -> None:
        """Zero the time-in-state accounting (opens a measurement window)."""
        self._opened = self._closed = self._clock()
        self._time_in = {}

    def occupancy(self, blocks: Optional[Iterable[int]] = None) -> Dict[GlobalState, float]:
        """Fraction of time spent in each state, averaged over ``blocks``
        (default: all blocks of this directory).  Call
        :meth:`close_window` first."""
        time_in, states = self._time_in, self._states
        if blocks is None:
            records = list(time_in.values())
            quiet = [s for b, s in states.items() if b not in time_in]
            quiet_absent = len(self.blocks) - len(records) - len(quiet)
        else:
            chosen = [b for b in blocks if b in self.blocks]
            records = [time_in[b] for b in chosen if b in time_in]
            quiet = [
                states.get(b, GlobalState.ABSENT)
                for b in chosen
                if b not in time_in
            ]
            quiet_absent = 0
        span = self._closed - self._opened
        totals = [sum(record[value] for record in records) for value in range(4)]
        totals[_SLOT[GlobalState.ABSENT]] += quiet_absent * span
        for state in quiet:
            totals[_SLOT[state]] += span
        grand = sum(totals)
        if grand == 0:
            return {state: 0.0 for state in GlobalState}
        return {state: totals[_SLOT[state]] / grand for state in GlobalState}

    def histogram(self) -> Dict[GlobalState, int]:
        """Instantaneous count of blocks per state."""
        counts = {state: 0 for state in GlobalState}
        for state in self._states.values():
            counts[state] += 1
        counts[GlobalState.ABSENT] = len(self.blocks) - len(self._states)
        return counts

    @property
    def storage_bits(self) -> int:
        """Directory cost in the modelled hardware: exactly two bits per
        homed block, independent of n — the paper's economy argument.

        This counts the bit map the paper's controller keeps, not the
        simulator's: the host stores an entry only for a block that is
        not ``ABSENT``.
        """
        return 2 * len(self.blocks)
