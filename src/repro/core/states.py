"""The two-bit global directory (§3.1).

Each memory block has one of exactly four global states, encodable in two
bits.  :class:`TwoBitDirectory` is the per-controller bit map; it also
accumulates time-in-state statistics so experiments can measure the state
occupancy probabilities P(P1), P(P*), P(PM) that parameterize the paper's
analytical model.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Optional

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


class TwoBitDirectory:
    """Per-module map: block -> :class:`GlobalState` (2 bits/block).

    Args:
        blocks: blocks homed at this controller.
        clock: callable returning the current cycle (for time-in-state).
        keep_present1: §3.2.1 note — `Present1` may be merged into
            `Present*` and the protocol stays correct, at the cost of
            extra broadcasts.  When False every transition that would
            produce `PRESENT1` produces `PRESENT_STAR` instead.
    """

    #: Non-state fields (see :mod:`repro.verification.state`).
    _not_state = {
        "_clock": "wiring to the kernel clock",
        "observer": "telemetry probe",
        "transitions": "statistics",
        "_since": "time-in-state statistics",
        "_time_in": "time-in-state statistics",
    }

    def __init__(
        self,
        blocks: Iterable[int],
        clock: Optional[Callable[[], int]] = None,
        keep_present1: bool = True,
    ) -> None:
        self._clock = clock if clock is not None else _zero_clock
        self.keep_present1 = keep_present1
        #: Optional ``observer(block, old, new)`` invoked after each
        #: stored transition (the controller routes it to ``repro.obs``).
        self.observer: Optional[Callable[[int, GlobalState, GlobalState], None]] = None
        self._states: Dict[int, GlobalState] = {
            block: GlobalState.ABSENT for block in blocks
        }
        self._since: Dict[int, int] = {block: 0 for block in self._states}
        self._time_in: Dict[int, Dict[GlobalState, int]] = {
            block: {state: 0 for state in GlobalState} for block in self._states
        }
        self.transitions = 0

    def __contains__(self, block: int) -> bool:
        return block in self._states

    def __len__(self) -> int:
        return len(self._states)

    def state(self, block: int) -> GlobalState:
        """Current global state of ``block``."""
        try:
            return self._states[block]
        except KeyError:
            raise KeyError(f"block {block} not homed at this directory") from None

    def set_state(self, block: int, state: GlobalState) -> GlobalState:
        """SETSTATE(a, st): transition ``block``; returns the state stored
        (PRESENT1 collapses to PRESENT_STAR when keep_present1 is off)."""
        if state is GlobalState.PRESENT1 and not self.keep_present1:
            state = GlobalState.PRESENT_STAR
        now = self._clock()
        old = self.state(block)
        self._time_in[block][old] += now - self._since[block]
        self._since[block] = now
        if state is not old:
            self.transitions += 1
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
        for block, state in self._states.items():
            self._time_in[block][state] += now - self._since[block]
            self._since[block] = now

    def reset_window(self) -> None:
        """Zero the time-in-state accounting (opens a measurement window)."""
        now = self._clock()
        for block in self._states:
            self._since[block] = now
            for state in GlobalState:
                self._time_in[block][state] = 0

    def occupancy(self, blocks: Optional[Iterable[int]] = None) -> Dict[GlobalState, float]:
        """Fraction of time spent in each state, averaged over ``blocks``
        (default: all blocks of this directory).  Call
        :meth:`close_window` first."""
        chosen = list(blocks) if blocks is not None else list(self._states)
        chosen = [b for b in chosen if b in self._states]
        totals = {state: 0 for state in GlobalState}
        for block in chosen:
            for state, cycles in self._time_in[block].items():
                totals[state] += cycles
        grand = sum(totals.values())
        if grand == 0:
            return {state: 0.0 for state in GlobalState}
        return {state: cycles / grand for state, cycles in totals.items()}

    def histogram(self) -> Dict[GlobalState, int]:
        """Instantaneous count of blocks per state."""
        counts = {state: 0 for state in GlobalState}
        for state in self._states.values():
            counts[state] += 1
        return counts

    @property
    def storage_bits(self) -> int:
        """Directory cost: exactly two bits per block, independent of n —
        the paper's economy argument."""
        return 2 * len(self._states)
