"""Coherence oracle.

The simulator does not move byte payloads; every write is stamped with a
globally unique, monotonically increasing *version* from this oracle, and
every read reports the version it returned.  The oracle enforces the
paper's definition of coherence — "a read access to any block always
returns the most recently written value of that block" — as:

  a read issued at time t must return a version at least as new as the
  last version committed to that block strictly before t, and the version
  must be one actually written to that block.

Writes *commit* at their linearization point: the cycle the writing cache
sets its line (after any invalidations were granted), or the cycle memory
is updated for write-through/uncached schemes.

Bounded history
---------------
A built machine gives the oracle a *horizon*: a callable returning the
oldest issue cycle among references still in flight, or the current
cycle when none are.  Every future read is issued at or after it.  When
the kept commits reach ``max(256, 2 x`` the count kept after the last
prune``)``, the oracle takes the horizon H once and, for every block,
keeps the last commit strictly before H and every commit at or after
H.  A read issued at t >= H needs nothing older, so every verdict is
the one the full history gives (only a violation's ``known`` flag can
differ, see :meth:`_BlockHistory.written`); memory stays proportional
to the blocks written plus the commits made while the oldest reference
is in flight.  A read issued below a horizon already pruned at raises
:class:`OracleHorizonError`.  A ``CoherenceOracle()`` without a
horizon keeps every commit.
"""

from __future__ import annotations

import sys
from bisect import bisect_left
from typing import Callable, Dict, Iterable, List, Optional

#: Fewest kept commits that trigger a prune (see the module docstring).
PRUNE_MIN = 256


class CoherenceViolation(AssertionError):
    """A read observably returned stale data.

    Carries the violation as structured fields so tooling (the model
    checker's counterexamples, the differential harness) can consume it
    without parsing the message:

    Attributes:
        block: block address that was read.
        pid: processor that issued the read.
        issue_time: cycle the read was issued.
        observed: version the read returned.
        required: minimum version the commit history demanded.
        known: whether ``observed`` was ever actually written.
    """

    def __init__(
        self,
        message: str,
        *,
        block: Optional[int] = None,
        pid: Optional[int] = None,
        issue_time: Optional[int] = None,
        observed: Optional[int] = None,
        required: Optional[int] = None,
        known: bool = True,
    ) -> None:
        super().__init__(message)
        self.block = block
        self.pid = pid
        self.issue_time = issue_time
        self.observed = observed
        self.required = required
        self.known = known


class OracleHorizonError(RuntimeError):
    """A read was checked with an issue cycle below a horizon the oracle
    already pruned at: its verdict would need forgotten commits.

    Raised instead of guessing.  It means a reference was in flight
    without the horizon source knowing (something other than a
    processor issued it while other references ran).
    """


class _BlockHistory:
    """Kept commits of one block, in commit order.

    Versions come from one global counter and commit at the current
    cycle, so both lists increase: ``versions`` doubles as the set of
    kept versions a read may return.  ``dropped`` counts the commits
    pruned from the front.
    """

    __slots__ = ("times", "versions", "dropped")

    def __init__(self) -> None:
        self.times: List[int] = []
        self.versions: List[int] = []
        self.dropped = 0

    def commit(self, time: int, version: int) -> None:
        if self.times and time < self.times[-1]:
            raise ValueError("commits must be time-ordered")
        self.times.append(time)
        self.versions.append(version)

    def latest_before(self, time: int) -> int:
        """Version committed most recently strictly before ``time``."""
        idx = bisect_left(self.times, time)
        if idx == 0:
            return 0
        return self.versions[idx - 1]

    def written(self, version: int) -> bool:
        """Whether ``version`` was written to this block.

        A version below a pruned window counts as written: the commits
        that could tell are gone, and a stale copy of the block is the
        one way a protocol comes to hold such a version.  Such a read is
        a violation either way, since its version is below the floor.
        """
        versions = self.versions
        idx = bisect_left(versions, version)
        if idx < len(versions):
            return versions[idx] == version or (idx == 0 and self.dropped > 0)
        return False

    def prune(self, horizon: int) -> int:
        """Keep the last commit strictly before ``horizon`` and every
        later one; return how many are kept."""
        drop = bisect_left(self.times, horizon) - 1
        if drop > 0:
            del self.times[:drop]
            del self.versions[:drop]
            self.dropped += drop
        return len(self.times)


class CoherenceOracle:
    """Issues versions, records commits, checks reads.

    Args:
        strict: raise :class:`CoherenceViolation` at the first stale
            read (otherwise only record it in ``violations``).
        horizon: returns a cycle no future read is issued before (see
            the module docstring); without one, every commit is kept.
    """

    #: Non-state fields (see :mod:`repro.verification.state`).
    _not_state = {
        "reads_checked": "statistics",
        "writes_committed": "statistics",
        "_horizon_fn": "wiring to the processors",
        "_prune_at": "pruning bookkeeping: memory, never a verdict",
        "_pruned_below": "pruning bookkeeping: memory, never a verdict",
    }

    def __init__(
        self, strict: bool = True, horizon: Optional[Callable[[], int]] = None
    ) -> None:
        self.strict = strict
        self._counter = 0
        self._history: Dict[int, _BlockHistory] = {}
        self.reads_checked = 0
        self.writes_committed = 0
        self.violations: List[str] = []
        self._horizon_fn = horizon
        #: ``writes_committed`` value at which the next prune runs.
        self._prune_at = PRUNE_MIN if horizon is not None else sys.maxsize
        #: Highest horizon pruned at: no read may be issued before it.
        self._pruned_below = 0

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def new_version(self) -> int:
        """Allocate the next global version number."""
        self._counter += 1
        return self._counter

    def commit_write(self, block: int, version: int, time: int, pid: int) -> None:
        """Record that ``version`` became the value of ``block`` at ``time``."""
        history = self._history.get(block)
        if history is None:
            history = self._history[block] = _BlockHistory()
        history.commit(time, version)
        self.writes_committed += 1
        if self.writes_committed >= self._prune_at:
            self._prune()

    def _prune(self) -> None:
        """Forget, in every block, what no read from the horizon on needs."""
        horizon = self._horizon_fn()
        if horizon > self._pruned_below:
            self._pruned_below = horizon
        kept = sum(h.prune(horizon) for h in self._history.values())
        self._prune_at = self.writes_committed + max(PRUNE_MIN, 2 * kept) - kept

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def check_read(
        self, block: int, version: int, issue_time: int, pid: int
    ) -> None:
        """Validate a completed read against the commit history."""
        self.reads_checked += 1
        if issue_time < self._pruned_below:
            raise OracleHorizonError(
                f"P{pid} read block {block} issued at t={issue_time}, below "
                f"the pruned horizon t={self._pruned_below}"
            )
        history = self._history.get(block)
        if history is None:
            floor = 0
            known = version == 0
        else:
            times = history.times
            if issue_time > times[-1]:
                # The common case: the read follows the block's last commit.
                floor = history.versions[-1]
                if version == floor:
                    return
            else:
                floor = history.latest_before(issue_time)
            known = version == 0 or history.written(version)
        if version < floor or not known:
            detail = (
                f"P{pid} read block {block} -> v{version} "
                f"(issued t={issue_time}, requires >= v{floor}"
                f"{'' if known else ', version never written'})"
            )
            self.violations.append(detail)
            if self.strict:
                raise CoherenceViolation(
                    detail,
                    block=block,
                    pid=pid,
                    issue_time=issue_time,
                    observed=version,
                    required=floor,
                    known=known,
                )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def latest_version(self, block: int) -> int:
        """Most recent committed version of ``block`` (0 if never written)."""
        history = self._history.get(block)
        return history.versions[-1] if history else 0

    def recorded(self) -> Iterable[int]:
        """The blocks with a kept commit history (those ever written)."""
        return self._history.keys()

    def latest_committer_time(self, block: int) -> Optional[int]:
        history = self._history.get(block)
        return history.times[-1] if history else None

    @property
    def ok(self) -> bool:
        return not self.violations
