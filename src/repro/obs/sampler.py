"""Fixed-interval time-series sampling.

A :class:`TimeSeriesSampler` partitions simulated time into windows of
``interval`` cycles and records one row per window:

* **gauges** — instantaneous values read at the window boundary
  (outstanding transactions, controller occupancy, memory backlog);
* **rates** — deltas of cumulative counters over the window (network
  traffic units, commands, bus busy cycles).

Windows close *lazily*: the sampler never schedules kernel events
(that would change ``events_processed`` and break the determinism
goldens).  Instead the hub calls :meth:`maybe_sample` from probe
activity, which closes any window boundaries the clock has passed.  The
hub caches the earliest :attr:`~TimeSeriesSampler.next_boundary` of its
samplers and enters them only from the first probe at or after it, so
drive a hub's samplers through the hub (``tick``/``flush``/``reset``).
Consequence: gauge values are read when the first probe *after* the
boundary fires, not at the exact boundary cycle — a skew of at most the
machine's probe gap, which is a few cycles in practice and irrelevant
at typical window sizes.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Union

Number = Union[int, float]
Probe = Callable[[], Number]


class TimeSeriesSampler:
    """Windows of gauges and counter-deltas over simulated time."""

    def __init__(
        self,
        name: str,
        interval: int,
        gauges: Optional[Dict[str, Probe]] = None,
        rates: Optional[Dict[str, Probe]] = None,
        start: int = 0,
    ) -> None:
        if interval <= 0:
            raise ValueError("interval must be > 0")
        self.name = name
        self.interval = interval
        self.gauges = dict(gauges or {})
        self.rates = dict(rates or {})
        self.windows: List[Dict[str, Number]] = []
        self._next = start + interval
        self._closed_to = start
        self._last_counts: Dict[str, Number] = {
            key: probe() for key, probe in self.rates.items()
        }

    @property
    def next_boundary(self) -> int:
        """The cycle at which the next whole window closes."""
        return self._next

    def maybe_sample(self, now: int) -> None:
        """Close every whole window boundary at or before ``now``."""
        while now >= self._next:
            boundary = self._next
            self._next = boundary + self.interval
            self._close(boundary)

    def flush(self, now: int) -> None:
        """Terminal close: whole windows up to ``now``, then the
        partial remainder (marked ``partial``).  Idempotent for a fixed
        ``now``."""
        self.maybe_sample(now)
        if now > self._closed_to:
            self._close(now, partial=True)
            self._next = now + self.interval

    def reset(self, now: int) -> None:
        """Drop collected windows and re-baseline the rate counters."""
        self.windows.clear()
        self._next = now + self.interval
        self._closed_to = now
        self._last_counts = {
            key: probe() for key, probe in self.rates.items()
        }

    def _close(self, boundary: int, partial: bool = False) -> None:
        row: Dict[str, Number] = {"t0": self._closed_to, "t1": boundary}
        if partial:
            row["partial"] = True
        for key, probe in self.gauges.items():
            row[key] = probe()
        for key, probe in self.rates.items():
            current = probe()
            row[key] = current - self._last_counts[key]
            self._last_counts[key] = current
        self.windows.append(row)
        self._closed_to = boundary
