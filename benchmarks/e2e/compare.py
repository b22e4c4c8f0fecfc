"""Compare two benchmark records: ``run.py --compare A.json B.json``.

A is the baseline, B the candidate.  For every workload and end-to-end
metric present in both, the verdict is:

* ``unresolved`` when either side's spread is wider than the metric's
  bound, unless every sample of B is better than every sample of A (then
  ``within``).  The spread is the interquartile range of the reported
  statistic (median or best) over bootstrap resamples of the
  repetitions, divided by its value;
* ``regressed`` when B's value is worse than A's by more than the bound;
* ``within`` otherwise.

Bounds come from ``BENCHMARK.json``.  A simulated-results digest that
differs between the records is reported too: a change meant only to
speed up the simulator must leave every simulated statistic identical.
The exit code is 1 when anything regressed or a digest differs.
"""

from __future__ import annotations

import json
import random
import statistics
from pathlib import Path
from typing import Any, Dict, List, Tuple

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

#: Bootstrap resamples per spread estimate.
RESAMPLES = 200


def load_bounds() -> Dict[str, float]:
    """Metric name -> regression bound, for the end-to-end metrics."""
    spec = json.loads(BENCHMARK.read_text())
    return {m["name"]: m["bound"] for m in spec["end_to_end"]}


def _statistic(m: Dict[str, Any]):
    if m["stat"] == "best":
        return max if m["better"] == "higher" else min
    return statistics.median


def spread(m: Dict[str, Any]) -> float:
    """Bootstrap interquartile range of the reported value, over the value."""
    values = m["values"]
    if len(values) < 2 or not m["value"]:
        return 0.0
    stat = _statistic(m)
    rng = random.Random(0)
    resampled = [stat(rng.choices(values, k=len(values))) for _ in range(RESAMPLES)]
    q1, _, q3 = statistics.quantiles(resampled, n=4)
    return (q3 - q1) / abs(m["value"])


def verdict(a: Dict[str, Any], b: Dict[str, Any], bound: float) -> str:
    """Verdict for one metric summarized on both sides (see module doc)."""
    sign = 1.0 if a["better"] == "lower" else -1.0
    if max(spread(a), spread(b)) > bound:
        if a["values"] and b["values"]:
            if max(sign * v for v in b["values"]) < min(sign * v for v in a["values"]):
                return "within"
        return "unresolved"
    worse_by = sign * (b["value"] - a["value"]) / a["value"] if a["value"] else 0.0
    return "regressed" if worse_by > bound else "within"


def compare(
    a: Dict[str, Any], b: Dict[str, Any], bounds: Dict[str, float]
) -> Tuple[List[str], bool]:
    """Report lines and whether B passes against A."""
    lines = []
    passed = True
    for name, ra in a["workloads"].items():
        rb = b["workloads"].get(name)
        if rb is None:
            continue
        if ra.get("digest") != rb.get("digest"):
            lines.append(f"{name:<12} simulated results digest differs")
            passed = False
        for metric, bound in bounds.items():
            ma, mb = ra["metrics"].get(metric), rb["metrics"].get(metric)
            if ma is None or mb is None:
                continue
            v = verdict(ma, mb, bound)
            passed &= v != "regressed"
            lines.append(
                f"{name:<12} {metric:<12} "
                f"A {ma['value']:.6g} ({ma['stat']}; median {ma['median']:.6g} "
                f"[{ma['q1']:.6g}, {ma['q3']:.6g}] n={ma['n']})  "
                f"B {mb['value']:.6g} ({mb['stat']}; median {mb['median']:.6g} "
                f"[{mb['q1']:.6g}, {mb['q3']:.6g}] n={mb['n']})  "
                f"bound {bound:.0%}: {v}"
            )
    return lines, passed


def main(path_a: str, path_b: str) -> int:
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    lines, passed = compare(a, b, load_bounds())
    print("\n".join(lines))
    print("PASS" if passed else "FAIL")
    return 0 if passed else 1
