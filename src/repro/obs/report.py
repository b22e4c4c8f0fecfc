"""Comparative sweep reports (part c).

:func:`build_report` turns the :mod:`repro.obs.rollup` groups into one
JSON-ready document; :func:`render_markdown` renders it as the
comparative table ``repro report`` prints — per-group broadcast
overhead (the paper's Table 4-1 unit), NAK/retry cost, merged-bucket
latency percentiles, all relative to a baseline group (``fullmap`` by
default, the paper's full-map reference design).
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.obs.rollup import GroupRollup
from repro.schema import stamp_record

__all__ = ["build_report", "render_markdown"]

#: Comparative columns rendered per group: (key, header, format).
_COLUMNS: Tuple[Tuple[str, str, str], ...] = (
    ("broadcast_overhead", "extra cmds/ref", "{:.4f}"),
    ("commands_per_ref", "cmds/ref", "{:.4f}"),
    ("traffic_per_ref", "traffic/ref", "{:.3f}"),
    ("avg_latency", "avg latency", "{:.2f}"),
    ("miss_ratio", "miss ratio", "{:.4f}"),
    ("naks_per_ref", "naks/ref", "{:.5f}"),
    ("retries_per_ref", "retries/ref", "{:.5f}"),
)


def build_report(
    rollups: Mapping[str, GroupRollup],
    group_by: str = "protocol",
    baseline: Optional[str] = None,
    label: str = "sweep",
    missing: Optional[List[str]] = None,
) -> Dict[str, Any]:
    """One JSON-ready report document over rolled-up sweep groups.

    ``baseline`` picks the comparison row (``fullmap`` when present —
    the paper's reference design — else the first group).
    """
    if baseline is None:
        baseline = (
            "fullmap" if "fullmap" in rollups else next(iter(rollups), None)
        )
    return stamp_record(
        {
            "report": "sweep-rollup",
            "label": label,
            "group_by": group_by,
            "baseline": baseline,
            "groups": {
                key: rollup.to_dict() for key, rollup in rollups.items()
            },
            "missing_points": list(missing or ()),
        }
    )


def _fmt(value: Optional[float], spec: str) -> str:
    return "-" if value is None else spec.format(value)


def _table(headers: List[str], rows: List[List[str]]) -> List[str]:
    lines = ["| " + " | ".join(headers) + " |"]
    lines.append("|" + "|".join(" --- " for _ in headers) + "|")
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    return lines


def render_markdown(report: Mapping[str, Any]) -> str:
    """Render :func:`build_report`'s document as comparative markdown."""
    group_by = report["group_by"]
    baseline_key = report.get("baseline")
    groups: Mapping[str, Any] = report["groups"]
    lines: List[str] = [
        f"# Sweep report: {report['label']}",
        "",
        f"Grouped by `{group_by}`; {len(groups)} group(s), baseline "
        f"`{baseline_key}`.",
        "",
        "## Comparatives",
        "",
    ]
    headers = [group_by, "runs", "refs"] + [h for _, h, _ in _COLUMNS] + [
        "Δ overhead vs baseline"
    ]
    base = groups.get(baseline_key, {}).get("comparatives", {})
    base_overhead = base.get("broadcast_overhead")
    rows = []
    for key, group in groups.items():
        comp = group["comparatives"]
        overhead = comp.get("broadcast_overhead")
        if key == baseline_key:
            relative = "(baseline)"
        elif overhead is None or base_overhead is None:
            relative = "-"
        else:
            # Absolute delta in the Table 4-1 unit: the full-map
            # baseline sends zero useless broadcasts, so a ratio
            # against it would be undefined.
            relative = f"{overhead - base_overhead:+.4f}"
        rows.append(
            [key, str(group["n_runs"]), str(group["total_refs"])]
            + [_fmt(comp.get(name), spec) for name, _, spec in _COLUMNS]
            + [relative]
        )
    lines.extend(_table(headers, rows))

    # Latency percentiles from merged buckets (instrumented runs only).
    outcome_rows = []
    for key, group in groups.items():
        for outcome, summary in group.get("latency", {}).items():
            outcome_rows.append(
                [
                    key,
                    outcome,
                    str(summary.get("count")),
                    _fmt(summary.get("mean"), "{:.2f}"),
                    _fmt(summary.get("p50"), "{:.0f}"),
                    _fmt(summary.get("p95"), "{:.0f}"),
                    _fmt(summary.get("p99"), "{:.0f}"),
                    _fmt(summary.get("max"), "{:.0f}"),
                ]
            )
    if outcome_rows:
        lines += [
            "",
            "## Latency (merged buckets)",
            "",
            "Percentiles are re-derived from bucket-wise merged",
            "histograms across every run in the group — never averaged",
            "per-run percentiles.",
            "",
        ]
        lines.extend(
            _table(
                [group_by, "outcome", "n", "mean", "p50", "p95", "p99",
                 "max"],
                outcome_rows,
            )
        )
    skipped = sum(
        g.get("runs_without_metrics", 0) for g in groups.values()
    )
    if skipped:
        lines += [
            "",
            f"_{skipped} run(s) had no cached telemetry (bare cache "
            "entries); their counters are included but their histograms "
            "are not. Re-run with `--metrics` to instrument them._",
        ]

    missing = report.get("missing_points") or []
    if missing:
        lines += [
            "",
            "## Missing points",
            "",
            f"{len(missing)} grid point(s) had no cached result "
            "(re-run with `--run-missing` to execute them):",
            "",
        ]
        lines += [f"- `{point}`" for point in missing]
    return "\n".join(lines) + "\n"
