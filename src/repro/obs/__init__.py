"""Observability: probes, transaction spans, samplers, and exporters.

Zero-overhead when disabled: ``Simulator.obs`` is ``None`` by default
and every probe site is guarded, so uninstrumented runs pay only a
``None`` check.  Attach with::

    from repro.obs import instrument_machine

    machine = build_machine(config, workload)
    obs = instrument_machine(machine)
    machine.run(refs_per_proc=2000, warmup_refs=500)
    write_chrome_trace("trace.json", obs)   # open in Perfetto

See ``docs/observability.md`` for the probe API, the span-phase model,
and the export schemas.
"""

from repro.obs.attach import (
    instrument_machine,
    machine_metrics,
    machine_metrics_records,
)
from repro.obs.core import (
    OUTCOMES,
    PHASES,
    Observability,
    ObsEvent,
    TransactionSpan,
)
from repro.obs.export import (
    chrome_trace,
    chrome_trace_events,
    metrics_records,
    read_metrics_jsonl,
    render_events,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.progress import (
    PROGRESS_EVENTS,
    ProgressStream,
    read_progress,
    verify_point_trails,
)
from repro.obs.report import build_report, render_markdown
from repro.obs.rollup import GroupRollup, rollup_outcomes, rollup_results
from repro.obs.sampler import TimeSeriesSampler

__all__ = [
    "OUTCOMES",
    "PHASES",
    "PROGRESS_EVENTS",
    "GroupRollup",
    "Observability",
    "ObsEvent",
    "ProgressStream",
    "TimeSeriesSampler",
    "TransactionSpan",
    "build_report",
    "chrome_trace",
    "chrome_trace_events",
    "instrument_machine",
    "machine_metrics",
    "machine_metrics_records",
    "metrics_records",
    "read_metrics_jsonl",
    "read_progress",
    "render_events",
    "render_markdown",
    "rollup_outcomes",
    "rollup_results",
    "verify_point_trails",
    "write_chrome_trace",
    "write_jsonl",
]
