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

from repro.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.obs.attach": (
        "instrument_machine",
        "machine_metrics",
        "machine_metrics_records",
    ),
    "repro.obs.core": ("OUTCOMES", "PHASES", "Observability"),
    "repro.obs.export": (
        "chrome_trace",
        "read_metrics_jsonl",
        "render_events",
        "write_chrome_trace",
        "write_jsonl",
    ),
    "repro.obs.progress": ("read_progress", "verify_point_trails"),
    "repro.obs.sampler": ("TimeSeriesSampler",),
})
