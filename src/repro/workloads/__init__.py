"""Workloads: the Dubois-Briggs two-stream model, traces, and helpers."""

from repro.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.workloads.locks": ("LockContentionWorkload",),
    "repro.workloads.migration": ("MigratingWorkload",),
    "repro.workloads.reference": ("MemRef", "Op"),
    "repro.workloads.registry": (
        "WORKLOADS",
        "WorkloadContext",
        "WorkloadSpecError",
        "make_workload",
        "parse_workload",
        "workload_names",
        "workload_options",
    ),
    "repro.workloads.synthetic": (
        "DuboisBriggsWorkload",
        "ScriptedWorkload",
        "UniformWorkload",
    ),
    "repro.workloads.traces": ("StreamingTraceWorkload", "write_trace"),
})
