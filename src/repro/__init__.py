"""repro — reproduction of Archibald & Baer, "An Economical Solution to
the Cache Coherence Problem" (ISCA 1984).

The package implements the paper's two-bit directory scheme, every
baseline it compares against, a discrete-event multiprocessor simulator
to run them on, the paper's analytical models, and a verification layer.

Quick start — the stable facade (see ``docs/api.md``)::

    from repro import Experiment

    outcome = Experiment(protocol="twobit", n_processors=4, q=0.05).run()
    print(outcome.results.summary())

    # a cached, crash-tolerant parameter grid:
    report = Experiment().sweep(
        {"protocol": ["twobit", "fullmap"], "q": [0.01, 0.05]},
        workers=4,
    )

Lower-level building blocks (``MachineConfig``, workloads, the machine
itself) remain importable for custom setups; machine-level helpers live
in their home modules (``repro.system.builder.build_machine``,
``repro.verification.audit.audit_machine``, ``repro.system.topology``).

Every name below resolves on first use (:mod:`repro.lazy`): ``import
repro`` runs no submodule, and ``repro.Experiment`` imports
:mod:`repro.api` the first time it is read.
"""

from repro.lazy import lazy_exports

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.api": ("Experiment", "RunOutcome", "resume", "run_point"),
    "repro.config": ("MachineConfig", "ProtocolOptions", "TimingConfig"),
    "repro.core.controller": ("TwoBitDirectoryController",),
    "repro.core.states": ("GlobalState", "TwoBitDirectory"),
    "repro.core.translation_buffer": ("TranslationBuffer",),
    "repro.schema": ("SCHEMA_VERSION", "SchemaMismatchError"),
    "repro.system.machine": ("Machine", "SimulationResults"),
    "repro.verification.audit": ("AuditReport",),
    "repro.verification.oracle": ("CoherenceOracle", "CoherenceViolation"),
    "repro.workloads.reference": ("MemRef", "Op"),
    "repro.workloads.registry": ("WorkloadSpecError", "parse_workload"),
    "repro.workloads.synthetic": (
        "DuboisBriggsWorkload",
        "UniformWorkload",
        "Workload",
    ),
    "repro.workloads.traces": ("StreamingTraceWorkload",),
})
