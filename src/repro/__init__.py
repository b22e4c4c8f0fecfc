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
"""

from repro.api import Experiment, RunOutcome, resume, run_point
from repro.core import (
    GlobalState,
    TranslationBuffer,
    TwoBitDirectory,
    TwoBitDirectoryController,
)
from repro.schema import SCHEMA_VERSION, SchemaMismatchError
from repro.system import (
    Machine,
    MachineConfig,
    ProtocolOptions,
    SimulationResults,
    TimingConfig,
)
from repro.verification import (
    AuditReport,
    CoherenceOracle,
    CoherenceViolation,
)
from repro.workloads import (
    DuboisBriggsWorkload,
    MemRef,
    Op,
    ScriptedWorkload,
    StreamingTraceWorkload,
    TraceWorkload,
    UniformWorkload,
    Workload,
    WorkloadSpecError,
    parse_workload,
)

__version__ = "1.0.0"

__all__ = [
    "AuditReport",
    "CoherenceOracle",
    "CoherenceViolation",
    "DuboisBriggsWorkload",
    "Experiment",
    "GlobalState",
    "Machine",
    "MachineConfig",
    "MemRef",
    "Op",
    "ProtocolOptions",
    "RunOutcome",
    "SCHEMA_VERSION",
    "SchemaMismatchError",
    "SimulationResults",
    "StreamingTraceWorkload",
    "TimingConfig",
    "TraceWorkload",
    "TranslationBuffer",
    "TwoBitDirectory",
    "TwoBitDirectoryController",
    "UniformWorkload",
    "Workload",
    "WorkloadSpecError",
    "parse_workload",
    "resume",
    "run_point",
]
