#!/usr/bin/env python3
"""Emit (or check) the public API surface snapshot.

The snapshot (``API_SURFACE.txt``, committed at the repo root) is one
line per public callable/class of the stable surface: the
:mod:`repro.api` facade, the checkpoint and schema modules, the sweep
runner entry points, and the top-level ``repro`` exports.  Signatures
are rendered from parameter names, kinds, and defaults only — no type
annotations — so the same source produces the same snapshot on every
supported Python version.

Usage::

    PYTHONPATH=src python tools/api_surface.py            # print snapshot
    PYTHONPATH=src python tools/api_surface.py --check    # diff vs file

``--check`` exits non-zero with a unified diff when the live surface
has drifted from the committed snapshot: changing a public signature
must come with a deliberate snapshot update in the same commit.
CI runs it (see ``.github/workflows/ci.yml``); so does
``tests/test_public_api.py``.
"""

import difflib
import inspect
import sys
from dataclasses import fields, is_dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SNAPSHOT = ROOT / "API_SURFACE.txt"

#: (module, exported name) pairs that constitute the stable surface.
SURFACE = [
    ("repro.api", "Experiment"),
    ("repro.api", "RunOutcome"),
    ("repro.api", "resume"),
    ("repro.api", "run_point"),
    ("repro.checkpoint", "CheckpointError"),
    ("repro.checkpoint", "CheckpointHeader"),
    ("repro.checkpoint", "fingerprint"),
    ("repro.checkpoint", "load"),
    ("repro.checkpoint", "peek"),
    ("repro.checkpoint", "resolve_path"),
    ("repro.checkpoint", "restore_bytes"),
    ("repro.checkpoint", "save"),
    ("repro.checkpoint", "snapshot_bytes"),
    ("repro.runner", "DuplicatePointLabelError"),
    ("repro.runner", "SweepPoint"),
    ("repro.runner", "SweepReport"),
    ("repro.runner", "derive_seed"),
    ("repro.runner", "run_sweep"),
    ("repro.runner.service", "Coordinator"),
    ("repro.runner.service", "ServiceConfig"),
    ("repro.runner.service", "ServiceError"),
    ("repro.runner.service", "run_sweep_service"),
    ("repro.runner.service", "run_worker"),
    ("repro.runner.service", "serve"),
    ("repro.runner.service", "submit_sweep"),
    ("repro.schema", "SCHEMA_VERSION"),
    ("repro.schema", "SchemaMismatchError"),
    ("repro.schema", "check_schema"),
    ("repro.system.machine", "SimulationResults"),
    ("repro.workloads.adversarial", "HuntResult"),
    ("repro.workloads.adversarial", "Objective"),
    ("repro.workloads.adversarial", "Stressor"),
    ("repro.workloads.adversarial", "dubois_baseline"),
    ("repro.workloads.adversarial", "hunt"),
    ("repro.workloads.adversarial", "load_stressor"),
    ("repro.workloads.adversarial", "promote"),
    ("repro.workloads.registry", "WorkloadContext"),
    ("repro.workloads.registry", "WorkloadSpec"),
    ("repro.workloads.registry", "WorkloadSpecError"),
    ("repro.workloads.registry", "make_workload"),
    ("repro.workloads.registry", "parse_workload"),
    ("repro.workloads.registry", "workload_names"),
    ("repro.workloads.traces", "StreamingTraceWorkload"),
    ("repro.workloads.traces", "TraceFormatError"),
    ("repro.workloads.traces", "TraceMeta"),
    ("repro.workloads.traces", "iter_trace"),
    ("repro.workloads.traces", "scan_trace_meta"),
    ("repro.workloads.traces", "write_trace"),
]


def _format_signature(obj) -> str:
    """``(a, b=1, *, c=None, **kw)`` — names/kinds/defaults, no types."""
    try:
        signature = inspect.signature(obj)
    except (TypeError, ValueError):
        return "(...)"
    parts = []
    saw_keyword_only = False
    for param in signature.parameters.values():
        if param.kind is inspect.Parameter.VAR_POSITIONAL:
            parts.append("*" + param.name)
            saw_keyword_only = True
            continue
        if param.kind is inspect.Parameter.VAR_KEYWORD:
            parts.append("**" + param.name)
            continue
        if param.kind is inspect.Parameter.KEYWORD_ONLY and not saw_keyword_only:
            parts.append("*")
            saw_keyword_only = True
        text = param.name
        if param.default is not inspect.Parameter.empty:
            text += "=" + repr(param.default)
        parts.append(text)
    return "(" + ", ".join(parts) + ")"


def _class_lines(qualifier: str, cls) -> list:
    lines = []
    if is_dataclass(cls):
        names = ", ".join(f.name for f in fields(cls))
        lines.append(f"{qualifier} [dataclass: {names}]")
    elif issubclass(cls, BaseException):
        lines.append(f"{qualifier} [exception: {cls.__bases__[0].__name__}]")
    else:
        init = cls.__dict__.get("__init__")
        ctor = _format_signature(init) if init is not None else "()"
        lines.append(f"{qualifier}{ctor}")
    for name, member in sorted(vars(cls).items()):
        if name.startswith("_"):
            continue
        if isinstance(member, (classmethod, staticmethod)):
            # Unwrap explicitly: whether the raw descriptor is callable()
            # varies across Python versions, and the snapshot must not.
            kind = type(member).__name__
            lines.append(
                f"{qualifier}.{name}"
                f"{_format_signature(member.__func__)} [{kind}]"
            )
        elif callable(member):
            lines.append(f"{qualifier}.{name}{_format_signature(member)}")
        elif isinstance(member, property):
            lines.append(f"{qualifier}.{name} [property]")
    return lines


def surface_lines() -> list:
    import importlib

    lines = []
    for module_name, attr in SURFACE:
        module = importlib.import_module(module_name)
        obj = getattr(module, attr)
        qualifier = f"{module_name}.{attr}"
        if isinstance(obj, type):
            lines.extend(_class_lines(qualifier, obj))
        elif callable(obj):
            lines.append(f"{qualifier}{_format_signature(obj)}")
        else:
            lines.append(f"{qualifier} = {obj!r}")
    # The facade's import surface is part of the contract too.
    import repro

    lines.append("repro.__all__ = " + ", ".join(sorted(repro.__all__)))
    return lines


def main(argv) -> int:
    text = "\n".join(surface_lines()) + "\n"
    if "--check" in argv:
        expected = SNAPSHOT.read_text() if SNAPSHOT.exists() else ""
        if text == expected:
            print(f"API surface matches {SNAPSHOT.name}")
            return 0
        sys.stdout.writelines(
            difflib.unified_diff(
                expected.splitlines(keepends=True),
                text.splitlines(keepends=True),
                fromfile=SNAPSHOT.name,
                tofile="live surface",
            )
        )
        print(
            f"\nAPI surface drifted from {SNAPSHOT.name}; if intentional, "
            "regenerate with: PYTHONPATH=src python tools/api_surface.py "
            f"> {SNAPSHOT.name}"
        )
        return 1
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
