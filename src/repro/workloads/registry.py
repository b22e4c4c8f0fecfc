"""The WORKLOADS registry: named workload constructors + spec strings.

Mirrors :mod:`repro.protocols.registry`: every workload family the
simulator can drive is a :class:`WorkloadSpec` entry keyed by name (and
aliases), buildable from a compact *spec string* shared verbatim between
``Experiment(workload=...)`` and the CLI's ``--workload`` flag.

Spec grammar::

    name[:arg[,key=value]*]

where ``arg`` is the family's positional argument (a sharing level for
``dubois``, a file path for ``trace``, a script name or stressor JSON
for ``scripted``) and ``key=value`` pairs override generator knobs.
Examples::

    dubois                      the paper's two-stream model (ctx q/w)
    dubois:low                  LOW_SHARING (q=0.01, w=0.2)
    dubois:high,locality=0.9    HIGH_SHARING with a locality override
    uniform                     flat uniform stress pool
    uniform:n_blocks=64         ... over 64 blocks
    trace:runs/a.trace          streaming replay of a recorded trace
    trace:a.trace,max_lookahead=512
    scripted:hot_cold           canned hot-block stressor scripts
    scripted:found.json         a promoted adversarial stressor
    locks  /  migration         §2.2 lock-contention / migration models

Unparsable specs raise :class:`WorkloadSpecError` naming the offending
piece and the known families — never a bare KeyError.

Sizing knobs the workload does not define itself (``n_processors``,
``seed``, the legacy sharing kwargs) come from the
:class:`WorkloadContext` the caller supplies —
:class:`~repro.api.Experiment` fills it from its own parameters, which
is what makes ``Experiment(workload="dubois:low")`` build the identical
machine to the legacy ``Experiment(q=0.01, w=0.2)`` path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple, Union

from repro.workloads.locks import LockContentionWorkload
from repro.workloads.migration import MigratingWorkload
from repro.workloads.synthetic import (
    HIGH_SHARING,
    LOW_SHARING,
    MODERATE_SHARING,
    DuboisBriggsWorkload,
    ScriptedWorkload,
    UniformWorkload,
    Workload,
    hot_cold_scripts,
)
from repro.workloads.traces import StreamingTraceWorkload

__all__ = [
    "WORKLOADS",
    "WorkloadContext",
    "WorkloadSpec",
    "WorkloadSpecError",
    "make_workload",
    "parse_workload",
    "resolve",
    "workload_names",
]


class WorkloadSpecError(ValueError):
    """A workload spec string could not be parsed or resolved."""


@dataclass(frozen=True)
class WorkloadContext:
    """Experiment-level knobs a spec string inherits when not overridden."""

    n_processors: int = 4
    seed: int = 1984
    q: float = 0.05
    w: float = 0.2
    private_blocks_per_proc: int = 128


@dataclass(frozen=True)
class WorkloadSpec:
    """One registered workload family."""

    name: str
    aliases: Tuple[str, ...]
    description: str
    arg_help: str
    build: Callable[[WorkloadContext, Optional[str], Dict[str, str]], Workload]


_SHARING_LEVELS = {
    level.name: level for level in (LOW_SHARING, MODERATE_SHARING, HIGH_SHARING)
}


def _convert(spec_name: str, key: str, raw: str, conv: Callable) -> object:
    try:
        return conv(raw)
    except ValueError:
        raise WorkloadSpecError(
            f"workload {spec_name!r}: bad value {raw!r} for {key!r} "
            f"(expected {conv.__name__})"
        ) from None


def _apply_kv(
    spec_name: str,
    kv: Dict[str, str],
    allowed: Dict[str, Callable],
    out: Dict[str, object],
) -> Dict[str, object]:
    for key, raw in kv.items():
        conv = allowed.get(key)
        if conv is None:
            raise WorkloadSpecError(
                f"workload {spec_name!r}: unknown option {key!r} "
                f"(known: {', '.join(sorted(allowed))})"
            )
        out[key] = _convert(spec_name, key, raw, conv)
    return out


def _build_dubois(
    ctx: WorkloadContext, arg: Optional[str], kv: Dict[str, str]
) -> Workload:
    q, w = ctx.q, ctx.w
    if arg:
        level = _SHARING_LEVELS.get(arg)
        if level is None:
            raise WorkloadSpecError(
                f"workload 'dubois': unknown sharing level {arg!r} "
                f"(known: {', '.join(sorted(_SHARING_LEVELS))})"
            )
        q, w = level.q, level.w
    kwargs = _apply_kv(
        "dubois",
        kv,
        {
            "q": float,
            "w": float,
            "n_shared_blocks": int,
            "private_blocks_per_proc": int,
            "locality": float,
            "private_write_frac": float,
            "seed": int,
        },
        {
            "q": q,
            "w": w,
            "private_blocks_per_proc": ctx.private_blocks_per_proc,
            "seed": ctx.seed,
        },
    )
    return DuboisBriggsWorkload(n_processors=ctx.n_processors, **kwargs)


def _build_uniform(
    ctx: WorkloadContext, arg: Optional[str], kv: Dict[str, str]
) -> Workload:
    if arg:
        raise WorkloadSpecError(
            "workload 'uniform' takes only key=value options "
            "(n_blocks=, write_frac=, seed=)"
        )
    kwargs = _apply_kv(
        "uniform",
        kv,
        {"n_blocks": int, "write_frac": float, "seed": int},
        {"n_blocks": 256, "seed": ctx.seed},
    )
    return UniformWorkload(n_processors=ctx.n_processors, **kwargs)


def _build_trace(
    ctx: WorkloadContext, arg: Optional[str], kv: Dict[str, str]
) -> Workload:
    if not arg:
        raise WorkloadSpecError(
            "workload 'trace' needs a file path: trace:path/to.trace"
        )
    import os

    if not os.path.exists(arg):
        raise WorkloadSpecError(f"workload 'trace': no such trace file {arg!r}")
    kwargs = _apply_kv("trace", kv, {"max_lookahead": int}, {})
    return StreamingTraceWorkload(arg, **kwargs)


def _build_scripted(
    ctx: WorkloadContext, arg: Optional[str], kv: Dict[str, str]
) -> Workload:
    if not arg:
        raise WorkloadSpecError(
            "workload 'scripted' needs a script name or stressor file: "
            "scripted:hot_cold or scripted:stressor.json"
        )
    if arg.endswith(".json"):
        from repro.workloads.adversarial import load_stressor

        return load_stressor(arg).workload()
    if arg == "hot_cold":
        kwargs = _apply_kv(
            "scripted",
            kv,
            {"hot_block": int, "refs_per_proc": int, "write_every": int},
            {"hot_block": 0, "refs_per_proc": 64},
        )
        return hot_cold_scripts(n_processors=ctx.n_processors, **kwargs)
    raise WorkloadSpecError(
        f"workload 'scripted': unknown script {arg!r} "
        "(known: hot_cold, or a promoted-stressor .json path)"
    )


def _build_locks(
    ctx: WorkloadContext, arg: Optional[str], kv: Dict[str, str]
) -> Workload:
    if arg:
        raise WorkloadSpecError("workload 'locks' takes only key=value options")
    kwargs = _apply_kv(
        "locks",
        kv,
        {
            "n_locks": int,
            "protected_blocks_per_lock": int,
            "critical_section_refs": int,
            "think_refs": int,
            "think_blocks_per_proc": int,
            "seed": int,
        },
        {"seed": ctx.seed},
    )
    return LockContentionWorkload(n_processors=ctx.n_processors, **kwargs)


def _build_migration(
    ctx: WorkloadContext, arg: Optional[str], kv: Dict[str, str]
) -> Workload:
    if arg:
        raise WorkloadSpecError(
            "workload 'migration' takes only key=value options"
        )
    kwargs = _apply_kv(
        "migration",
        kv,
        {
            "migration_interval": int,
            "q": float,
            "w": float,
            "n_shared_blocks": int,
            "process_blocks": int,
            "private_write_frac": float,
            "seed": int,
        },
        {"q": ctx.q, "w": ctx.w, "seed": ctx.seed},
    )
    return MigratingWorkload(n_processors=ctx.n_processors, **kwargs)


WORKLOADS: Dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            name="dubois",
            aliases=("dubois-briggs", "db"),
            description="the paper's two-stream private/shared model (§4.2)",
            arg_help="sharing level: low | moderate | high",
            build=_build_dubois,
        ),
        WorkloadSpec(
            name="uniform",
            aliases=(),
            description="uniform random references over one flat pool",
            arg_help="(options only: n_blocks=, write_frac=, seed=)",
            build=_build_uniform,
        ),
        WorkloadSpec(
            name="trace",
            aliases=(),
            description="streaming replay of a recorded trace file",
            arg_help="path to a '# repro trace v1' file",
            build=_build_trace,
        ),
        WorkloadSpec(
            name="scripted",
            aliases=(),
            description="fixed per-processor scripts (finite streams)",
            arg_help="hot_cold, or a promoted-stressor .json path",
            build=_build_scripted,
        ),
        WorkloadSpec(
            name="locks",
            aliases=("lock-contention",),
            description="§2.2 semaphore contention (test-and-set ping-pong)",
            arg_help="(options only)",
            build=_build_locks,
        ),
        WorkloadSpec(
            name="migration",
            aliases=(),
            description="two-stream model with migrating processes (§2.2)",
            arg_help="(options only)",
            build=_build_migration,
        ),
    )
}

_ALIASES: Dict[str, str] = {}
for _spec in WORKLOADS.values():
    _ALIASES[_spec.name] = _spec.name
    for _alias in _spec.aliases:
        _ALIASES[_alias] = _spec.name


def workload_names() -> Tuple[str, ...]:
    """Canonical registered family names, sorted."""
    return tuple(sorted(WORKLOADS))


def resolve(name: str) -> WorkloadSpec:
    """Look up a family by name or alias."""
    canonical = _ALIASES.get(name)
    if canonical is None:
        raise WorkloadSpecError(
            f"unknown workload {name!r}; known: "
            + ", ".join(workload_names())
        )
    return WORKLOADS[canonical]


def parse_workload(
    spec: str, ctx: Optional[WorkloadContext] = None
) -> Workload:
    """Build a workload from a spec string (see module docstring)."""
    if ctx is None:
        ctx = WorkloadContext()
    spec = spec.strip()
    if not spec:
        raise WorkloadSpecError("empty workload spec")
    name, _, rest = spec.partition(":")
    family = resolve(name.strip())
    arg: Optional[str] = None
    kv: Dict[str, str] = {}
    if rest:
        parts = [p.strip() for p in rest.split(",")]
        for i, part in enumerate(parts):
            if "=" in part:
                key, _, value = part.partition("=")
                kv[key.strip()] = value.strip()
            elif i == 0 and part:
                arg = part
            else:
                raise WorkloadSpecError(
                    f"workload {name!r}: malformed option {part!r} "
                    "(expected key=value)"
                )
    try:
        return family.build(ctx, arg, kv)
    except WorkloadSpecError:
        raise
    except ValueError as exc:  # a constructor's range check, e.g. q=2
        raise WorkloadSpecError(f"workload {family.name!r}: {exc}") from exc


def make_workload(
    workload: Union[str, Workload, None],
    ctx: Optional[WorkloadContext] = None,
) -> Workload:
    """Resolve ``Experiment(workload=...)``'s accepted forms.

    ``None`` (the legacy default) builds the plain Dubois-Briggs model
    from the context — byte-identical to what ``Experiment.build`` has
    always constructed from the scattered sharing kwargs.  A string goes
    through :func:`parse_workload`; a :class:`Workload` instance is
    returned as-is.
    """
    if workload is None:
        return parse_workload("dubois", ctx)
    if isinstance(workload, Workload):
        return workload
    if isinstance(workload, str):
        return parse_workload(workload, ctx)
    raise TypeError(
        f"workload must be a spec string, Workload instance, or None; "
        f"got {type(workload).__name__}"
    )
