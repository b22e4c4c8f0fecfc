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

A family's ``key=value`` options are the keyword parameters of the
callable it configures (a workload constructor, or
:func:`~repro.workloads.synthetic.hot_cold_scripts`), read from its
signature and coerced by :func:`repro.options.parse_options`;
:func:`workload_options` lists them.  A parameter that shares its name
with a :class:`WorkloadContext` field takes the context's value unless
the spec sets it.  :class:`~repro.api.Experiment` fills the context
from its own parameters, which is what makes
``Experiment(workload="dubois:low")`` build the identical machine to
the legacy ``Experiment(q=0.01, w=0.2)`` path.  ``n_processors`` has no
default in any signature, so it always comes from the machine and is
never an option.
"""

from __future__ import annotations

import inspect
import os
from dataclasses import dataclass, fields
from functools import partial
from typing import Any, Callable, Dict, Optional, Tuple, Union

from repro.options import parse_options
from repro.workloads.locks import LockContentionWorkload
from repro.workloads.migration import MigratingWorkload
from repro.workloads.synthetic import (
    HIGH_SHARING,
    LOW_SHARING,
    MODERATE_SHARING,
    DuboisBriggsWorkload,
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
    "workload_options",
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


#: A family's positional-argument rule: ``arg`` -> (the callable its
#: ``key=value`` options configure, the keyword arguments ``arg`` fixes).
Target = Callable[
    [Optional[str]], Tuple[Callable[..., Workload], Dict[str, Any]]
]


@dataclass(frozen=True)
class WorkloadSpec:
    """One registered workload family."""

    name: str
    aliases: Tuple[str, ...]
    description: str
    target: Target


_SHARING_LEVELS = {
    level.name: level for level in (LOW_SHARING, MODERATE_SHARING, HIGH_SHARING)
}

#: Constructor parameters the caller's context fills by name.
_CONTEXT = tuple(f.name for f in fields(WorkloadContext))


def _dubois(arg: Optional[str]):
    if not arg:
        return DuboisBriggsWorkload, {}
    level = _SHARING_LEVELS.get(arg)
    if level is None:
        raise WorkloadSpecError(
            f"workload 'dubois': unknown sharing level {arg!r} "
            f"(known: {', '.join(sorted(_SHARING_LEVELS))})"
        )
    return DuboisBriggsWorkload, {"q": level.q, "w": level.w}


def _options_only(name: str, cls: Callable[..., Workload]) -> Target:
    def target(arg: Optional[str]):
        if arg:
            raise WorkloadSpecError(
                f"workload {name!r} takes only key=value options"
            )
        return cls, {}

    return target


def _trace(arg: Optional[str]):
    if not arg:
        raise WorkloadSpecError(
            "workload 'trace' needs a file path: trace:path/to.trace"
        )
    if not os.path.exists(arg):
        raise WorkloadSpecError(f"workload 'trace': no such trace file {arg!r}")
    return partial(StreamingTraceWorkload, arg), {}


def _stressor(path: str) -> Workload:
    from repro.workloads.adversarial import load_stressor

    return load_stressor(path).workload()


def _scripted(arg: Optional[str]):
    if not arg:
        raise WorkloadSpecError(
            "workload 'scripted' needs a script name or stressor file: "
            "scripted:hot_cold or scripted:stressor.json"
        )
    if arg.endswith(".json"):
        return partial(_stressor, arg), {}
    if arg == "hot_cold":
        return hot_cold_scripts, {}
    raise WorkloadSpecError(
        f"workload 'scripted': unknown script {arg!r} "
        "(known: hot_cold, or a promoted-stressor .json path)"
    )


WORKLOADS: Dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            name="dubois",
            aliases=("dubois-briggs", "db"),
            description="the paper's two-stream private/shared model (§4.2)",
            target=_dubois,
        ),
        WorkloadSpec(
            name="uniform",
            aliases=(),
            description="uniform random references over one flat pool",
            target=_options_only("uniform", UniformWorkload),
        ),
        WorkloadSpec(
            name="trace",
            aliases=(),
            description="streaming replay of a recorded trace file",
            target=_trace,
        ),
        WorkloadSpec(
            name="scripted",
            aliases=(),
            description="fixed per-processor scripts (finite streams)",
            target=_scripted,
        ),
        WorkloadSpec(
            name="locks",
            aliases=("lock-contention",),
            description="§2.2 semaphore contention (test-and-set ping-pong)",
            target=_options_only("locks", LockContentionWorkload),
        ),
        WorkloadSpec(
            name="migration",
            aliases=(),
            description="two-stream model with migrating processes (§2.2)",
            target=_options_only("migration", MigratingWorkload),
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


def _bind(spec: str, ctx: Optional[WorkloadContext]):
    """Split ``spec`` and resolve its family's target.

    Returns the family, the target, the keyword arguments the context
    and the positional argument fix, the target's options (name ->
    signature default) and the spec's ``key=value`` pairs.
    """
    ctx = ctx or WorkloadContext()
    spec = spec.strip()
    if not spec:
        raise WorkloadSpecError("empty workload spec")
    name, _, rest = spec.partition(":")
    family = resolve(name.strip())
    arg: Optional[str] = None
    pairs: Dict[str, str] = {}
    if rest:
        for i, part in enumerate(p.strip() for p in rest.split(",")):
            if "=" in part:
                key, _, value = part.partition("=")
                pairs[key.strip()] = value
            elif i == 0 and part:
                arg = part
            else:
                raise WorkloadSpecError(
                    f"workload {name!r}: malformed option {part!r} "
                    "(expected key=value)"
                )
    target, fixed = family.target(arg)
    params = inspect.signature(target).parameters
    kwargs = {key: getattr(ctx, key) for key in params if key in _CONTEXT}
    kwargs.update(fixed)
    options = {
        key: p.default for key, p in params.items() if p.default is not p.empty
    }
    return family, target, kwargs, options, pairs


def workload_options(
    spec: str, ctx: Optional[WorkloadContext] = None
) -> Dict[str, Any]:
    """The ``key=value`` options ``spec``'s family accepts, each with the
    value it takes when the spec does not set it."""
    _, _, kwargs, options, _ = _bind(spec, ctx)
    return {key: kwargs.get(key, default) for key, default in options.items()}


def parse_workload(
    spec: str, ctx: Optional[WorkloadContext] = None
) -> Workload:
    """Build a workload from a spec string (see module docstring)."""
    family, target, kwargs, options, pairs = _bind(spec, ctx)
    try:
        kwargs.update(parse_options(pairs, options))
        return target(**kwargs)
    except WorkloadSpecError:
        raise
    except ValueError as exc:  # an unknown option, a bad value, or q=2
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
