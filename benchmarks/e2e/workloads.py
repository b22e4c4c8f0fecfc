"""The benchmark's workloads: what each one runs and why.

This module holds data only and imports nothing from ``repro``, so a
child process can time ``import repro`` itself.  Each workload is one
user operation run through the public API (``repro.Experiment``,
``repro.resume``, ``repro serve``/``repro work``); ``child.py`` turns a
:class:`Workload` into that operation.

Sizes are chosen so that one operation takes about half a second of
host time on a 2-core host (a sweep, about a second): a run of
``--seconds 10`` then gets a dozen fresh-process repetitions, enough for
its best one to fall in a quiet stretch of a shared host (see
README.md).  ``smoke`` sizes exist for the self-test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping

#: Pool workers for ``sweep`` (and ``repro work`` agents for ``service``):
#: the core count of the host the benchmark was defined on.  Fixed, not
#: ``os.cpu_count()``, so the load is the same on every host.
SWEEP_WORKERS = 2

#: The Table 4-1-style grid both sweep workloads regenerate.
SWEEP_GRID: Dict[str, tuple] = {
    "protocol": ("twobit", "fullmap"),
    "q": (0.01, 0.05, 0.10),
    "n_processors": (2, 4, 8, 16),
}
SWEEP_GRID_SMOKE: Dict[str, tuple] = {
    "protocol": ("twobit", "fullmap"),
    "q": (0.05,),
    "n_processors": (2, 4),
}


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Attributes:
        name: the ``--workload`` name.
        kind: how ``child.py`` drives it: ``run`` (``Experiment.run``),
            ``replay`` (trace replay with checkpoints, then ``resume``),
            ``sweep`` (local process pool) or ``service`` (loopback
            ``repro serve`` fleet).
        why: one line on what the workload exercises.
        experiment: ``Experiment`` keyword arguments (no seed: the seed
            comes from ``--seed``).
        full / smoke: size arguments merged into ``experiment``.
        run: extra ``Experiment.run`` keyword arguments.
    """

    name: str
    kind: str
    why: str
    experiment: Mapping[str, Any]
    full: Mapping[str, Any]
    smoke: Mapping[str, Any]
    run: Mapping[str, Any] = field(default_factory=dict)

    def experiment_kwargs(self, seed: int, smoke: bool) -> Dict[str, Any]:
        return {
            **self.experiment,
            **(self.smoke if smoke else self.full),
            "seed": seed,
        }


_MIXED = {
    "protocol": "twobit",
    "n_processors": 4,
    "n_modules": 2,
    "network": "xbar",
    "q": 0.05,
    "w": 0.2,
}

#: The machine whose run ``replay`` records once per invocation (the
#: fixture) and then replays as ``workload="trace:<path>"``.
REPLAY_SOURCE = {
    "protocol": "twobit",
    "n_processors": 8,
    "n_modules": 2,
    "q": 0.05,
    "w": 0.3,
}


def replay_checkpoint_every(smoke: bool) -> int:
    """Cycles between checkpoints of the replay: several per run."""
    return 100 if smoke else 1000


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="mixed",
            kind="run",
            why="the headline machine: twobit n=4 xbar q=0.05 w=0.2; "
            "hits plus a 3% miss path through directory, network, memory",
            experiment=_MIXED,
            full={"refs_per_proc": 6000, "warmup_refs": 250},
            smoke={"refs_per_proc": 400, "warmup_refs": 50},
        ),
        Workload(
            name="hits",
            kind="run",
            why="n=1 with 16 private blocks: only the hit path runs, so "
            "it is the control for any miss-path change",
            experiment={
                "protocol": "twobit",
                "n_processors": 1,
                "n_modules": 1,
                "q": 0.0,
                "private_blocks_per_proc": 16,
                "workload": "dubois:locality=0.6",
            },
            full={"refs_per_proc": 40_000, "warmup_refs": 250},
            smoke={"refs_per_proc": 2000, "warmup_refs": 50},
        ),
        Workload(
            name="broadcast",
            kind="run",
            why="twobit n=32 on a delta network, q=0.2 w=0.5: dense "
            "BROADINV/BROADQUERY fan-out, link contention and snoops",
            experiment={
                "protocol": "twobit",
                "n_processors": 32,
                "n_modules": 4,
                "network": "delta",
                "q": 0.2,
                "w": 0.5,
                "private_blocks_per_proc": 64,
            },
            full={"refs_per_proc": 150, "warmup_refs": 50},
            smoke={"refs_per_proc": 20, "warmup_refs": 10},
        ),
        Workload(
            name="instrumented",
            kind="run",
            why="the mixed machine with the observability hub attached: "
            "the only workload where obs probes do work",
            experiment=_MIXED,
            full={"refs_per_proc": 3000, "warmup_refs": 250},
            smoke={"refs_per_proc": 400, "warmup_refs": 50},
            run={"instrument": True},
        ),
        Workload(
            name="replay",
            kind="replay",
            why="replays a recorded trace with checkpoints, then resumes "
            "the last one: trace parsing, demux and checkpoint save/load",
            experiment={"protocol": "twobit", "n_modules": 2},
            full={"refs_per_proc": 700, "warmup_refs": 70},
            smoke={"refs_per_proc": 150, "warmup_refs": 20},
        ),
        Workload(
            name="sweep",
            kind="sweep",
            why="a cold 24-point Table 4-1-style grid on a 2-worker local "
            "pool: process fan-out, pickling and result-cache writes",
            experiment={"w": 0.3},
            full={"refs_per_proc": 100, "warmup_refs": 25},
            smoke={"refs_per_proc": 60, "warmup_refs": 10},
        ),
        Workload(
            name="service",
            kind="service",
            why="the same grid through a loopback repro serve with 2 "
            "repro work agents: HTTP, wire encoding and lease polling",
            experiment={"w": 0.3},
            full={"refs_per_proc": 100, "warmup_refs": 25},
            smoke={"refs_per_proc": 60, "warmup_refs": 10},
        ),
    )
}


def sweep_grid(smoke: bool) -> Dict[str, list]:
    """The sweep axes as ``Experiment.sweep`` takes them."""
    grid = SWEEP_GRID_SMOKE if smoke else SWEEP_GRID
    return {axis: list(values) for axis, values in grid.items()}
