"""Coverage-guided adversarial workload search.

The synthetic workloads in this package model *average* behaviour (the
paper's §4 two-stream model); this module searches for *worst-case*
behaviour.  A seeded, coverage-guided mutation loop drives the model
checker's scenario machinery (:mod:`repro.verification.model_check`)
with short per-processor scripts.  Each probe is one seeded random walk
through :func:`~repro.verification.model_check.replay_schedule`, so it
ends with the checker's quiescent audit.  The loop keeps the candidates
that maximise a stress objective — useless broadcast commands per
reference, NAK/retry storms under a fault plan, or end-to-end reference
latency.

Everything is deterministic given the seed: the same ``hunt`` call
produces the same corpus, the same best stressor, and a schedule that
:func:`repro.verification.model_check.replay_schedule` replays
bit-identically.  Winners are promoted to JSON "stressor" files that the
workload registry understands (``--workload scripted:path.json``) and
that :func:`load_stressor` turns back into scenarios for exact replay.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.atomic import atomic_write
from repro.workloads.reference import MemRef, Op
from repro.workloads.synthetic import HIGH_SHARING, ScriptedWorkload


def _model_check():
    """Late import: the verification layer imports the protocol stack,
    which imports this package — a module-level import would cycle."""
    from repro.verification import model_check

    return model_check

STRESSOR_SCHEMA = "repro-stressor-v1"

Scripts = Tuple[Tuple[MemRef, ...], ...]


# ----------------------------------------------------------------------
# Objectives
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Objective:
    """A stress metric extracted from a drained machine."""

    name: str
    description: str
    #: machine -> score (higher = more stressful).
    score: Callable[[object], float]
    #: Does this objective only make sense under a fault plan?
    needs_faults: bool = False


def _score_broadcast(machine) -> float:
    return machine.results().extra_commands_per_ref


def _score_nak_retries(machine) -> float:
    results = machine.results()
    totals = results.totals
    naks = totals.get("naks_sent", 0) + totals.get("retries_scheduled", 0)
    return naks / max(results.total_refs, 1)


def _score_latency(machine) -> float:
    return machine.results().avg_latency


OBJECTIVES: Dict[str, Objective] = {
    "broadcast_overhead": Objective(
        name="broadcast_overhead",
        description="useless broadcast commands per cache per reference "
        "(the paper's Table 4-1 overhead metric)",
        score=_score_broadcast,
    ),
    "nak_retries": Objective(
        name="nak_retries",
        description="NAKs sent plus retries scheduled per reference "
        "(requires a fault plan on a NAK-capable protocol)",
        score=_score_nak_retries,
        needs_faults=True,
    ),
    "latency": Objective(
        name="latency",
        description="average completed-reference latency in cycles",
        score=_score_latency,
    ),
}


def objective_names() -> List[str]:
    return sorted(OBJECTIVES)


def resolve_objective(name: str) -> Objective:
    try:
        return OBJECTIVES[name]
    except KeyError:
        known = ", ".join(objective_names())
        raise ValueError(
            f"unknown objective {name!r} (known: {known})"
        ) from None


# ----------------------------------------------------------------------
# Stressors: promoted winners, JSON round-trippable
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Stressor:
    """A promoted adversarial candidate: scripts plus the schedule that
    maximised the objective, replayable bit-identically."""

    name: str
    protocol: str
    objective: str
    score: float
    baseline: float
    scripts: Scripts
    schedule: Tuple[int, ...]
    seed: int
    cache_sets: int = 2
    cache_assoc: int = 2
    faults: Optional[str] = None

    @property
    def gain(self) -> float:
        """Score relative to the Dubois-Briggs baseline (>1 = worse
        than the synthetic model's high-sharing point)."""
        return self.score / self.baseline if self.baseline else float("inf")

    def scenario(self):
        return _model_check().Scenario(
            name=self.name,
            scripts=self.scripts,
            cache_sets=self.cache_sets,
            cache_assoc=self.cache_assoc,
        )

    def workload(self) -> ScriptedWorkload:
        """The scripts as a plain workload (for ``--workload scripted:``)."""
        return ScriptedWorkload([list(s) for s in self.scripts])

    def replay(self, max_steps: int = 4000):
        """Re-run the recorded schedule; returns ``(outcome, score)``.

        Deterministic: the same stressor always yields the same outcome
        status, decision list, and score.
        """
        mc = _model_check()
        machine = mc.build_scenario_machine(
            self.protocol, self.scenario(), faults=self.faults
        )
        outcome = mc.replay_schedule(
            machine, self.scenario(), prefix=self.schedule,
            max_steps=max_steps,
        )
        objective = resolve_objective(self.objective)
        score = objective.score(machine) if outcome.status == "ok" else 0.0
        return outcome, score

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": STRESSOR_SCHEMA,
            "name": self.name,
            "protocol": self.protocol,
            "objective": self.objective,
            "score": self.score,
            "baseline": self.baseline,
            "scripts": [[str(r) for r in script] for script in self.scripts],
            "schedule": list(self.schedule),
            "seed": self.seed,
            "cache_sets": self.cache_sets,
            "cache_assoc": self.cache_assoc,
            "faults": self.faults,
        }

    @classmethod
    def from_dict(cls, raw: Dict[str, object]) -> "Stressor":
        schema = raw.get("schema")
        if schema != STRESSOR_SCHEMA:
            raise ValueError(
                f"not a stressor file: schema={schema!r} "
                f"(expected {STRESSOR_SCHEMA!r})"
            )
        scripts = tuple(
            tuple(MemRef.parse(line) for line in script)
            for script in raw["scripts"]
        )
        return cls(
            name=str(raw["name"]),
            protocol=str(raw["protocol"]),
            objective=str(raw["objective"]),
            score=float(raw["score"]),
            baseline=float(raw["baseline"]),
            scripts=scripts,
            schedule=tuple(int(i) for i in raw["schedule"]),
            seed=int(raw["seed"]),
            cache_sets=int(raw.get("cache_sets", 2)),
            cache_assoc=int(raw.get("cache_assoc", 2)),
            faults=raw.get("faults") or None,
        )


def promote(stressor: Stressor, path: str) -> str:
    """Write ``stressor`` to ``path`` as JSON (atomically); returns path."""
    with atomic_write(path, "w", encoding="ascii") as fh:
        json.dump(stressor.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def load_stressor(path: str) -> Stressor:
    with open(path, "r", encoding="ascii") as fh:
        return Stressor.from_dict(json.load(fh))


# ----------------------------------------------------------------------
# Candidate generation and mutation
# ----------------------------------------------------------------------
def _random_scripts(
    rng: random.Random, n_processors: int, script_len: int, n_blocks: int
) -> Scripts:
    """Write-heavy random scripts over a small block pool — the natural
    starting population for coherence stress."""
    scripts = []
    for pid in range(n_processors):
        script = []
        for _ in range(script_len):
            op = Op.WRITE if rng.random() < 0.5 else Op.READ
            script.append(
                MemRef(pid=pid, op=op, block=rng.randrange(n_blocks),
                       shared=True)
            )
        scripts.append(tuple(script))
    return tuple(scripts)


def _retag(script: Sequence[MemRef], pid: int) -> Tuple[MemRef, ...]:
    return tuple(
        MemRef(pid=pid, op=r.op, block=r.block, shared=True) for r in script
    )


def _mutate(
    scripts: Scripts,
    rng: random.Random,
    n_blocks: int,
    max_len: int,
    donor: Optional[Scripts] = None,
) -> Scripts:
    """One seeded mutation: flip an op, move a block, insert/delete/swap
    a ref, converge a processor on one hot block, or splice a tail from
    a donor corpus member."""
    out = [list(s) for s in scripts]
    pid = rng.randrange(len(out))
    script = out[pid]
    kind = rng.randrange(7 if donor is not None else 6)
    if kind == 0 and script:  # flip op
        i = rng.randrange(len(script))
        r = script[i]
        op = Op.READ if r.op is Op.WRITE else Op.WRITE
        script[i] = MemRef(pid=pid, op=op, block=r.block, shared=True)
    elif kind == 1 and script:  # move block
        i = rng.randrange(len(script))
        r = script[i]
        script[i] = MemRef(
            pid=pid, op=r.op, block=rng.randrange(n_blocks), shared=True
        )
    elif kind == 2 and len(script) < max_len:  # insert
        i = rng.randrange(len(script) + 1)
        op = Op.WRITE if rng.random() < 0.5 else Op.READ
        script.insert(
            i, MemRef(pid=pid, op=op, block=rng.randrange(n_blocks),
                      shared=True)
        )
    elif kind == 3 and len(script) > 1:  # delete
        del script[rng.randrange(len(script))]
    elif kind == 4 and len(script) > 1:  # swap
        i = rng.randrange(len(script))
        j = rng.randrange(len(script))
        script[i], script[j] = script[j], script[i]
    elif kind == 5 and script:  # hot-block convergence
        hot = rng.randrange(n_blocks)
        for i, r in enumerate(script):
            script[i] = MemRef(pid=pid, op=r.op, block=hot, shared=True)
    elif kind == 6 and donor is not None:  # crossover splice
        src = donor[rng.randrange(len(donor))]
        if src:
            cut = rng.randrange(len(src))
            tail = _retag(src[cut:], pid)
            script[:] = (script[: max(len(script) - len(tail), 1)]
                         + list(tail))[:max_len]
    out[pid] = script
    return tuple(tuple(s) for s in out)


# ----------------------------------------------------------------------
# The hunt
# ----------------------------------------------------------------------
@dataclass
class CorpusEntry:
    scripts: Scripts
    score: float
    schedule: Tuple[int, ...]
    new_coverage: int


@dataclass
class HuntResult:
    """Outcome of one :func:`hunt` call."""

    best: Stressor
    corpus: List[CorpusEntry]
    evaluations: int
    coverage: int
    baseline: float
    history: List[float] = field(default_factory=list)

    def summary(self) -> str:
        lines = [
            f"hunt: protocol={self.best.protocol} "
            f"objective={self.best.objective} seed={self.best.seed}",
            f"  evaluations : {self.evaluations}",
            f"  coverage    : {self.coverage} distinct state fingerprints",
            f"  corpus      : {len(self.corpus)} entries",
            f"  best score  : {self.best.score:.4f}",
            f"  baseline    : {self.baseline:.4f} "
            "(Dubois-Briggs HIGH_SHARING)",
            f"  gain        : {self.best.gain:.2f}x",
        ]
        return "\n".join(lines)


def dubois_baseline(
    protocol: str,
    objective: str = "broadcast_overhead",
    *,
    n_processors: int = 4,
    refs: int = 2000,
    warmup: int = 200,
    seed: int = 1984,
    faults: Optional[str] = None,
) -> float:
    """The objective measured on the paper's HIGH_SHARING synthetic
    point — the yardstick a stressor must beat to count as adversarial.
    """
    from repro.api import Experiment  # late: repro.api imports workloads

    obj = resolve_objective(objective)
    outcome = Experiment(
        protocol=protocol,
        n_processors=n_processors,
        refs_per_proc=refs,
        warmup_refs=warmup,
        seed=seed,
        q=HIGH_SHARING.q,
        w=HIGH_SHARING.w,
        faults=faults,
    ).run()
    return obj.score(outcome.machine)


_CORPUS_CAP = 64


def hunt(
    protocol: str = "twobit",
    objective: str = "broadcast_overhead",
    *,
    budget: int = 200,
    seed: int = 1984,
    n_processors: int = 4,
    script_len: int = 8,
    n_blocks: int = 4,
    probes: int = 2,
    cache_sets: int = 2,
    cache_assoc: int = 2,
    faults: Optional[str] = None,
    max_steps: int = 4000,
    baseline: Optional[float] = None,
    name: str = "hunted",
) -> HuntResult:
    """Coverage-guided search for workloads that maximise ``objective``.

    Seed-deterministic: every random choice (candidate generation,
    mutation, parent selection, schedule probes) derives from ``seed``,
    so two hunts with identical arguments produce identical corpora and
    best stressors.

    Args:
        protocol: protocol under attack.
        objective: key into :data:`OBJECTIVES`.
        budget: total schedule-probe evaluations to spend.
        seed: master seed.
        n_processors: processors per candidate scenario.
        script_len: initial refs per processor (mutation may grow a
            script up to twice this).
        n_blocks: block-pool size candidates draw from (small pools
            force conflict).
        probes: random schedules explored per candidate; the best one
            is the candidate's score.
        cache_sets, cache_assoc: scenario cache geometry.
        faults: fault plan text (canned name or ``key=value`` spec) —
            required by the ``nak_retries`` objective.
        max_steps: livelock bound per probe.
        baseline: pre-computed Dubois-Briggs baseline; computed via
            :func:`dubois_baseline` when None.
        name: name stamped on the promoted stressor.

    Returns:
        :class:`HuntResult`; ``result.best`` replays deterministically.
    """
    obj = resolve_objective(objective)
    if obj.needs_faults and faults is None:
        raise ValueError(
            f"objective {objective!r} needs a fault plan (pass faults=...)"
        )
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if n_blocks < 1 or script_len < 1 or probes < 1:
        raise ValueError("n_blocks, script_len and probes must be >= 1")
    from repro.verification.state import machine_state  # late: see _model_check

    if baseline is None:
        baseline = dubois_baseline(
            protocol, objective, n_processors=n_processors, seed=seed,
            faults=faults,
        )

    rng = random.Random(f"hunt-{seed}")
    max_len = 2 * script_len
    seen: Set[int] = set()
    corpus: List[CorpusEntry] = []
    history: List[float] = []
    evaluations = 0

    def evaluate(scripts: Scripts) -> Optional[CorpusEntry]:
        """Score a candidate by its best of ``probes`` seeded random
        schedule walks; each walk is one ``replay_schedule`` call whose
        chooser records the decision states it passes through."""
        nonlocal evaluations
        mc = _model_check()
        scenario = mc.Scenario(
            name=name, scripts=scripts, cache_sets=cache_sets,
            cache_assoc=cache_assoc,
        )
        best: Optional[Tuple[float, Tuple[int, ...]]] = None
        fresh: Set[int] = set()
        for _ in range(probes):
            evaluations += 1
            machine = mc.build_scenario_machine(
                protocol, scenario, faults=faults
            )
            states: Set[int] = set()

            def choose(n_choices: int) -> int:
                states.add(machine_state(machine))
                return rng.randrange(n_choices)

            # A crash, livelock, deadlock or failed audit scores nothing:
            # the search wants legal runs that are merely expensive.
            outcome = mc.replay_schedule(
                machine, scenario, choose, max_steps=max_steps
            )
            fresh |= states - seen
            if outcome.status == "ok":
                score = obj.score(machine)
                if best is None or score > best[0]:
                    best = (score, tuple(outcome.schedule))
        seen.update(fresh)
        if best is None:
            return None
        return CorpusEntry(scripts, best[0], best[1], len(fresh))

    def admit(entry: Optional[CorpusEntry]) -> None:
        if entry is None:
            return
        best_score = corpus[0].score if corpus else float("-inf")
        if entry.new_coverage == 0 and entry.score <= best_score:
            return
        corpus.append(entry)
        corpus.sort(key=lambda e: e.score, reverse=True)
        del corpus[_CORPUS_CAP:]

    # Seed population: a hot-block candidate (every processor hammering
    # block 0 with alternating writes — the known worst case for
    # broadcast schemes) plus random write-heavy candidates.
    hot = tuple(
        tuple(
            MemRef(pid=pid, op=(Op.WRITE if i % 2 == 0 else Op.READ),
                   block=0, shared=True)
            for i in range(script_len)
        )
        for pid in range(n_processors)
    )
    admit(evaluate(hot))
    while evaluations < min(budget, 4 * probes):
        admit(evaluate(
            _random_scripts(rng, n_processors, script_len, n_blocks)
        ))

    # Mutation loop: parents weighted by score, donors drawn from the
    # corpus for crossover.
    while evaluations < budget:
        if corpus:
            weights = [max(e.score, 1e-6) for e in corpus]
            parent = rng.choices(corpus, weights=weights, k=1)[0]
            donor = rng.choice(corpus).scripts if len(corpus) > 1 else None
            child = _mutate(parent.scripts, rng, n_blocks, max_len, donor)
        else:
            child = _random_scripts(rng, n_processors, script_len, n_blocks)
        admit(evaluate(child))
        history.append(corpus[0].score if corpus else 0.0)

    if not corpus:
        raise RuntimeError(
            "hunt found no legal candidate within budget "
            f"({evaluations} evaluations, all probes failed)"
        )
    top = corpus[0]
    best = Stressor(
        name=name,
        protocol=protocol,
        objective=objective,
        score=top.score,
        baseline=baseline,
        scripts=top.scripts,
        schedule=top.schedule,
        seed=seed,
        cache_sets=cache_sets,
        cache_assoc=cache_assoc,
        faults=faults if isinstance(faults, str) else None,
    )
    return HuntResult(
        best=best,
        corpus=corpus,
        evaluations=evaluations,
        coverage=len(seen),
        baseline=baseline,
        history=history,
    )
