"""Bounded explicit-state model checker for the coherence protocols.

Drives the real event kernel — not an abstraction of it — through every
schedulable interleaving of a small scripted configuration, for any
registered protocol.  The only nondeterminism the kernel has is the
order of same-cycle events, so the checker enumerates exactly that: at
each *decision point* (more than one event enabled) it explores every
choice index depth-first, replaying the deterministic prefix from a
fresh machine each time.  The search replays rather than snapshotting
machines (which checkpoint fine) because its output is schedules: a
counterexample is a list of choice indices that ``repro check --replay``
must reproduce from a fresh machine, and replay is what proves it does.
Snapshotting each decision state is ROADMAP item 4(b).

Checked properties:

* **Coherence** — the oracle's read invariant, checked inline at every
  read (a strict oracle raises mid-run);
* **Quiescent audit** — the full :func:`audit_machine` invariant set at
  every terminal (drained) state;
* **Deadlock freedom** — no enabled event while a processor still has
  work implies a lost transaction;
* **Livelock freedom** — a step bound per schedule (the configurations
  are finite, so any run exceeding it is cycling);
* **Crash freedom** — any protocol-internal exception under a legal
  interleaving is a bug and becomes a counterexample.

Machine states (see :func:`~repro.verification.state.machine_state`)
prune interleavings that converge to an already-explored state, and the
visited set is only consulted in *extension territory* — past the
replayed prefix — so prefix replays are never self-pruned.

On failure the offending schedule is shrunk (shortest failing prefix,
then greedy reset of choices to the default order) and returned with a
full event trace, reproducible via ``repro check --replay``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.config import MachineConfig, ProtocolOptions
from repro.faults.inject import attach_faults
from repro.faults.plan import FaultSpec
from repro.obs.attach import instrument_machine
from repro.obs.export import chrome_trace_events
from repro.protocols import registry
from repro.verification.audit import audit_machine
from repro.verification.oracle import CoherenceViolation
from repro.verification.schedules import describe_entry, format_schedule
from repro.verification.state import machine_state
from repro.workloads.reference import MemRef, Op
from repro.workloads.synthetic import ScriptedWorkload


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Scenario:
    """One small scripted configuration to exhaust."""

    name: str
    #: Per-processor op scripts, e.g. ``["R0 W0", "W0 R0"]`` (see
    #: :func:`parse_script`).
    scripts: Tuple[Tuple[MemRef, ...], ...]
    #: Cache geometry (tiny defaults; (1, 1) forces evictions).
    cache_sets: int = 2
    cache_assoc: int = 2
    #: Protocol design-choice overrides (None = the corrected defaults).
    #: Lets a scenario open race windows the safe defaults close early,
    #: e.g. disabling the preemptive MREQUEST scrub.
    options: Optional[ProtocolOptions] = None

    @property
    def n_processors(self) -> int:
        return len(self.scripts)

    @property
    def n_blocks(self) -> int:
        return max(r.block for script in self.scripts for r in script) + 1


def parse_script(pid: int, text: str) -> Tuple[MemRef, ...]:
    """``"R0 W1"`` -> refs for ``pid`` (always shared: coherence traffic)."""
    refs = []
    for token in text.split():
        op = Op.parse(token[0])
        refs.append(MemRef(pid=pid, op=op, block=int(token[1:]), shared=True))
    return tuple(refs)


def make_scenario(name: str, *scripts: str, **kwargs) -> Scenario:
    return Scenario(
        name=name,
        scripts=tuple(parse_script(pid, s) for pid, s in enumerate(scripts)),
        **kwargs,
    )


#: The acceptance configuration: 2 processors, 1 block, 3 ops each,
#: chosen to force the §3.2.4/§3.2.5 races (both caches reach "write hit
#: on unmodified" states that race with the other's invalidations).
SMOKE_SCENARIO = make_scenario("smoke-2p1b", "R0 W0 W0", "W0 R0 W0")

#: Deeper configurations for the slow tier: cross-block traffic, a third
#: processor, and a 1-frame cache that forces eject/write-back races.
DEEP_SCENARIOS = (
    SMOKE_SCENARIO,
    make_scenario("2p2b", "W0 R1 W1 R0", "W1 R0 W0 R1"),
    make_scenario("3p1b", "W0 R0 W0", "R0 W0 R0", "W0 W0 R0"),
    make_scenario(
        "evict-1frame", "W0 R1 W0", "R0 W1 R0", cache_sets=1, cache_assoc=1
    ),
    # §3.2.5 MREQ_CANCEL late race: caches 0 and 1 both end up with
    # clean copies and racing MREQUESTs (the third processor's read
    # keeps the home busy long enough for both writes to overlap).  The
    # loser converts on the winner's BROADINV and sends a cancel that —
    # with the preemptive queue scrub disabled, the design-1 variant —
    # can land while the stale MREQUEST is queued, dispatching, or the
    # active transaction: the full hierarchy the `cancelled` flag and
    # cancel markers retire.
    make_scenario(
        "mreq-cancel-late",
        "R0 W0",
        "R0 W0",
        "R0",
        options=ProtocolOptions(scrub_queued_mrequests=False),
    ),
)

DEPTHS: Dict[str, Tuple[Scenario, ...]] = {
    "smoke": (SMOKE_SCENARIO,),
    "deep": DEEP_SCENARIOS,
}


def scenarios_for(depth: str) -> Tuple[Scenario, ...]:
    try:
        return DEPTHS[depth]
    except KeyError:
        raise ValueError(
            f"unknown depth {depth!r}; choose from {sorted(DEPTHS)}"
        ) from None


def random_scenario(seed: int, n_processors: int = 2, n_ops: int = 3) -> Scenario:
    """A seed-derived scripted scenario (``repro check --seed``)."""
    import random as _random

    rng = _random.Random(f"model-check-{seed}")
    scripts = []
    for pid in range(n_processors):
        refs = tuple(
            MemRef(
                pid=pid,
                op=Op.WRITE if rng.random() < 0.5 else Op.READ,
                block=rng.randrange(2),
                shared=True,
            )
            for _ in range(n_ops)
        )
        scripts.append(refs)
    return Scenario(name=f"seed-{seed}", scripts=tuple(scripts))


def build_scenario_machine(
    protocol: str,
    scenario: Scenario,
    network: Optional[str] = None,
    faults: Union[FaultSpec, str, None] = None,
):
    """Fresh machine wired for ``scenario`` (deterministic tie-break).

    ``faults`` attaches a fault plan (a spec or plan text, see
    :func:`~repro.faults.inject.attach_faults`); its injected choices
    are a pure function of the spec seed and the event schedule, so
    schedule replays (and shrunk counterexamples) stay bit-identical.
    """
    # NOTE: imported here, not at module scope — the system builder
    # imports the component classes whose modules import this package
    # back through repro.verification's __init__.
    from repro.system.builder import build_machine

    spec = registry.resolve(protocol)
    config = MachineConfig(
        n_processors=scenario.n_processors,
        n_modules=1,
        n_blocks=scenario.n_blocks,
        cache_sets=scenario.cache_sets,
        cache_assoc=scenario.cache_assoc,
        protocol=spec.name,
        network=network or spec.default_network(),
        strict_coherence=True,
        tie_seed=None,  # schedule choice replaces randomized tie-break
        options=scenario.options or ProtocolOptions(),
    )
    workload = ScriptedWorkload([list(s) for s in scenario.scripts])
    machine = build_machine(config, workload)
    if faults is not None:
        attach_faults(machine, faults)
    return machine


# ----------------------------------------------------------------------
# Replay
# ----------------------------------------------------------------------
@dataclass
class RunOutcome:
    """Result of replaying one schedule (prefix + default extension)."""

    status: str  # ok | pruned | violation | crash | deadlock | livelock | audit
    decisions: List[Tuple[int, int]]  # (chosen, n_choices) per decision
    detail: str = ""
    steps: int = 0
    trace: List[str] = field(default_factory=list)

    @property
    def schedule(self) -> List[int]:
        return [chosen for chosen, _ in self.decisions]

    @property
    def failed(self) -> bool:
        return self.status not in ("ok", "pruned")


def replay_schedule(
    machine: Machine,
    scenario: Scenario,
    prefix: Union[Sequence[int], Callable[[int], int]],
    visited: Optional[set] = None,
    max_steps: int = 4000,
    collect_trace: bool = False,
) -> RunOutcome:
    """Run ``machine`` taking ``prefix`` choices, then default order.

    ``prefix`` may instead be a chooser: a callable that gets the number
    of enabled events at every decision point and returns the index to
    take, so it decides the whole walk (the adversarial hunter's seeded
    random probes).  ``visited`` (when given) prunes at decision points
    whose machine state was already explored — but only past a sequence
    prefix, so the deterministic replay of an earlier run is never cut
    short.
    """
    choose = prefix if callable(prefix) else None
    sim = machine.sim
    for proc, script in zip(machine.processors, scenario.scripts):
        proc.budget = len(script)
        proc.resume()
    decisions: List[Tuple[int, int]] = []
    trace: List[str] = []
    steps = 0
    while True:
        choices = sim.enabled()
        if not choices:
            break
        if len(choices) == 1:
            idx = 0
        else:
            depth = len(decisions)
            if choose is not None:
                idx = choose(len(choices))
            elif depth < len(prefix):
                idx = prefix[depth]
                if idx >= len(choices):
                    raise ValueError(
                        f"schedule mismatch at decision {depth}: choice "
                        f"{idx} of {len(choices)} enabled events"
                    )
            else:
                if visited is not None:
                    state = machine_state(machine)
                    if state in visited:
                        return RunOutcome(
                            "pruned", decisions, steps=steps, trace=trace
                        )
                    visited.add(state)
                idx = 0
            decisions.append((idx, len(choices)))
        if collect_trace:
            marker = (
                f"[{len(decisions) - 1}:{idx}/{len(choices)}] "
                if len(choices) > 1
                else ""
            )
            trace.append(f"{marker}{describe_entry(choices[idx])}")
        steps += 1
        if steps > max_steps:
            return RunOutcome(
                "livelock",
                decisions,
                detail=f"exceeded {max_steps} events without draining",
                steps=steps,
                trace=trace,
            )
        try:
            sim.step_select(idx)
        except CoherenceViolation as exc:
            return RunOutcome(
                "violation", decisions, detail=str(exc), steps=steps,
                trace=trace,
            )
        except Exception as exc:  # protocol crash under a legal schedule
            return RunOutcome(
                "crash",
                decisions,
                detail=f"{type(exc).__name__}: {exc}",
                steps=steps,
                trace=trace,
            )
    stuck = [p.name for p in machine.processors if not p.drained]
    if stuck:
        return RunOutcome(
            "deadlock",
            decisions,
            detail=f"no enabled events but {stuck} still have work",
            steps=steps,
            trace=trace,
        )
    report = audit_machine(machine)
    if not report.ok:
        return RunOutcome(
            "audit",
            decisions,
            detail="; ".join(report.violations[:5]),
            steps=steps,
            trace=trace,
        )
    return RunOutcome("ok", decisions, steps=steps, trace=trace)


# ----------------------------------------------------------------------
# Exhaustive exploration
# ----------------------------------------------------------------------
@dataclass
class Counterexample:
    """A failing schedule, minimized and replayable."""

    protocol: str
    scenario: str
    status: str
    detail: str
    schedule: List[int]
    trace: List[str]
    #: Chrome trace events captured during the final (minimized) replay,
    #: exportable with :meth:`write_chrome_trace`.
    trace_events: List[dict] = field(default_factory=list)

    def write_chrome_trace(self, path) -> int:
        """Write the minimized replay as a Perfetto-loadable trace."""
        trace = {
            "traceEvents": self.trace_events,
            "displayTimeUnit": "ms",
            "otherData": {
                "protocol": self.protocol,
                "scenario": self.scenario,
                "schedule": format_schedule(self.schedule),
                "status": self.status,
                "clock": "1 cycle = 1 us",
            },
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(trace, handle, indent=1)
            handle.write("\n")
        return len(self.trace_events)

    def render(self) -> str:
        lines = [
            f"counterexample: {self.status} in protocol={self.protocol} "
            f"scenario={self.scenario}",
            f"  detail:   {self.detail}",
            f"  schedule: {format_schedule(self.schedule)}",
            f"  reproduce: repro check --protocol {self.protocol} "
            f"--scenario {self.scenario} --replay "
            f"{format_schedule(self.schedule)}",
            "  trace:",
        ]
        lines.extend(f"    {line}" for line in self.trace)
        return "\n".join(lines)


@dataclass
class ModelCheckResult:
    """Outcome of exploring one (protocol, scenario) pair."""

    protocol: str
    scenario: str
    schedules_run: int
    states_seen: int
    max_decisions: int
    exhausted: bool
    counterexample: Optional[Counterexample] = None

    @property
    def ok(self) -> bool:
        return self.counterexample is None

    def summary(self) -> str:
        verdict = (
            "FAIL"
            if not self.ok
            else ("PASS (exhausted)" if self.exhausted else "PASS (bounded)")
        )
        return (
            f"{self.protocol:<14} {self.scenario:<14} "
            f"schedules={self.schedules_run:<6} states={self.states_seen:<6} "
            f"depth<={self.max_decisions:<3} {verdict}"
        )


#: Optional machine mutator applied after build — the fault-injection
#: hook the regression tests use to prove the checker catches bugs.
Mutator = Callable[["Machine"], None]


def explore(
    protocol: str,
    scenario: Scenario,
    max_schedules: int = 20_000,
    max_steps: int = 4000,
    mutate: Optional[Mutator] = None,
    prune: bool = True,
    faults: Optional[FaultSpec] = None,
) -> ModelCheckResult:
    """Depth-first exhaustive exploration of one scenario.

    With ``faults``, the injector's choices (delay, duplication, stall
    windows) become part of each explored branch: delayed/duplicated
    deliveries are ordinary schedulable events, so the checker searches
    protocol interleavings *under* the fault plan, and counterexamples
    shrink and replay exactly as in the fault-free mode.
    """

    def fresh() -> Machine:
        machine = build_scenario_machine(protocol, scenario, faults=faults)
        if mutate is not None:
            mutate(machine)
        return machine

    visited: Optional[set] = set() if prune else None
    prefix: List[int] = []
    runs = 0
    max_decisions = 0
    truncated = False
    while True:
        outcome = replay_schedule(
            fresh(), scenario, prefix, visited=visited, max_steps=max_steps
        )
        runs += 1
        max_decisions = max(max_decisions, len(outcome.decisions))
        if outcome.failed:
            counter, trace_events = _minimize(
                fresh, scenario, outcome, max_steps=max_steps
            )
            return ModelCheckResult(
                protocol=registry.canonical_name(protocol),
                scenario=scenario.name,
                schedules_run=runs,
                states_seen=len(visited) if visited is not None else 0,
                max_decisions=max_decisions,
                exhausted=False,
                counterexample=Counterexample(
                    protocol=registry.canonical_name(protocol),
                    scenario=scenario.name,
                    status=counter.status,
                    detail=counter.detail,
                    schedule=counter.schedule,
                    trace=counter.trace,
                    trace_events=trace_events,
                ),
            )
        nxt = _next_prefix(outcome.decisions)
        if nxt is None or runs >= max_schedules:
            truncated = nxt is not None
            break
        prefix = nxt
    return ModelCheckResult(
        protocol=registry.canonical_name(protocol),
        scenario=scenario.name,
        schedules_run=runs,
        states_seen=len(visited) if visited is not None else 0,
        max_decisions=max_decisions,
        exhausted=not truncated,
    )


def _next_prefix(decisions: List[Tuple[int, int]]) -> Optional[List[int]]:
    """Deepest incrementable decision -> the next DFS prefix."""
    for depth in range(len(decisions) - 1, -1, -1):
        chosen, n_choices = decisions[depth]
        if chosen + 1 < n_choices:
            return [c for c, _ in decisions[:depth]] + [chosen + 1]
    return None


def _minimize(
    fresh: Callable[[], Machine],
    scenario: Scenario,
    outcome: RunOutcome,
    max_steps: int,
) -> Tuple[RunOutcome, List[dict]]:
    """Shrink a failing schedule; returns a failing outcome with trace.

    Two greedy passes: (1) shortest failing prefix — replay ever-shorter
    prefixes with default extension and keep the first that still fails;
    (2) reset each remaining non-zero choice to the default order where
    the failure survives.  Finally the trace is (re)collected, with the
    final replay instrumented so the counterexample carries Chrome trace
    events alongside the textual trace.
    """
    best = list(outcome.schedule)

    def still_fails(candidate: List[int]) -> Optional[RunOutcome]:
        result = replay_schedule(
            fresh(), scenario, candidate, visited=None, max_steps=max_steps
        )
        return result if result.failed else None

    for length in range(len(best) + 1):
        shorter = still_fails(best[:length])
        if shorter is not None:
            best = list(shorter.schedule)
            break
    for i in range(len(best)):
        if best[i] == 0:
            continue
        candidate = best[:i] + [0] + best[i + 1:]
        if still_fails(candidate) is not None:
            best = candidate
    while best and best[-1] == 0:
        best.pop()
    machine = fresh()
    obs = instrument_machine(machine, sample_interval=0, keep_events=True)
    final = replay_schedule(
        machine,
        scenario,
        best,
        visited=None,
        max_steps=max_steps,
        collect_trace=True,
    )
    assert final.failed, "minimized schedule no longer fails"
    return final, chrome_trace_events(obs)


def check_protocol(
    protocol: str,
    depth: str = "smoke",
    scenarios: Optional[Sequence[Scenario]] = None,
    max_schedules: int = 20_000,
    max_steps: int = 4000,
    mutate: Optional[Mutator] = None,
    faults: Optional[FaultSpec] = None,
) -> List[ModelCheckResult]:
    """Explore every scenario of ``depth`` for one protocol."""
    chosen = tuple(scenarios) if scenarios is not None else scenarios_for(depth)
    return [
        explore(
            protocol,
            scenario,
            max_schedules=max_schedules,
            max_steps=max_steps,
            mutate=mutate,
            faults=faults,
        )
        for scenario in chosen
    ]


def check_all(
    depth: str = "smoke",
    protocols: Optional[Sequence[str]] = None,
    max_schedules: int = 20_000,
    max_steps: int = 4000,
    faults: Optional[FaultSpec] = None,
) -> List[ModelCheckResult]:
    """Explore every registered protocol at ``depth``."""
    names = (
        tuple(protocols)
        if protocols is not None
        else registry.protocol_names()
    )
    results: List[ModelCheckResult] = []
    for name in names:
        results.extend(
            check_protocol(
                name,
                depth,
                max_schedules=max_schedules,
                max_steps=max_steps,
                faults=faults,
            )
        )
    return results
