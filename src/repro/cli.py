"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run``      — simulate one machine and print results + audit verdict.
* ``trace``    — simulate with full telemetry and export a Perfetto trace.
* ``sweep``    — run a parameter grid (cached; inline, pool or service).
* ``report``   — comparative rollup over the cached sweep store.
* ``tables``   — print the paper's Table 4-1 / Table 4-2 / thresholds.
* ``topology`` — render the Figure 3-1 system for a configuration.
* ``compare``  — run every protocol on one workload, tabulated.
* ``check``    — exhaustive model check + differential conformance.

The machine flags are **derived from** :class:`repro.api.Experiment` —
every keyword argument of the facade becomes a ``--flag`` with the same
name, default, and type (a short alias table preserves the historical
spellings like ``-n``/``--refs``).  The verbs are shared too: ``run``,
``trace`` and ``compare`` call :meth:`~repro.api.Experiment.run`,
``sweep`` and ``report --run-missing`` go through the sweep scheduler,
and ``check`` walks :func:`repro.api.verification_pass`, the pass behind
:meth:`~repro.api.Experiment.check`.  The commands only map flags and
print, so the CLI and the programmatic API cannot drift apart.  ``run``
supports ``--checkpoint-every`` /
``--checkpoint-path`` / ``--resume`` (see ``docs/api.md``); ``sweep
--workers N`` runs the crash-tolerant worker pool.

``run`` and ``compare`` accept ``--metrics-out metrics.jsonl`` to dump
per-outcome latency histograms, span-phase breakdowns, and time-series
samples (schema in ``docs/observability.md``); ``check`` accepts
``--trace-out`` to export a counterexample's minimized replay.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from typing import TYPE_CHECKING, List, Optional, Tuple

# Only what the parser itself needs is imported here; each verb imports
# the modules it runs, so ``repro --help`` loads no simulator module.
from repro.api import Experiment
from repro.config import NETWORKS, MachineConfig
from repro.faults.plan import CANNED_PLANS, FAULT_PROTOCOLS, parse_faults
from repro.options import OptionError, parse_options
from repro.protocols import registry

if TYPE_CHECKING:
    from repro.api import RunOutcome

#: Canonical names + aliases, for CLI --protocol choice lists.
PROTOCOL_CHOICES = tuple(
    sorted(
        set(registry.protocol_names())
        | {a for spec in registry.PROTOCOLS.values() for a in spec.aliases}
    )
)

#: Experiment parameters with their own dedicated flags/handling.
_SKIP_PARAMS = ("protocol", "faults", "sample_interval")

#: Historical flag spellings; parameters not listed get ``--kebab-name``.
_FLAG_ALIASES = {
    "n_processors": ("-n", "--processors"),
    "n_modules": ("-m", "--modules"),
    "q": ("-q", "--sharing"),
    "w": ("-w", "--write-frac"),
    "refs_per_proc": ("--refs",),
    "warmup_refs": ("--warmup",),
    "translation_buffer_entries": ("--tbuf",),
    "duplicate_directory": ("--dup-dir",),
}

_PARAM_HELP = {
    "q": "probability a reference is to shared data",
    "w": "probability a shared reference is a write",
    "network": "interconnect (default: the protocol's preferred one)",
    "refs_per_proc": "measured references per processor",
    "warmup_refs": "warm-up references per processor (not measured)",
    "translation_buffer_entries": "translation buffer entries (0 = off)",
    "duplicate_directory": "enable the duplicate-directory enhancement",
    "private_blocks_per_proc": "private pool blocks per processor",
    "workload": "workload registry spec: NAME[:ARG[,key=value...]], e.g. "
    "'dubois:low', 'uniform:n_blocks=64', 'trace:path.trace', "
    "'scripted:hot_cold' (default: the Dubois-Briggs model built from "
    "-q/-w; see docs/workloads.md)",
}


def _machine_params():
    """Keyword-only Experiment parameters the machine flags mirror."""
    signature = inspect.signature(Experiment.__init__)
    return {
        name: param
        for name, param in signature.parameters.items()
        if param.kind is inspect.Parameter.KEYWORD_ONLY
        and name not in _SKIP_PARAMS
    }


_MACHINE_PARAMS = _machine_params()


def _flag_spellings(name: str) -> Tuple[str, ...]:
    """The command-line spellings of the option for parameter ``name``."""
    return _FLAG_ALIASES.get(name, ("--" + name.replace("_", "-"),))


def _add_machine_args(parser: argparse.ArgumentParser) -> None:
    """One flag per Experiment parameter, same name/default/type."""
    for name, param in _MACHINE_PARAMS.items():
        flags = _flag_spellings(name)
        help_text = _PARAM_HELP.get(name)
        default = param.default
        if isinstance(default, bool):
            parser.add_argument(
                *flags, dest=name, action="store_true", help=help_text
            )
        elif name == "network":
            parser.add_argument(
                *flags, dest=name, choices=NETWORKS, default=None,
                help=help_text,
            )
        elif name == "workload":
            # Default None (meaning "legacy Dubois-Briggs from -q/-w"),
            # so the generic type(default) coercion cannot apply.
            parser.add_argument(
                *flags, dest=name, default=None, metavar="SPEC",
                help=help_text,
            )
        else:
            parser.add_argument(
                *flags, dest=name, type=type(default), default=default,
                help=help_text,
            )


def _add_faults_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--faults", default=None, metavar="PLAN",
        help="inject deterministic faults: a canned plan "
        f"({', '.join(sorted(CANNED_PLANS))}), key=value pairs "
        "(e.g. 'seed=7,delay_prob=0.1,max_delay=3'), or a canned plan "
        "with overrides ('check,seed=11'); only the protocols with a "
        f"recovery path support this ({', '.join(FAULT_PROTOCOLS)})",
    )


def _parse_faults_arg(args: argparse.Namespace):
    """``args.faults`` -> FaultSpec (or None), with argparse-style errors."""
    text = getattr(args, "faults", None)
    if not text:
        return None
    try:
        return parse_faults(text)
    except ValueError as exc:
        raise SystemExit(f"--faults: {exc}")


def _add_obs_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--metrics-out", default=None, metavar="PATH",
                        help="write latency/phase/sampler metrics as JSONL "
                        "(schema: docs/observability.md)")
    parser.add_argument("--sample-interval", type=int, default=200,
                        metavar="CYCLES",
                        help="time-series sampler window (0 = off)")


def _experiment_from_args(
    args: argparse.Namespace, protocol: Optional[str] = None
) -> Experiment:
    """Build the :class:`Experiment` a command's flags describe.

    ``protocol`` replaces ``--protocol`` for ``compare``, which walks
    every protocol: one that does not run on ``--network`` (a snooping
    protocol asked for the crossbar) takes its own network instead.
    Elsewhere a mismatched pair is the machine's one-line error.
    """
    kwargs = {
        name: getattr(args, name)
        for name in _MACHINE_PARAMS
        if hasattr(args, name)
    }
    if protocol is None:
        protocol = args.protocol
    else:
        pspec = registry.resolve(protocol)
        if kwargs.get("network") not in pspec.networks:
            kwargs["network"] = None  # the protocol's own network
    protocol = registry.canonical_name(protocol)
    return Experiment(
        protocol=protocol,
        faults=_parse_faults_arg(args),
        sample_interval=getattr(args, "sample_interval", 200),
        **kwargs,
    )


def _run_experiment(experiment: Experiment, **kwargs) -> RunOutcome:
    """:meth:`Experiment.run` with argparse-style errors.

    Prints the "trace recorded" line when ``record_trace`` is given.
    """
    from repro.workloads.registry import WorkloadSpecError

    try:
        outcome = experiment.run(**kwargs)
    except WorkloadSpecError as exc:
        raise SystemExit(f"--workload: {exc}")
    except ValueError as exc:  # e.g. faults on a protocol that cannot recover
        raise SystemExit(str(exc))
    record_trace = kwargs.get("record_trace")
    if record_trace:
        from repro.workloads.traces import scan_trace_meta

        count = scan_trace_meta(record_trace).n_refs
        print(
            f"trace recorded to {record_trace}: {count} refs "
            f"(replay with --workload trace:{record_trace})"
        )
    return outcome


def _write_metrics(path: str, machine, obs, append: bool = False) -> None:
    from repro.obs.attach import machine_metrics_records
    from repro.obs.export import write_jsonl

    records = machine_metrics_records(machine, obs)
    if append:
        import json

        with open(path, "a", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
    else:
        write_jsonl(path, records)


def _audit_verdict(report) -> int:
    if report.ok:
        print("coherence audit: CLEAN")
        return 0
    print("coherence audit: FAILED")
    for violation in report.violations[:10]:
        print(f"  {violation}")
    return 1


#: ``run`` options a checkpoint fixes: resuming cannot honour them.
_RESUME_FIXED = ("protocol", *_MACHINE_PARAMS, "faults", "sample_interval",
                 "checkpoint_path", "record_trace")


def _resume(args: argparse.Namespace) -> RunOutcome:
    """``run --resume``: refuse what the checkpoint cannot honour, then
    load, check ``--metrics-out`` against the machine, and finish."""
    from repro.api import _finish_resumed
    from repro.checkpoint import CheckpointError, load

    defaults = make_parser().parse_args(["run"])
    given = [
        "/".join(_flag_spellings(name)) for name in _RESUME_FIXED
        if getattr(args, name) != getattr(defaults, name)
    ]
    if given:
        raise SystemExit(
            f"--resume: the checkpoint fixes the machine and its run; "
            f"drop {', '.join(given)}"
        )
    try:
        machine = load(args.resume, allow_code_mismatch=args.allow_code_mismatch)
    except CheckpointError as exc:
        raise SystemExit(f"--resume: {exc}")
    if args.metrics_out and machine.sim.obs is None:
        raise SystemExit(
            "--metrics-out: the checkpoint has no observability hub "
            "(take it from a run with --metrics-out)"
        )
    return _finish_resumed(machine, args.resume, args.checkpoint_every,
                           strict=False)


def cmd_run(args: argparse.Namespace) -> int:
    if args.checkpoint_every and not (args.checkpoint_path or args.resume):
        raise SystemExit("--checkpoint-every needs --checkpoint-path")
    if args.resume:
        return _report_run(args, _resume(args))

    outcome = _run_experiment(
        _experiment_from_args(args),
        checkpoint_every=args.checkpoint_every,
        checkpoint_path=args.checkpoint_path,
        instrument=bool(args.metrics_out or args.verbose),
        strict=False,
        record_trace=args.record_trace,
    )
    return _report_run(args, outcome)


def _report_run(args: argparse.Namespace, outcome: RunOutcome) -> int:
    """Print a finished ``repro run``, fresh or resumed, the same way."""
    machine, obs = outcome.machine, outcome.obs
    print(outcome.results.summary())
    if machine.faults is not None:
        counts = machine.faults.counters.snapshot()
        recovery = {
            name: machine.registry.total(name)
            for name in ("naks_sent", "retries_scheduled",
                         "duplicate_commands_dropped",
                         "wb_backpressure_stalls")
            if machine.registry.total(name)
        }
        pairs = {**counts, **recovery}
        print("fault injection: " + (", ".join(
            f"{k}={v:g}" for k, v in sorted(pairs.items())
        ) or "plan attached, nothing fired"))
    if args.metrics_out:
        _write_metrics(args.metrics_out, machine, obs)
        print(f"metrics written to {args.metrics_out}")
    if args.verbose:
        print()
        if obs is None:  # resumed from a checkpoint taken without a hub
            print("latency (cycles): not recorded (the checkpoint has no "
                  "observability hub)")
        elif obs.latency:
            from repro.stats.histogram import Histogram

            print(Histogram.merged(
                obs.latency.values(), name="latency (cycles)"
            ).render())
            print("\nper-outcome latency (cycles):")
            for _, hist in sorted(obs.latency.items()):
                print(f"  {hist.summary_line()}")
        if machine.config.protocol == "twobit":
            occ = machine.state_occupancy()
            print("\nglobal-state occupancy (time-weighted, all blocks):")
            for state, fraction in occ.items():
                print(f"  {state.name:<13} {fraction:.4f}")
    return _audit_verdict(outcome.audit)


def _parse_axes(axis_items, base: dict, command: str = "sweep") -> dict:
    """``--axis NAME=V1,V2,...`` items -> ``{name: [values]}``."""
    axes = {}
    for item in axis_items:
        name, sep, values = item.partition("=")
        name = name.strip().replace("-", "_")
        if not sep or not values:
            raise SystemExit(f"--axis: expected NAME=V1,V2,... got {item!r}")
        try:
            axes[name] = [
                parse_options({name: value}, base, "experiment parameter")[name]
                for value in values.split(",")
            ]
        except OptionError as exc:
            raise SystemExit(f"--axis: {exc}")
    if not axes:
        raise SystemExit(f"{command} needs at least one --axis NAME=V1,V2,...")
    return axes


def cmd_serve(args: argparse.Namespace) -> int:
    """Run a sweep-service coordinator in the foreground."""
    from repro.runner.service.coordinator import ServiceConfig, serve

    serve(
        ServiceConfig(
            host=args.host,
            port=args.port,
            cache_dir=args.cache_dir,
            checkpoint_dir=args.checkpoint_dir,
            progress_dir=args.progress_dir,
            heartbeat_timeout=args.heartbeat_timeout,
            heartbeat_every=args.heartbeat_every,
        )
    )
    return 0


def cmd_work(args: argparse.Namespace) -> int:
    """Run a sweep-service worker agent against a coordinator."""
    from repro.runner.service.wire import ServiceError
    from repro.runner.service.worker import run_worker

    # Load what a point runs (Experiment.run) before registering, so the
    # first lease does not pay for the imports.
    import repro.system.builder  # noqa: F401
    import repro.verification.audit  # noqa: F401
    import repro.workloads.registry  # noqa: F401

    try:
        executed = run_worker(
            args.coordinator,
            poll_interval=args.poll,
            heartbeat_every=args.heartbeat_every,
            max_idle=args.max_idle,
            verbose=args.verbose,
        )
    except ServiceError as exc:
        raise SystemExit(str(exc))
    except KeyboardInterrupt:
        return 0
    print(f"worker exiting after {executed} shard(s)")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.runner.sweep import SweepError
    from repro.stats.tables import Table

    errors: Tuple[type, ...] = (SweepError, ValueError)
    if args.service is not None:  # local sweeps never load the HTTP stack
        from repro.runner.service.wire import ServiceError

        errors += (ServiceError,)
    experiment = _experiment_from_args(args)
    axes = _parse_axes(args.axis, experiment.to_kwargs())
    try:
        report = experiment.sweep(
            axes,
            workers=args.workers,
            service=args.service,
            checkpoint_every=args.checkpoint_every,
            checkpoint_dir=args.checkpoint_dir,
            cache_dir=args.cache_dir,
            use_cache=not args.no_cache,
            label=args.label,
            max_retries=args.max_retries,
            stall_timeout=args.stall_timeout,
            verbose=args.verbose,
            instrument=args.metrics,
            progress_out=args.progress_out,
        )
    except errors as exc:
        raise SystemExit(str(exc))
    table = Table(
        header=["point", "cmds/ref", "extra/ref", "miss", "latency"],
        title=report.label,
        precision=4,
    )
    for outcome in report.outcomes:
        results = outcome.result
        point = ", ".join(f"{k}={v}" for k, v in outcome.point.key)
        table.add_row(
            [point, results["commands_per_ref"],
             results["extra_commands_per_ref"], results["miss_ratio"],
             results["avg_latency"]]
        )
    print(table.render())
    print(report.summary())
    if args.progress_out:
        print(f"progress events streamed to {args.progress_out}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Comparative rollup report from the cached sweep result store."""
    import json

    from repro.obs.report import build_report, render_markdown
    from repro.obs.rollup import rollup_results
    from repro.runner.cache import ResultCache, default_cache_dir
    from repro.runner.sweep import SweepError, WithMetrics, run_sweep

    experiment = _experiment_from_args(args)
    axes = _parse_axes(args.axis, experiment.to_kwargs(), command="report")
    cache = ResultCache(
        args.cache_dir if args.cache_dir is not None else default_cache_dir()
    )
    # Prefer instrumented cache entries (results + telemetry buckets);
    # fall back to bare ones, whose counters still roll up.
    instrumented = experiment.sweep_points(axes, instrument=True)
    bare = experiment.sweep_points(axes)
    runs, missing, to_run = [], [], []
    for point_i, point_b in zip(instrumented, bare):
        label = ", ".join(f"{k}={v}" for k, v in point_i.key)
        hit, value = cache.get(cache.key_for(point_i.fn, point_i.kwargs))
        if not hit:
            hit, value = cache.get(cache.key_for(point_b.fn, point_b.kwargs))
        if not hit:
            (to_run if args.run_missing else missing).append(
                (label, point_i)
            )
            continue
        if isinstance(value, WithMetrics):
            runs.append((value.value, value.metrics, label))
        else:
            runs.append((value, None, label))
    name = args.label if args.label else f"{experiment.protocol}-grid"
    if to_run:
        print(
            f"executing {len(to_run)} missing point(s) (instrumented)...",
            file=sys.stderr,
        )
        try:
            executed = run_sweep(
                [point for _, point in to_run],
                cache_dir=cache.directory,
                label=name,
            )
        except SweepError as exc:
            raise SystemExit(str(exc))
        runs.extend(
            (outcome.result, outcome.metrics, label)
            for (label, _), outcome in zip(to_run, executed.outcomes)
        )
    if not runs:
        raise SystemExit(
            f"report: no cached results for this grid in {cache.directory} "
            "(run `repro sweep --metrics` with the same axes first, or "
            "pass --run-missing)"
        )

    report = build_report(
        rollup_results(runs, group_by=args.group_by),
        group_by=args.group_by,
        baseline=args.baseline,
        label=name,
        missing=[label for label, _ in missing],
    )
    rendered = (
        json.dumps(report, indent=2, sort_keys=True) + "\n"
        if args.format == "json"
        else render_markdown(report)
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(rendered)
        print(f"report written to {args.out}")
    else:
        print(rendered, end="")
    return 0


def cmd_tables(args: argparse.Namespace) -> int:
    from repro.analysis.dubois_briggs import generate_table_4_2
    from repro.analysis.overhead_model import (
        compare_table_4_1,
        generate_table_4_1,
    )
    from repro.analysis.thresholds import generate_threshold_table

    if args.table in ("4-1", "all"):
        print(generate_table_4_1().render())
        if args.verbose:
            print()
            print(compare_table_4_1().render(rel_tol=0.03, abs_tol=1.5e-3))
        print()
    if args.table in ("4-2", "all"):
        print(generate_table_4_2().render())
        print()
    if args.table in ("thresholds", "all"):
        print(generate_threshold_table().render())
    return 0


def cmd_topology(args: argparse.Namespace) -> int:
    from repro.system.builder import build_machine
    from repro.system.topology import describe_machine, render_topology
    from repro.workloads.synthetic import DuboisBriggsWorkload

    config = MachineConfig(
        n_processors=args.n_processors,
        n_modules=args.n_modules,
        network=args.network,
        protocol=registry.canonical_name(args.protocol),
    )
    if args.build:
        workload = DuboisBriggsWorkload(
            n_processors=args.n_processors, private_blocks_per_proc=16
        )
        machine = build_machine(
            config.with_(n_blocks=workload.n_blocks), workload
        )
        print(describe_machine(machine))
    else:
        print(render_topology(config))
    return 0


def cmd_spec(args: argparse.Namespace) -> int:
    from repro.core.spec import render_spec
    from repro.protocols.cache_side import render_cache_side_spec
    from repro.protocols.fullmap import render_full_map_spec

    print(render_spec())
    print()
    print(render_full_map_spec())
    print()
    print(render_cache_side_spec())
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    from repro.stats.tables import Table

    table = Table(
        header=["protocol", "cmds/ref", "extra/ref", "stolen/ref",
                "miss", "latency"],
        title=f"n={args.n_processors} q={args.q} w={args.w}",
        precision=4,
    )
    reports = []
    for i, protocol in enumerate(registry.protocol_names()):
        outcome = _run_experiment(
            _experiment_from_args(args, protocol),
            instrument=bool(args.metrics_out),
        )
        r = outcome.results
        table.add_row(
            [protocol, r.commands_per_ref, r.extra_commands_per_ref,
             r.stolen_cycles_per_ref, r.miss_ratio, r.avg_latency]
        )
        if args.metrics_out:
            # One JSONL file; each protocol contributes its own "run"
            # header record, so consumers can split by protocol.
            _write_metrics(
                args.metrics_out, outcome.machine, outcome.obs, append=i > 0
            )
        if args.verbose:
            reports.append(
                f"[{protocol}]\n{outcome.machine.registry.report()}"
            )
    print(table.render())
    if args.metrics_out:
        print(f"metrics written to {args.metrics_out}")
    for report in reports:
        print()
        print(report)
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.export import write_chrome_trace

    outcome = _run_experiment(
        _experiment_from_args(args),
        instrument=True,
        keep_events=True,
        strict=False,
    )
    machine, obs = outcome.machine, outcome.obs
    obs.flush(machine.sim.now)
    count = write_chrome_trace(args.out, obs)
    print(
        f"trace written to {args.out}: {count} events, "
        f"{len(obs.spans)} spans over {machine.sim.now} cycles "
        f"(load in https://ui.perfetto.dev)"
    )
    if args.metrics_out:
        _write_metrics(args.metrics_out, machine, obs)
        print(f"metrics written to {args.metrics_out}")
    if not outcome.audit.ok:
        print("coherence audit: FAILED")
        return 1
    return 0


def _check_scenarios(args: argparse.Namespace):
    """Scenario list for ``repro check`` (depth tier + optional seeded)."""
    from repro.verification import model_check

    scenarios = list(model_check.scenarios_for(args.depth))
    if args.seed is not None:
        scenarios.append(model_check.random_scenario(args.seed))
    if args.scenario is not None:
        chosen = [s for s in scenarios if s.name == args.scenario]
        if not chosen:
            names = sorted(s.name for s in scenarios)
            raise SystemExit(
                f"unknown scenario {args.scenario!r}; choose from {names} "
                "(seed-N scenarios need --seed N)"
            )
        return chosen
    return scenarios


def cmd_hunt(args: argparse.Namespace) -> int:
    from repro.workloads import adversarial

    args.protocol = registry.canonical_name(args.protocol)
    if args.replay is not None:
        stressor = adversarial.load_stressor(args.replay)
        outcome, score = stressor.replay(max_steps=args.max_steps)
        print(
            f"replay {stressor.name}: status={outcome.status} "
            f"score={score:.4f} (promoted {stressor.score:.4f}) "
            f"schedule={outcome.schedule}"
        )
        if outcome.status != "ok" or score != stressor.score:
            print("replay MISMATCH: stressor did not reproduce")
            return 1
        print("replay OK: bit-identical")
        return 0

    try:
        result = adversarial.hunt(
            args.protocol,
            args.objective,
            budget=args.budget,
            seed=args.seed,
            n_processors=args.n_processors,
            script_len=args.script_len,
            n_blocks=args.blocks,
            probes=args.probes,
            faults=args.faults,
            max_steps=args.max_steps,
            name=args.name,
        )
    except (ValueError, RuntimeError) as exc:
        raise SystemExit(f"hunt: {exc}")
    print(result.summary())
    if args.promote:
        adversarial.promote(result.best, args.promote)
        print(
            f"stressor promoted to {args.promote} "
            f"(replay: repro hunt --replay {args.promote}; "
            f"run: repro run --workload scripted:{args.promote})"
        )
    if args.require_gain and result.best.score <= result.baseline:
        print(
            f"hunt: best score {result.best.score:.4f} did not beat the "
            f"Dubois-Briggs baseline {result.baseline:.4f}"
        )
        return 1
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    from repro.api import verification_pass
    from repro.verification import model_check
    from repro.verification.schedules import parse_schedule

    protocols = (
        list(registry.protocol_names())
        if args.protocol == "all"
        else [registry.canonical_name(args.protocol)]
    )
    faults = _parse_faults_arg(args)
    if faults is not None:
        # The predicate attach_faults and run_differential read, so the
        # skip line names exactly the protocols they would refuse.
        capable = [p for p in protocols if p in FAULT_PROTOCOLS]
        skipped = [p for p in protocols if p not in FAULT_PROTOCOLS]
        if not capable:
            raise SystemExit(
                f"--faults: {args.protocol} has no NAK/retry recovery "
                f"path; choose from {', '.join(FAULT_PROTOCOLS)}"
            )
        if skipped:
            print(
                "--faults: skipping "
                + ", ".join(skipped)
                + " (no recovery path; atomic-transport protocols)"
            )
        protocols = capable
    scenarios = _check_scenarios(args)

    if args.replay is not None:
        if len(protocols) != 1 or len(scenarios) != 1:
            raise SystemExit(
                "--replay needs exactly one --protocol and one --scenario"
            )
        scenario = scenarios[0]
        machine = model_check.build_scenario_machine(
            protocols[0], scenario, faults=faults
        )
        obs = None
        if args.trace_out:
            from repro.obs.attach import instrument_machine

            obs = instrument_machine(
                machine, sample_interval=0, keep_events=True
            )
        outcome = model_check.replay_schedule(
            machine,
            scenario,
            parse_schedule(args.replay),
            max_steps=args.max_steps,
            collect_trace=True,
        )
        print(
            f"replay {protocols[0]}/{scenario.name} "
            f"schedule={args.replay}: {outcome.status}"
        )
        if outcome.detail:
            print(f"  detail: {outcome.detail}")
        for line in outcome.trace:
            print(f"  {line}")
        if obs is not None:
            from repro.obs.export import write_chrome_trace

            count = write_chrome_trace(args.trace_out, obs)
            print(f"replay trace written to {args.trace_out}: {count} events")
        return 0 if outcome.status == "ok" else 1

    failed = False
    for item in verification_pass(
        protocols,
        scenarios,
        max_schedules=args.max_schedules,
        max_steps=args.max_steps,
        faults=faults,
        differential=args.differential,
        seed=args.seed if args.seed is not None else 0,
    ):
        if not isinstance(item, model_check.ModelCheckResult):
            seed, report = item
            print(report.render() + f"  [seed {seed}]")
            failed = failed or not report.ok
            continue
        print(item.summary())
        if not item.exhausted and item.ok:
            print(
                f"  WARNING: stopped at --max-schedules="
                f"{args.max_schedules}; interleavings NOT exhausted"
            )
        if item.counterexample is not None:
            failed = True
            print()
            print(item.counterexample.render())
            if args.trace_out:
                count = item.counterexample.write_chrome_trace(args.trace_out)
                print(
                    f"counterexample trace written to "
                    f"{args.trace_out}: {count} events"
                )
                args.trace_out = None  # keep only the first failure
            print()

    return 1 if failed else 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Archibald & Baer (ISCA 1984) two-bit directory "
        "coherence — simulator and models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one machine")
    p_run.add_argument("--protocol", choices=PROTOCOL_CHOICES, default="twobit")
    p_run.add_argument("-v", "--verbose", action="store_true",
                       help="also print the latency histogram and, for the "
                       "two-bit scheme, the global-state occupancy")
    _add_machine_args(p_run)
    _add_faults_arg(p_run)
    _add_obs_args(p_run)
    p_run.add_argument("--checkpoint-every", type=int, default=0,
                       metavar="CYCLES",
                       help="checkpoint the machine every N simulated "
                       "cycles (needs --checkpoint-path)")
    p_run.add_argument("--checkpoint-path", default=None, metavar="PATH",
                       help="checkpoint file; may contain '{cycle}'")
    p_run.add_argument("--record-trace", default=None, metavar="PATH",
                       help="write the run's reference stream (warm-up "
                       "included) as a replayable trace; feed it back "
                       "with --workload trace:PATH to reproduce the run "
                       "bit-for-bit")
    p_run.add_argument("--resume", default=None, metavar="PATH",
                       help="restore PATH and finish the interrupted run "
                       "(bit-identical to an uninterrupted one)")
    p_run.add_argument("--allow-code-mismatch", action="store_true",
                       help="resume a checkpoint written by a different "
                       "repro source tree (results may then differ)")
    p_run.set_defaults(fn=cmd_run)

    p_trace = sub.add_parser(
        "trace",
        help="simulate with telemetry and export a Perfetto/Chrome trace",
    )
    p_trace.add_argument("--protocol", choices=PROTOCOL_CHOICES,
                         default="twobit")
    _add_machine_args(p_trace)
    _add_faults_arg(p_trace)
    p_trace.add_argument("--out", required=True, metavar="PATH",
                         help="Chrome trace-event JSON output path "
                         "(load in https://ui.perfetto.dev)")
    _add_obs_args(p_trace)
    p_trace.set_defaults(fn=cmd_trace)

    p_sweep = sub.add_parser(
        "sweep",
        help="run a parameter grid with caching (inline, on a worker "
        "pool, or on a sweep service)",
    )
    p_sweep.add_argument("--protocol", choices=PROTOCOL_CHOICES,
                         default="twobit")
    _add_machine_args(p_sweep)
    _add_faults_arg(p_sweep)
    p_sweep.add_argument(
        "--axis", action="append", default=[], metavar="NAME=V1,V2,...",
        help="sweep axis over an Experiment parameter; repeatable "
        "(e.g. --axis protocol=twobit,fullmap --axis q=0.01,0.05)",
    )
    p_sweep.add_argument("--workers", type=int, default=None,
                         help="size of the crash-tolerant worker pool: "
                         "dead or stalled workers are replaced and their "
                         "shards retried (default: run inline)")
    p_sweep.add_argument("--service", default=None, metavar="URL",
                         help="submit the grid to a running sweep-service "
                         "coordinator (`repro serve`) and its `repro "
                         "work` fleet instead of local processes "
                         "(docs/service.md)")
    p_sweep.add_argument("--checkpoint-every", type=int, default=0,
                         metavar="CYCLES",
                         help="per-shard checkpoint cadence, so a retried "
                         "shard resumes (0 = shards restart from scratch; "
                         "needs --workers or --service)")
    p_sweep.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                         help="where shard checkpoints live (default: a "
                         "temporary directory, removed when the sweep "
                         "ends; a given DIR is kept; needs --workers)")
    p_sweep.add_argument("--cache-dir", default=None, metavar="DIR",
                         help="result cache directory (default: "
                         ".sweep_cache or $REPRO_SWEEP_CACHE)")
    p_sweep.add_argument("--no-cache", action="store_true",
                         help="neither read nor write the result cache")
    p_sweep.add_argument("--max-retries", type=int, default=2,
                         help="retries per shard after worker death/stall")
    p_sweep.add_argument("--stall-timeout", type=float, default=None,
                         metavar="SECONDS",
                         help="kill workers holding one shard longer than "
                         "this (needs --workers or --service)")
    p_sweep.add_argument("--label", default=None,
                         help="sweep name for the summary/cache metadata")
    p_sweep.add_argument("--metrics", action="store_true",
                         help="instrument every point and cache its "
                         "telemetry with the result (feeds `repro "
                         "report` rollups; results stay bit-identical)")
    p_sweep.add_argument("--progress-out", default=None, metavar="PATH",
                         help="stream schema-stamped JSONL lifecycle "
                         "events (manifest, per-point lifecycle, worker "
                         "heartbeats) to PATH as the sweep runs; emitted "
                         "supervisor-side, so SIGKILLed workers still get "
                         "terminal events (schema: docs/observability.md)")
    p_sweep.add_argument("-v", "--verbose", action="store_true")
    p_sweep.set_defaults(fn=cmd_sweep)

    p_serve = sub.add_parser(
        "serve",
        help="run a sweep-service coordinator (see docs/service.md)",
    )
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="bind address (default loopback; the wire "
                         "protocol is for trusted hosts only)")
    p_serve.add_argument("--port", type=int, default=0,
                         help="bind port (0 = pick a free port; the chosen "
                         "URL is printed as 'repro-service listening on "
                         "...')")
    p_serve.add_argument("--cache-dir", default=None, metavar="DIR",
                         help="shared result cache directory (default: "
                         ".sweep_cache or $REPRO_SWEEP_CACHE); local "
                         "sweeps pointed at the same directory share "
                         "entries")
    p_serve.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                         help="shard checkpoint directory; must be "
                         "worker-reachable for mid-shard resume "
                         "(default: a temporary directory, removed on "
                         "Ctrl-C; a given DIR is kept)")
    p_serve.add_argument("--progress-dir", default=None, metavar="DIR",
                         help="where per-sweep merged progress JSONL "
                         "streams are written (default: a temporary "
                         "directory, removed on Ctrl-C; a given DIR is "
                         "kept)")
    p_serve.add_argument("--heartbeat-timeout", type=float, default=5.0,
                         metavar="SECONDS",
                         help="a worker silent this long is presumed dead "
                         "and its shard retried")
    p_serve.add_argument("--heartbeat-every", type=float, default=0.5,
                         metavar="SECONDS",
                         help="heartbeat cadence advertised to workers")
    p_serve.set_defaults(fn=cmd_serve)

    p_work = sub.add_parser(
        "work",
        help="run a sweep-service worker agent",
    )
    p_work.add_argument("--coordinator", required=True, metavar="URL",
                        help="coordinator URL printed by `repro serve`")
    p_work.add_argument("--poll", type=float, default=0.2,
                        metavar="SECONDS",
                        help="lease poll interval while idle")
    p_work.add_argument("--heartbeat-every", type=float, default=None,
                        metavar="SECONDS",
                        help="override the coordinator-advertised "
                        "heartbeat cadence")
    p_work.add_argument("--max-idle", type=float, default=None,
                        metavar="SECONDS",
                        help="exit after this long without work "
                        "(default: serve forever)")
    p_work.add_argument("-v", "--verbose", action="store_true")
    p_work.set_defaults(fn=cmd_work)

    p_report = sub.add_parser(
        "report",
        help="comparative rollup report from the cached sweep store",
        description="Aggregate cached sweep results (run `repro sweep "
        "--metrics` first) into per-group comparatives — broadcast "
        "overhead, NAK/retry cost, merged-bucket latency percentiles.",
    )
    p_report.add_argument("--protocol", choices=PROTOCOL_CHOICES,
                          default="twobit")
    _add_machine_args(p_report)
    _add_faults_arg(p_report)
    p_report.add_argument(
        "--axis", action="append", default=[], metavar="NAME=V1,V2,...",
        help="the sweep grid to report over; repeatable (must match the "
        "axes the sweep ran with)",
    )
    p_report.add_argument("--cache-dir", default=None, metavar="DIR",
                          help="result cache directory (default: "
                          ".sweep_cache or $REPRO_SWEEP_CACHE)")
    p_report.add_argument("--group-by", default="protocol",
                          metavar="FIELD",
                          help="results field to group rollups by "
                          "(default: protocol)")
    p_report.add_argument("--baseline", default=None, metavar="GROUP",
                          help="baseline group for the comparison column "
                          "(default: fullmap when present)")
    p_report.add_argument("--format", choices=("md", "json"), default="md",
                          help="render markdown (default) or the raw "
                          "JSON report document")
    p_report.add_argument("--out", default=None, metavar="PATH",
                          help="write the report here instead of stdout")
    p_report.add_argument("--run-missing", action="store_true",
                          help="execute (instrumented) any grid point "
                          "missing from the cache instead of listing it")
    p_report.add_argument("--label", default=None,
                          help="report title (default: <protocol>-grid)")
    p_report.set_defaults(fn=cmd_report)

    p_tables = sub.add_parser("tables", help="print the paper's tables")
    p_tables.add_argument(
        "table", choices=("4-1", "4-2", "thresholds", "all"), nargs="?",
        default="all",
    )
    p_tables.add_argument("-v", "--verbose", action="store_true",
                          help="include paper-vs-ours comparison")
    p_tables.set_defaults(fn=cmd_tables)

    p_topo = sub.add_parser("topology", help="render Figure 3-1")
    p_topo.add_argument("--protocol", choices=PROTOCOL_CHOICES, default="twobit")
    p_topo.add_argument("-n", "--processors", dest="n_processors", type=int,
                        default=4)
    p_topo.add_argument("-m", "--modules", dest="n_modules", type=int,
                        default=2)
    p_topo.add_argument("--network", choices=NETWORKS, default="xbar")
    p_topo.add_argument("--build", action="store_true",
                        help="assemble the machine and describe it fully")
    p_topo.set_defaults(fn=cmd_topology)

    p_spec = sub.add_parser(
        "spec", help="print the protocol tables: two-bit, full map, cache side"
    )
    p_spec.set_defaults(fn=cmd_spec)

    p_cmp = sub.add_parser("compare", help="run every protocol")
    _add_machine_args(p_cmp)
    _add_obs_args(p_cmp)
    p_cmp.add_argument("-v", "--verbose", action="store_true",
                       help="also print merged counter totals per protocol")
    p_cmp.set_defaults(fn=cmd_compare)

    p_hunt = sub.add_parser(
        "hunt",
        help="coverage-guided search for adversarial workloads",
    )
    p_hunt.add_argument("--protocol", choices=PROTOCOL_CHOICES,
                        default="twobit")
    p_hunt.add_argument("--objective", default="broadcast_overhead",
                        help="stress metric to maximise "
                        "(broadcast_overhead, nak_retries, latency)")
    p_hunt.add_argument("--budget", type=int, default=200,
                        help="schedule-probe evaluations to spend")
    p_hunt.add_argument("--seed", type=int, default=1984,
                        help="master seed (same seed = same hunt)")
    p_hunt.add_argument("-n", "--n-processors", type=int, default=4)
    p_hunt.add_argument("--script-len", type=int, default=8,
                        help="initial refs per processor script")
    p_hunt.add_argument("--blocks", type=int, default=4,
                        help="block-pool size (small pools force conflict)")
    p_hunt.add_argument("--probes", type=int, default=2,
                        help="random schedules explored per candidate")
    p_hunt.add_argument("--max-steps", type=int, default=4000,
                        help="livelock bound per probe")
    p_hunt.add_argument("--name", default="hunted",
                        help="name stamped on the promoted stressor")
    p_hunt.add_argument("--promote", default=None, metavar="PATH",
                        help="write the best stressor to PATH as JSON")
    p_hunt.add_argument("--replay", default=None, metavar="PATH",
                        help="replay a promoted stressor file instead of "
                        "hunting; exits nonzero unless bit-identical")
    p_hunt.add_argument("--require-gain", action="store_true",
                        help="exit nonzero unless the best stressor beats "
                        "the Dubois-Briggs HIGH_SHARING baseline")
    _add_faults_arg(p_hunt)
    p_hunt.set_defaults(fn=cmd_hunt)

    p_check = sub.add_parser(
        "check",
        help="exhaustively model-check protocols + differential conformance",
    )
    p_check.add_argument(
        "--protocol", choices=PROTOCOL_CHOICES + ("all",), default="all"
    )
    p_check.add_argument("--depth", choices=("smoke", "deep"), default="smoke",
                         help="scenario tier to explore")
    p_check.add_argument("--scenario", default=None,
                         help="restrict to one scenario by name")
    p_check.add_argument("--seed", type=int, default=None,
                         help="add a seed-derived scenario and differential "
                         "streams")
    p_check.add_argument("--max-schedules", type=int, default=20_000,
                         help="schedule cap per (protocol, scenario)")
    p_check.add_argument("--max-steps", type=int, default=4000,
                         help="livelock bound: events per schedule")
    p_check.add_argument("--differential", type=int, default=3, metavar="N",
                         help="random lockstep streams to cross-check "
                         "(0 = off)")
    p_check.add_argument("--replay", default=None, metavar="SCHEDULE",
                         help="replay one schedule (e.g. '0,2,1' or '-') "
                         "with a full trace; needs --protocol + --scenario")
    p_check.add_argument("--trace-out", default=None, metavar="PATH",
                         help="export the first counterexample's minimized "
                         "replay (or the --replay run) as a Chrome trace")
    _add_faults_arg(p_check)
    p_check.set_defaults(fn=cmd_check)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover - exercised via main()
    sys.exit(main())
