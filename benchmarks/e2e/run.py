"""End-to-end benchmark of the simulator: host time users feel, by layer.

Run from the repository root::

    python3 benchmarks/e2e/run.py --workload mixed --seed 1984 --seconds 10 --trace 0
    python3 benchmarks/e2e/run.py --seed 1984 --out results/    # every workload
    python3 benchmarks/e2e/run.py --compare A.json B.json

(``PYTHONPATH=src python -m benchmarks.e2e ...`` is the same program.)

Load model: one client, this process, runs a closed loop.  Each
repetition is a fresh child process (``child.py``) that sets up, runs
the workload's operation once and exits; repetitions continue until
``--seconds`` have passed (at least :data:`MIN_REPS`).  Single-process
repetitions are pinned to the CPU that is quietest when they start
(:func:`on_quiet_cpu`); sweeps use every CPU.  A metric is the median over
the repetitions, or the best repetition for throughput and latency (see
:data:`E2E`); each is printed with the median, quartiles and sample
count.  Inputs derive from ``--seed`` only; fixtures (the replay trace,
the reference sweep) are made once per invocation, before any timing.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` reports
the per-layer ones: the same repetitions with probes taken after the
timed operation, plus one traced repetition (``trace.py``) for each
layer's share of host time.  Without ``--trace`` both are reported.

Every result is checked: exact reference counts and the strict audit in
the child; here, every repetition's results digest against the reference
(``expected.json`` at the default seed, otherwise the fixture's or the
first repetition's), so traced, checkpointed, resumed and service
results must all equal the plain ones.  The last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``;
the exit code is 1 when any check failed.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic, perf_counter
from typing import Any, Dict, Iterator, List, Optional

ROOT = Path(__file__).resolve().parents[2]
if __name__ == "__main__":
    # Import this package as ``benchmarks.e2e``; the script's own
    # directory would shadow the standard library's ``trace``.
    sys.path[0] = str(ROOT)

from benchmarks.e2e import compare as compare_mod  # noqa: E402
from benchmarks.e2e.trace import LAYERS  # noqa: E402
from benchmarks.e2e.workloads import WORKLOADS  # noqa: E402

SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
#: Scratch space for one invocation; removed when it ends.
WORK_ROOT = HERE / ".work"
EXPECTED = HERE / "expected.json"

#: Repetitions made even when ``--seconds`` runs out first.
MIN_REPS = 3
#: Wall-clock budget of one invocation per workload, well below the
#: 180 s a run may take; a child still running at the end is killed.
BUDGET_S = 150.0

#: End-to-end metrics: name -> (unit, better, statistic reported).  The
#: child result holds each under the metric's name.  Throughput and
#: latency report the best repetition: the host's speed switches between
#: a fast and a ~1.8x slower state for seconds at a time, which moves a
#: median of a dozen repetitions by 10-30% between runs and the best one
#: by a few percent (README.md, "Noise").
E2E = {
    "refs_per_s": ("refs/s", "higher", "best"),
    "wall_s": ("s", "lower", "best"),
    "setup_s": ("s", "lower", "median"),
    "peak_rss_mb": ("MB", "lower", "median"),
}

#: Per-layer metrics: name -> (unit, better).
PER_LAYER: Dict[str, tuple] = {}
for _layer in LAYERS:
    PER_LAYER[f"{_layer}.self_frac"] = ("ratio", "lower")
    PER_LAYER[f"{_layer}.self_ns_per_ref"] = ("ns/ref", "lower")
    PER_LAYER[f"{_layer}.calls_per_ref"] = ("calls/ref", "lower")
PER_LAYER.update(
    {
        "trace_overhead": ("ratio", "lower"),
        "sim.events_per_ref": ("events/ref", "lower"),
        "protocols.hit_frac": ("ratio", "higher"),
        "core.txns_per_ref": ("txns/ref", "lower"),
        "core.nak_frac": ("ratio", "lower"),
        "interconnect.msgs_per_ref": ("msgs/ref", "lower"),
        "interconnect.deliveries_per_ref": ("msgs/ref", "lower"),
        "checkpoint.save_s": ("s", "lower"),
        "checkpoint.load_s": ("s", "lower"),
        "checkpoint.bytes": ("B", "lower"),
        "checkpoint.resume_s": ("s", "lower"),
        "system.import_s": ("s", "lower"),
        "system.build_s": ("s", "lower"),
        "system.lazy_setup_s": ("s", "lower"),
        "verification.audit_s": ("s", "lower"),
        "runner.dispatch_wait_s": ("s", "lower"),
        "runner.point_s": ("s", "lower"),
        "runner.overhead_frac": ("ratio", "lower"),
    }
)


def summarize(values: List[float], unit: str, better: str, stat: str) -> Dict[str, Any]:
    """One metric's samples: the reported ``value`` (the median, or the
    best sample when ``stat`` is ``best``), quartiles and count."""
    median = statistics.median(values) if values else 0.0
    q1 = q3 = median
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    value = median
    if stat == "best" and values:
        value = max(values) if better == "higher" else min(values)
    return {
        "value": value, "stat": stat, "unit": unit, "better": better,
        "median": median, "q1": q1, "q3": q3, "n": len(values), "values": values,
    }


def _probe_kernel() -> int:
    """A few milliseconds of dict, list and method-call work."""
    table: Dict[int, int] = {}
    total = 0
    for i in range(20_000):
        table[i & 255] = i
        total += table.get((i * 7) & 255, 0)
    return total


@contextlib.contextmanager
def on_quiet_cpu() -> Iterator[None]:
    """Pin this process, and so the children it starts meanwhile, to the
    CPU that runs :func:`_probe_kernel` fastest right now.

    On a shared host each CPU's speed switches between a fast and a
    ~1.8x slower state, independently and for seconds at a time
    (README.md, "Noise"), so a single-process repetition started on the
    CPU that is fast now usually runs in the fast state.
    """
    if not hasattr(os, "sched_setaffinity"):
        yield
        return
    cpus = os.sched_getaffinity(0)
    try:
        if len(cpus) > 1:
            timings = []
            for cpu in sorted(cpus)[:8]:
                os.sched_setaffinity(0, {cpu})
                start = perf_counter()
                _probe_kernel()
                timings.append((perf_counter() - start, cpu))
            os.sched_setaffinity(0, {min(timings)[1]})
        yield
    finally:
        os.sched_setaffinity(0, cpus)


class Invocation:
    """Runs child processes for one workload inside a scratch directory."""

    def __init__(self, name: str, seed: int, smoke: bool, work: Path) -> None:
        self.name = name
        self.seed = seed
        self.smoke = smoke
        self.work = work
        # Sweeps need every CPU for their workers; the rest run in one
        # process and are pinned to a quiet CPU.
        self.pin = WORKLOADS[name].kind in ("run", "replay")
        self.started = monotonic()
        self._count = 0
        env = dict(os.environ)
        paths = [str(SRC), str(ROOT)]
        if env.get("PYTHONPATH"):
            paths.append(env["PYTHONPATH"])
        env["PYTHONPATH"] = os.pathsep.join(paths)
        env["TMPDIR"] = str(work)
        self.env = env

    def child(self, **spec: Any) -> Dict[str, Any]:
        """Run one child to completion; its result (or a failure)."""
        self._count += 1
        rep_dir = self.work / f"rep{self._count}"
        rep_dir.mkdir()
        spec.update(
            workload=self.name,
            seed=self.seed,
            smoke=self.smoke,
            src=str(SRC),
            work=str(rep_dir),
            out=str(rep_dir / "result.json"),
        )
        spec_path = rep_dir / "spec.json"
        spec_path.write_text(json.dumps(spec))
        remaining = BUDGET_S - (monotonic() - self.started)
        pin = self.pin and not spec.get("fixture")
        with open(rep_dir / "child.log", "w") as log:
            with on_quiet_cpu() if pin else contextlib.nullcontext():
                t_spawn = monotonic()
                proc = subprocess.Popen(
                    [sys.executable, "-m", "benchmarks.e2e.child",
                     str(spec_path), repr(t_spawn)],
                    cwd=ROOT, env=self.env, stdout=log, stderr=subprocess.STDOUT,
                    stdin=subprocess.DEVNULL, start_new_session=True,
                )
            try:
                proc.wait(timeout=max(remaining, 1.0))
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                return {"ok": False, "failures": ["timed out"]}
        try:
            result = json.loads((rep_dir / "result.json").read_text())
        except (OSError, ValueError):
            log_text = (rep_dir / "child.log").read_text()[-2000:]
            result = {"ok": False, "failures": ["no result"], "error": log_text}
        if not spec.get("fixture"):
            shutil.rmtree(rep_dir, ignore_errors=True)
        return result

    def out_of_time(self) -> bool:
        """Past the point where a new repetition (and the traced one after
        it) could still finish within the budget."""
        return monotonic() - self.started > BUDGET_S * 0.6


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    want_e2e: bool,
    want_layers: bool,
    smoke: bool = False,
    expected: Optional[Dict[str, str]] = None,
    chrome_path: Optional[str] = None,
) -> Dict[str, Any]:
    """Measure one workload; returns its record (see module docstring).

    ``expected`` maps ``<workload>`` (results digest) and
    ``<workload>.trace`` (replay fixture digest) to the values the run
    must reproduce; None skips that comparison.
    """
    wl = WORKLOADS[name]
    expected = expected or {}
    work = WORK_ROOT / f"{os.getpid()}-{name}"
    work.mkdir(parents=True)
    try:
        inv = Invocation(name, seed, smoke, work)
        return _measure(inv, wl, seconds, want_e2e, want_layers, expected, chrome_path)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            WORK_ROOT.rmdir()


def _measure(inv, wl, seconds, want_e2e, want_layers, expected, chrome_path):
    failures: List[str] = []  # one line per failed operation
    attempted = 0
    fixture: Dict[str, Any] = {}
    want = expected.get(wl.name)
    if wl.kind in ("replay", "service"):
        attempted += 1
        fixture = inv.child(fixture=True)
        problems = list(fixture.get("failures", []))
        trace_digest = expected.get(f"{wl.name}.trace")
        if trace_digest and fixture.get("trace_digest") != trace_digest:
            problems.append("trace digest differs from expected.json")
        reference = fixture.get("reference")
        if want is None:
            want = reference
        elif reference != want:
            problems.append("reference digest differs from expected.json")
        if problems:
            failures.append(f"fixture: {', '.join(problems)} {fixture.get('error', '')}")
        if wl.kind == "replay" and not fixture.get("trace"):
            return _record(wl.name, attempted, failures, [], None, want_e2e, False)

    base = {"probe": want_layers, "trace": fixture.get("trace")}
    reps: List[Dict[str, Any]] = []
    deadline = monotonic() + seconds
    last = 0.0
    while len(reps) < MIN_REPS or monotonic() + last / 2 < deadline:
        if reps and inv.out_of_time():
            break
        start = monotonic()
        reps.append(inv.child(**base))
        last = monotonic() - start
    traced = None
    if want_layers:
        traced = inv.child(traced=True, trace=base["trace"], chrome=chrome_path)
    for i, rep in enumerate(reps + ([traced] if traced else [])):
        attempted += 1
        label = "traced" if rep is traced else f"rep {i + 1}"
        if want is None and rep.get("ok"):
            want = rep.get("digest")
        if not rep.get("ok"):
            failures.append(
                f"{label}: {', '.join(rep.get('failures', []))} "
                f"{rep.get('error', '')}"
            )
        elif rep.get("digest") != want:
            failures.append(f"{label}: results digest differs from reference")
    record = _record(wl.name, attempted, failures, reps, traced, want_e2e, want_layers)
    record["digest"] = want
    if "trace_digest" in fixture:
        record["trace_digest"] = fixture["trace_digest"]
    record["code_version"] = next(
        (r["code_version"] for r in reps if "code_version" in r), None
    )
    return record


def _record(name, attempted, failures, reps, traced, want_e2e, want_layers):
    ok = [r for r in reps if r.get("ok")]
    metrics: Dict[str, Dict[str, Any]] = {}
    if want_e2e:
        for metric, (unit, better, stat) in E2E.items():
            values = [r[metric] for r in ok if metric in r]
            metrics[metric] = summarize(values, unit, better, stat)
    if want_layers:
        samples: Dict[str, List[float]] = {m: [] for m in PER_LAYER}
        for rep in ok:
            for metric, value in rep.get("probe", {}).items():
                samples[metric].append(value)
        if traced is not None and traced.get("ok"):
            for layer, row in traced["layers"].items():
                for column, value in row.items():
                    samples[f"{layer}.{column}"].append(value)
            walls = [r["wall_s"] for r in ok]
            if walls:
                samples["trace_overhead"].append(
                    traced["wall_s"] / statistics.median(walls)
                )
        for metric, (unit, better) in PER_LAYER.items():
            metrics[metric] = summarize(samples[metric], unit, better, "median")
    return {
        "workload": name,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "metrics": metrics,
    }


def print_record(record: Dict[str, Any]) -> None:
    name = record["workload"]
    for metric, m in record["metrics"].items():
        print(
            f"{name:<12} {metric:<32} {m['value']:>14.6g} {m['unit']:<10} "
            f"{m['stat']} of n={m['n']}: median={m['median']:.6g} "
            f"q1={m['q1']:.6g} q3={m['q3']:.6g}"
        )
    for failure in record["failures"]:
        print(f"{name:<12} FAILED: {failure.strip()}")
    print(
        f"{name:<12} attempted={record['attempted']} failed={record['failed']}",
        flush=True,
    )


def load_expected(seed: int, smoke: bool) -> Optional[Dict[str, str]]:
    """Digests the run must reproduce: only for the seed they were made at."""
    data = json.loads(EXPECTED.read_text())
    if seed != data["seed"]:
        return None
    return data["smoke" if smoke else "full"]


def host_info() -> Dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="benchmarks.e2e", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=1984,
                        help="workload seed (default 1984)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measuring time per workload (default 10)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics, 1: per-layer metrics "
                        "(default: both)")
    parser.add_argument("--out", metavar="DIR",
                        help="write the JSON record (and Chrome traces) here")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for checking that the benchmark works")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two records instead of measuring")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if args.compare:
        return compare_mod.main(*args.compare)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"benchmarks.e2e: no repro package under {SRC}", file=sys.stderr)
        return 2
    compileall.compile_dir(str(SRC), quiet=1)
    names = args.workload or list(WORKLOADS)
    want_e2e = args.trace != 1
    want_layers = args.trace != 0
    expected = load_expected(args.seed, args.smoke)
    out_dir = Path(args.out) if args.out else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    records = {}
    for name in names:
        chrome = None
        if out_dir is not None and want_layers:
            chrome = str((out_dir / f"{name}.trace.json").resolve())
        record = run_workload(
            name, args.seed, args.seconds, want_e2e, want_layers,
            smoke=args.smoke, expected=expected, chrome_path=chrome,
        )
        print_record(record)
        records[name] = record
    attempted = sum(r["attempted"] for r in records.values())
    failed = sum(r["failed"] for r in records.values())
    if out_dir is not None:
        path = out_dir / f"e2e-seed{args.seed}.json"
        path.write_text(json.dumps({
            "schema": "repro-e2e-v1",
            "seed": args.seed,
            "seconds": args.seconds,
            "smoke": args.smoke,
            "host": host_info(),
            "workloads": records,
        }, indent=1))
        print(f"record written to {path}")
    single = len(records) == 1
    metrics = {
        (metric if single else f"{name}.{metric}"): {
            "value": m["value"], "unit": m["unit"],
        }
        for name, record in records.items()
        for metric, m in record["metrics"].items()
    }
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
