"""One repetition of a benchmark workload, in a fresh process.

Run by ``run.py`` as ``python -m benchmarks.e2e.child SPEC.json T``,
where ``T`` is ``time.monotonic()`` just before the spawn; the spec
names the workload, seed and size, the files to use and whether to
trace or probe.  The child times its set-up from ``T`` (interpreter
start, ``import repro``, the first ``Experiment.build()``, plus the
fleet start for ``service``),
runs the workload's operation once, checks it, and writes a JSON result
to the spec's ``out`` path.  Everything it writes goes under the spec's
``work`` directory.

A spec with ``"fixture": true`` instead prepares what a workload needs
before any timing: the recorded trace for ``replay`` (with the digest of
its plain replay) and the local sweep that ``service`` must equal.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from time import monotonic, perf_counter
from typing import Any, Dict, List, Optional

from benchmarks.e2e.workloads import (
    REPLAY_SOURCE,
    SWEEP_WORKERS,
    WORKLOADS,
    Workload,
    replay_checkpoint_every,
    sweep_grid,
)


def digest(results: List[Dict[str, Any]]) -> str:
    """sha256 of a list of ``results.to_dict()`` outputs (sorted keys)."""
    text = json.dumps(results, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def file_digest(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def expected_refs(kwargs: Dict[str, Any], grid: Optional[Dict] = None) -> int:
    """Measured references the run must report: processors x refs."""
    if grid is None:
        return kwargs["n_processors"] * kwargs["refs_per_proc"]
    points = 1
    for axis, values in grid.items():
        if axis != "n_processors":
            points *= len(values)
    return points * sum(grid["n_processors"]) * kwargs["refs_per_proc"]


class MachineRunTimer:
    """Accumulates host seconds spent in ``Machine.run`` (the simulation
    loop, warm-up included), which is the denominator of ``refs_per_s``
    for single-machine workloads."""

    def __init__(self, machine_cls) -> None:
        self.seconds = 0.0
        original = machine_cls.run
        timer = self

        def run(self, *args, **kwargs):
            start = perf_counter()
            try:
                return original(self, *args, **kwargs)
            finally:
                timer.seconds += perf_counter() - start

        machine_cls.run = run


class Fleet:
    """A loopback ``repro serve`` coordinator with ``repro work`` agents."""

    def __init__(self, work: str, n_workers: int) -> None:
        self.procs: List[subprocess.Popen] = []
        self.url = ""
        self._work = work
        self._n_workers = n_workers

    def _spawn(self, args: List[str], log: str) -> subprocess.Popen:
        with open(os.path.join(self._work, log), "w") as handle:
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro", *args],
                stdout=handle,
                stderr=subprocess.STDOUT,
                stdin=subprocess.DEVNULL,
            )
        self.procs.append(proc)
        return proc

    def start(self, timeout: float = 60.0) -> None:
        from repro.runner.service.wire import request_json

        dirs = {
            name: os.path.join(self._work, f"svc-{name}")
            for name in ("cache", "ckpt", "progress")
        }
        coordinator = self._spawn(
            [
                "serve", "--port", "0",
                "--cache-dir", dirs["cache"],
                "--checkpoint-dir", dirs["ckpt"],
                "--progress-dir", dirs["progress"],
            ],
            "coordinator.log",
        )
        deadline = monotonic() + timeout
        log = os.path.join(self._work, "coordinator.log")
        while not self.url:
            if coordinator.poll() is not None or monotonic() > deadline:
                raise RuntimeError("coordinator did not announce its URL")
            with open(log) as handle:
                for line in handle:
                    if "listening on" in line:
                        self.url = line.split()[-1]
            time.sleep(0.005)
        for i in range(self._n_workers):
            self._spawn(
                ["work", "--coordinator", self.url, "--poll", "0.02"],
                f"worker{i}.log",
            )
        while request_json(self.url, "GET", "/healthz")["workers"] < self._n_workers:
            if monotonic() > deadline:
                raise RuntimeError("workers did not register")
            time.sleep(0.005)

    def stop(self) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in self.procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()


class Repetition:
    """State of one repetition; :meth:`run` fills :attr:`out`."""

    def __init__(self, spec: Dict[str, Any]) -> None:
        self.spec = spec
        self.wl: Workload = WORKLOADS[spec["workload"]]
        self.smoke = bool(spec["smoke"])
        self.kwargs = self.wl.experiment_kwargs(spec["seed"], self.smoke)
        self.work = spec["work"]
        self.out: Dict[str, Any] = {"ok": False, "failures": []}
        self.fleet: Optional[Fleet] = None
        self.held = None  # the machine probes look at after the op
        self.report = None  # sweep report (sweep/service)

    def fail(self, check: str) -> None:
        self.out["failures"].append(check)

    # ------------------------------------------------------------------
    def run(self) -> Dict[str, Any]:
        spec = self.spec
        start = perf_counter()
        import repro
        from repro.runner.cache import code_version

        self.out["import_s"] = perf_counter() - start
        self.timer = MachineRunTimer(repro.Machine)
        if self.wl.kind == "replay":
            self.kwargs["workload"] = f"trace:{spec['trace']}"
        self.experiment = repro.Experiment(**self.kwargs)
        start = perf_counter()
        self.held, _ = self.experiment.build()
        self.out["build1_s"] = perf_counter() - start
        try:
            if self.wl.kind == "service":
                self.fleet = Fleet(self.work, SWEEP_WORKERS)
                self.fleet.start()
            self.out["setup_s"] = monotonic() - spec["t_spawn"]
            if spec.get("traced"):
                self._traced_op()
            else:
                self._op()
            if spec.get("probe"):
                self._probe()
        finally:
            if self.fleet is not None:
                self.fleet.stop()
        usage = max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        )
        self.out["peak_rss_mb"] = usage / 1024.0
        self.out["code_version"] = code_version()
        self.out["ok"] = not self.out["failures"]
        return self.out

    def _traced_op(self) -> None:
        from benchmarks.e2e.trace import LayerTracer

        with LayerTracer(self.spec["src"]) as tracer:
            self._op()
        self.out["layers"] = tracer.table(self.out["refs"])
        if self.spec.get("chrome"):
            tracer.write_chrome_trace(self.spec["chrome"])

    def _op(self) -> None:
        kind = self.wl.kind
        results: List[Dict[str, Any]]
        if kind == "run":
            start = perf_counter()
            outcome = self.experiment.run(**self.wl.run)
            self.out["wall_s"] = perf_counter() - start
            results = [outcome.results.to_dict()]
            self.held = outcome.machine
            want = expected_refs(self.kwargs)
            sim_s = self.timer.seconds
        elif kind == "replay":
            from repro import resume

            path = os.path.join(self.work, "replay.ckpt")
            start = perf_counter()
            outcome = self.experiment.run(
                checkpoint_every=replay_checkpoint_every(self.smoke),
                checkpoint_path=path,
            )
            mid = perf_counter()
            resumed = resume(path)
            end = perf_counter()
            self.out["wall_s"] = end - start
            self.out["resume_s"] = end - mid
            results = [outcome.results.to_dict()]
            if [resumed.results.to_dict()] != results:
                self.fail("resume() result differs from the replay's")
            self.held = outcome.machine
            want = outcome.machine.config.n_processors * self.kwargs["refs_per_proc"]
            sim_s = self.timer.seconds
        else:
            grid = sweep_grid(self.smoke)
            progress = os.path.join(self.work, "progress.jsonl")
            options: Dict[str, Any] = {"progress_out": progress}
            if kind == "service":
                options["service"] = self.fleet.url
            else:
                options["workers"] = SWEEP_WORKERS
                options["cache_dir"] = os.path.join(self.work, "sweep-cache")
            started_at = time.time()
            start = perf_counter()
            report = self.experiment.sweep(grid, **options)
            self.out["wall_s"] = perf_counter() - start
            if kind == "service":
                # The client asks for the sweep's status every 0.2 s, which
                # rounds its wall time up to whole polls (a third of the
                # operation); end at the coordinator's sweep-end instead.
                self.out["wall_s"] = sweep_end_time(progress) - started_at
            results = list(report.results)
            if report.executed != len(results):
                self.fail("sweep was not cold")
            self.report = report
            want = expected_refs(self.kwargs, grid)
            sim_s = self.out["wall_s"]
        refs = sum(r["total_refs"] for r in results)
        if refs != want:
            self.fail(f"total_refs {refs} != {want}")
        self.out["refs"] = refs
        self.out["refs_per_s"] = refs / sim_s
        self.out["digest"] = digest(results)
        self.results = results

    # ------------------------------------------------------------------
    def _probe(self) -> None:
        """Per-layer measurements taken outside the timed operation."""
        from repro import checkpoint
        from repro.verification.audit import audit_machine

        probe: Dict[str, float] = {}
        start = perf_counter()
        self.experiment.build()
        probe["system.build_s"] = perf_counter() - start
        probe["system.import_s"] = self.out["import_s"]
        probe["system.lazy_setup_s"] = self.out["build1_s"] - probe["system.build_s"]

        path = os.path.join(self.work, "probe.ckpt")
        start = perf_counter()
        checkpoint.save(self.held, path)
        probe["checkpoint.save_s"] = perf_counter() - start
        probe["checkpoint.bytes"] = float(os.path.getsize(path))
        start = perf_counter()
        checkpoint.load(path)
        probe["checkpoint.load_s"] = perf_counter() - start
        probe["checkpoint.resume_s"] = self.out.get("resume_s", 0.0)
        start = perf_counter()
        audit_machine(self.held)
        probe["verification.audit_s"] = perf_counter() - start

        probe.update(counts(self.results, self.out["refs"]))
        if self.wl.kind in ("run", "replay"):
            config = self.held.config
            simulated = config.n_processors * (
                self.kwargs["refs_per_proc"] + self.kwargs["warmup_refs"]
            )
            probe["sim.events_per_ref"] = self.held.sim.events_processed / simulated
        else:
            probe["sim.events_per_ref"] = 0.0
        probe.update(runner_metrics(self.report, self.out["wall_s"], self.work))
        self.out["probe"] = probe


def counts(results: List[Dict[str, Any]], refs: int) -> Dict[str, float]:
    """Exact per-layer counts from the public result counters."""

    def total(name: str) -> float:
        return sum(r["totals"].get(name, 0.0) for r in results)

    refs = max(refs, 1)
    misses = sum(r["miss_ratio"] * r["total_refs"] for r in results)
    delivered = total("commands") + total("data_transfers")
    sent = delivered - total("broadcast_deliveries") + total("broadcasts")
    txns = total("transactions")
    return {
        "protocols.hit_frac": 1.0 - misses / refs,
        "core.txns_per_ref": txns / refs,
        "core.nak_frac": total("naks_sent") / txns if txns else 0.0,
        "interconnect.msgs_per_ref": sent / refs,
        "interconnect.deliveries_per_ref": delivered / refs,
    }


def sweep_end_time(progress: str) -> float:
    """Wall-clock time of the ``sweep-end`` event in a progress stream."""
    from repro.obs import read_progress

    return next(
        r["t"] for r in read_progress(progress) if r["event"] == "sweep-end"
    )


def runner_metrics(report, wall: float, work: str) -> Dict[str, float]:
    """Sweep-runner costs from the report and the public progress stream."""
    if report is None:
        return {
            "runner.dispatch_wait_s": 0.0,
            "runner.point_s": 0.0,
            "runner.overhead_frac": 0.0,
        }
    from repro.obs import read_progress

    queued: Dict[int, float] = {}
    waits = []
    for record in read_progress(os.path.join(work, "progress.jsonl")):
        if record["event"] == "point-queued":
            queued[record["index"]] = record["t"]
        elif record["event"] == "point-running" and record["index"] in queued:
            waits.append(record["t"] - queued.pop(record["index"]))
    elapsed = [o.elapsed for o in report.outcomes]
    return {
        "runner.dispatch_wait_s": statistics.median(waits) if waits else 0.0,
        "runner.point_s": statistics.median(elapsed),
        "runner.overhead_frac": 1.0 - sum(elapsed) / (SWEEP_WORKERS * wall),
    }


# ----------------------------------------------------------------------
def fixture(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Inputs and reference results, made once per invocation."""
    import repro

    wl = WORKLOADS[spec["workload"]]
    smoke = bool(spec["smoke"])
    kwargs = wl.experiment_kwargs(spec["seed"], smoke)
    out: Dict[str, Any] = {"ok": True, "failures": []}
    if wl.kind == "replay":
        trace = os.path.join(spec["work"], "fixture.trace")
        sizes = {k: kwargs[k] for k in ("refs_per_proc", "warmup_refs", "seed")}
        recorded = repro.Experiment(**REPLAY_SOURCE, **sizes).run(
            record_trace=trace
        )
        replayed = repro.Experiment(
            **wl.experiment, **sizes, workload=f"trace:{trace}"
        ).run()
        out["trace"] = trace
        out["trace_digest"] = file_digest(trace)
        out["reference"] = digest([replayed.results.to_dict()])
        if digest([recorded.results.to_dict()]) != out["reference"]:
            out["failures"].append("plain replay differs from the recorded run")
    elif wl.kind == "service":
        report = repro.Experiment(**kwargs).sweep(
            sweep_grid(smoke),
            workers=SWEEP_WORKERS,
            cache_dir=os.path.join(spec["work"], "fixture-cache"),
        )
        out["reference"] = digest(list(report.results))
    out["ok"] = not out["failures"]
    return out


def main(argv: List[str]) -> int:
    with open(argv[1]) as handle:
        spec = json.load(handle)
    spec["t_spawn"] = float(argv[2])
    try:
        out = fixture(spec) if spec.get("fixture") else Repetition(spec).run()
    except Exception:
        out = {"ok": False, "failures": ["raised"], "error": traceback.format_exc()}
    with open(spec["out"], "w") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
