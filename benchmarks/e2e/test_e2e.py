"""Self-test of the end-to-end benchmark: ``python -m pytest benchmarks/e2e -q``.

Runs every workload at smoke size through the command line, checks the
printed metrics against ``BENCHMARK.json``, and unit-tests the tracer,
the digest gate and the compare verdicts.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.e2e import compare
from benchmarks.e2e.run import E2E, PER_LAYER, ROOT, run_workload, summarize
from benchmarks.e2e.trace import LAYERS, LayerTracer
from benchmarks.e2e.workloads import WORKLOADS

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_the_code():
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert SPEC["command"][1] == "benchmarks/e2e/run.py"
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        name: wl.why for name, wl in WORKLOADS.items()
    }
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]} == {
        name: (unit, better) for name, (unit, better, _stat) in E2E.items()
    }
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == PER_LAYER
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.fixture(scope="module")
def smoke_run():
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--smoke", "--seconds", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    return proc


def test_smoke_prints_every_named_metric_and_no_other(smoke_run):
    assert smoke_run.returncode == 0, smoke_run.stdout[-3000:] + smoke_run.stderr
    lines = smoke_run.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 4 * len(WORKLOADS)
    named = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    printed = {}
    for line in lines[:-1]:
        fields = line.split()
        if len(fields) >= 4 and fields[0] in WORKLOADS and fields[1] in named:
            printed[(fields[0], fields[1])] = fields[3]
        elif len(fields) >= 4 and fields[0] in WORKLOADS and "=" not in fields[1]:
            pytest.fail(f"unnamed metric printed: {line}")
    for workload in WORKLOADS:
        for metric, unit in named.items():
            assert printed.get((workload, metric)) == unit, (workload, metric)
            assert result["metrics"][f"{workload}.{metric}"]["unit"] == unit


def test_smoke_layer_tables(smoke_run):
    metrics = json.loads(smoke_run.stdout.splitlines()[-1])["metrics"]
    for workload in WORKLOADS:
        shares = [metrics[f"{workload}.{layer}.self_frac"]["value"] for layer in LAYERS]
        assert sum(shares) == pytest.approx(1.0, abs=0.01)
        obs = metrics[f"{workload}.obs.self_frac"]["value"]
        if workload == "instrumented":
            assert obs > 0.01
        elif WORKLOADS[workload].kind in ("run", "replay"):
            assert obs == 0.0
    assert metrics["replay.checkpoint.self_frac"]["value"] > 0
    assert metrics["sweep.runner.self_frac"]["value"] > 0.5


def test_corrupted_digest_counts_as_failures():
    record = run_workload(
        "mixed", seed=1984, seconds=0, want_e2e=True, want_layers=False,
        smoke=True, expected={"mixed": "0" * 64},
    )
    assert record["attempted"] >= 3
    assert record["failed"] == record["attempted"]
    assert "digest differs" in record["failures"][0]


def _fake_module(src: Path, layer: str, source: str) -> dict:
    """Functions whose code claims to live in ``src/repro/<layer>/``."""
    namespace: dict = {}
    filename = str(src / "repro" / layer / "fake.py")
    exec(compile(source, filename, "exec"), namespace)
    return namespace


def test_tracer_balances_generator_spans(tmp_path):
    gen_mod = _fake_module(tmp_path, "workloads", (
        "def stream():\n"
        "    i = 0\n"
        "    while True:\n"
        "        yield i\n"
        "        i += 1\n"
        "def local_pull(it):\n"
        "    return next(it)\n"
    ))
    user = _fake_module(tmp_path, "protocols", (
        "def remote_pull(it, local_pull):\n"
        "    return next(it) + local_pull(it)\n"
    ))
    it = gen_mod["stream"]()
    with LayerTracer(str(tmp_path)) as tracer:
        for _ in range(100):
            user["remote_pull"](it, gen_mod["local_pull"])
            gen_mod["local_pull"](it)
    # Each round enters protocols once and workloads twice from outside
    # (the generator from protocols, local_pull from protocols); the
    # generator resumed from inside workloads opens no span.
    assert tracer.calls["protocols"] == 100
    assert tracer.calls["workloads"] == 300
    assert len(tracer.spans) == 400 + 1  # plus the root
    root = tracer.spans[-1]
    assert root[0] == "other"
    # The hook's own bookkeeping is excluded from every layer.
    assert 0 < sum(tracer.self_ns.values()) <= root[2] - root[1]
    table = tracer.table(refs=100)
    assert sum(row["self_frac"] for row in table.values()) == pytest.approx(1.0)
    out = tmp_path / "trace.json"
    tracer.write_chrome_trace(str(out))
    assert len(json.loads(out.read_text())["traceEvents"]) == 401


def _metric(values, better="lower", stat="median"):
    return summarize(list(values), "s", better, stat)


def _record(digest, **metrics):
    return {"workloads": {"mixed": {"digest": digest, "metrics": {
        name: _metric(values) for name, values in metrics.items()
    }}}}


@pytest.mark.parametrize("a, b, better, stat, want", [
    ([100, 101, 102, 103], [104, 105, 106, 107], "lower", "median", "within"),
    ([100, 101, 102, 103], [120, 121, 122, 123], "lower", "median", "regressed"),
    ([100, 101, 102, 103], [120, 121, 122, 123], "higher", "median", "within"),
    ([100, 101, 102, 103], [80, 81, 82, 83], "higher", "median", "regressed"),
    ([60, 100, 140, 180], [100, 101, 102, 103], "lower", "median", "unresolved"),
    ([130, 150, 170, 190], [60, 70, 80, 90], "lower", "median", "within"),
    # The best repetition is steady even when the median is not.
    ([100, 101, 160, 190], [104, 105, 170, 180], "lower", "best", "within"),
    ([100, 101, 160, 190], [115, 116, 170, 180], "lower", "best", "regressed"),
    ([100, 150, 160, 190], [104, 150, 170, 180], "lower", "best", "unresolved"),
])
def test_compare_verdicts(a, b, better, stat, want):
    assert compare.verdict(
        _metric(a, better, stat), _metric(b, better, stat), 0.10
    ) == want


def test_compare_reports_digest_and_regressions():
    bounds = {"wall_s": 0.10}
    a = _record("x", wall_s=[1.0, 1.0, 1.01, 1.02])
    lines, passed = compare.compare(a, _record("x", wall_s=[1.0, 1.01, 1.02, 1.03]), bounds)
    assert passed and lines[-1].endswith("within")
    lines, passed = compare.compare(a, _record("y", wall_s=[1.0, 1.01, 1.02, 1.03]), bounds)
    assert not passed and "digest differs" in lines[0]
    lines, passed = compare.compare(a, _record("x", wall_s=[1.3, 1.31, 1.32, 1.33]), bounds)
    assert not passed and lines[-1].endswith("regressed")
