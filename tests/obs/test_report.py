"""`repro report`: document building, markdown, CLI."""

import json

import pytest

from repro.obs.report import build_report, render_markdown
from repro.obs.rollup import rollup_results
from repro.schema import SCHEMA_VERSION


def _result(protocol="twobit", refs=100, **overrides):
    base = {
        "schema_version": SCHEMA_VERSION,
        "protocol": protocol,
        "n_processors": 4,
        "total_refs": refs,
        "cycles": refs * 5,
        "extra_commands_per_ref": 0.02 if protocol == "twobit" else 0.0,
        "commands_per_ref": 0.05,
        "avg_latency": 6.0,
        "miss_ratio": 0.15,
        "traffic_per_ref": 1.1,
        "broadcasts": 7,
        "invalidations_applied": 3,
        "writebacks": 2,
        "totals": {"naks_sent": 4.0},
    }
    base.update(overrides)
    return base


def _rollups():
    return rollup_results(
        [
            (_result("twobit"), None, "q=0.05"),
            (_result("fullmap"), None, "q=0.05"),
        ]
    )


# ----------------------------------------------------------------------
# Report document + markdown
# ----------------------------------------------------------------------
def test_build_report_defaults_baseline_to_fullmap():
    report = build_report(_rollups())
    assert report["baseline"] == "fullmap"
    assert report["schema_version"] == SCHEMA_VERSION
    assert sorted(report["groups"]) == ["fullmap", "twobit"]


def test_render_markdown_has_comparative_table_and_delta():
    md = render_markdown(build_report(_rollups()))
    assert "| fullmap |" in md and "| twobit |" in md
    assert "(baseline)" in md
    assert "+0.0200" in md  # twobit's overhead delta vs the zero baseline


def test_render_markdown_lists_missing_points():
    report = build_report(_rollups(), missing=["q=0.2, protocol=twobit"])
    md = render_markdown(report)
    assert "Missing points" in md
    assert "q=0.2, protocol=twobit" in md


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_report_renders_from_cached_store(tmp_path, capsys):
    from repro.cli import main

    cache = str(tmp_path / "cache")
    args = [
        "--axis", "protocol=twobit,fullmap",
        "--refs", "120", "--warmup", "30", "-n", "2",
        "--cache-dir", cache,
    ]
    assert main(["sweep", "--metrics", *args]) == 0
    capsys.readouterr()
    assert main(["report", *args]) == 0
    out = capsys.readouterr().out
    assert "# Sweep report" in out
    assert "| fullmap |" in out and "| twobit |" in out
    assert "Latency (merged buckets)" in out


def test_cli_report_ignores_bench_files_in_the_working_directory(
    tmp_path, capsys, monkeypatch
):
    # The report reads the sweep cache and nothing else: a bench record
    # in the working directory (the file name the retired kernel-speed
    # snapshot used, claiming a regression) neither changes the output
    # nor the exit status.
    from repro.cli import main

    args = [
        "--axis", "q=0.02",
        "--refs", "120", "--warmup", "30", "-n", "2",
        "--cache-dir", str(tmp_path / "cache"),
    ]
    workdir = tmp_path / "work"
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    assert main(["sweep", "--metrics", *args]) == 0
    capsys.readouterr()
    assert main(["report", *args]) == 0
    clean = capsys.readouterr()
    (workdir / "BENCH_kernel.json").write_text(json.dumps({
        "benchmarks": {
            "test_machine_reference_throughput": {
                "unit": "refs", "speedup_vs_baseline": 0.5,
            },
        },
    }))
    assert main(["report", *args]) == 0
    assert capsys.readouterr() == clean


def test_cli_report_json_and_missing_points(tmp_path, capsys):
    from repro.cli import main

    cache = str(tmp_path / "cache")
    seed_args = [
        "--axis", "q=0.02",
        "--refs", "120", "--warmup", "30", "-n", "2",
        "--cache-dir", cache,
    ]
    assert main(["sweep", "--metrics", *seed_args]) == 0
    capsys.readouterr()
    wider = [
        "--axis", "q=0.02,0.1",
        "--refs", "120", "--warmup", "30", "-n", "2",
        "--cache-dir", cache,
    ]
    assert main(["report", *wider, "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["missing_points"] == ["q=0.1"]
    assert "twobit" in report["groups"]


def test_cli_report_run_missing_fills_the_gap(tmp_path, capsys):
    from repro.cli import main

    cache = str(tmp_path / "cache")
    args = [
        "--axis", "q=0.02,0.1",
        "--refs", "120", "--warmup", "30", "-n", "2",
        "--cache-dir", cache,
    ]
    assert main(["report", *args, "--run-missing", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["missing_points"] == []
    assert report["groups"]["twobit"]["n_runs"] == 2
    # Second invocation is pure cache hits and identical.
    assert main(["report", *args, "--format", "json"]) == 0
    again = json.loads(capsys.readouterr().out)
    assert again["groups"] == report["groups"]


def test_cli_report_errors_on_empty_cache(tmp_path):
    from repro.cli import main

    with pytest.raises(SystemExit, match="no cached results"):
        main(
            [
                "report",
                "--axis", "q=0.02",
                "--cache-dir", str(tmp_path / "empty"),
            ]
        )
