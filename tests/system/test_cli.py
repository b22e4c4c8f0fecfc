"""Command-line interface."""

import json

import pytest

from repro.cli import main, make_parser


def test_tables_thresholds(capsys):
    assert main(["tables", "thresholds"]) == 0
    out = capsys.readouterr().out
    assert "paper says" in out


def test_tables_4_1_verbose(capsys):
    assert main(["tables", "4-1", "-v"]) == 0
    out = capsys.readouterr().out
    assert "case 1" in out
    assert "60/60 cells" in out


def test_tables_4_2(capsys):
    assert main(["tables", "4-2"]) == 0
    assert "q = 0.01" in capsys.readouterr().out


def test_tables_all_default(capsys):
    assert main(["tables"]) == 0
    out = capsys.readouterr().out
    assert "Table 4-1" in out and "Table 4-2" in out and "paper says" in out


def test_topology_render(capsys):
    assert main(["topology", "-n", "8", "-m", "4", "--network", "bus"]) == 0
    out = capsys.readouterr().out
    assert "8 processor-cache pairs" in out
    assert "shared bus" in out


def test_topology_build(capsys):
    assert main(["topology", "--build", "-n", "2"]) == 0
    out = capsys.readouterr().out
    assert "directory storage" in out


def test_run_twobit(capsys):
    code = main(
        ["run", "--protocol", "twobit", "-n", "2", "--refs", "300",
         "--warmup", "100"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "coherence audit: CLEAN" in out
    assert "extra commands" in out


def test_run_with_enhancements(capsys):
    code = main(
        ["run", "--protocol", "twobit", "-n", "2", "--refs", "200",
         "--tbuf", "8", "--dup-dir"]
    )
    assert code == 0
    assert "CLEAN" in capsys.readouterr().out


def test_run_snoop_protocol_forces_bus(capsys):
    code = main(
        ["run", "--protocol", "illinois", "-n", "2", "--refs", "200"]
    )
    assert code == 0


def test_run_verbose_prints_histogram_and_occupancy(capsys):
    code = main(
        ["run", "--protocol", "twobit", "-n", "2", "--refs", "200",
         "--warmup", "50", "-v"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "p95" in out  # histogram summary
    assert "PRESENT_STAR" in out  # occupancy block


def test_spec_command(capsys):
    assert main(["spec"]) == 0
    out = capsys.readouterr().out
    assert "BROADQUERY" in out and "PRESENTM" in out
    assert "Cache side (§3.2)" in out


def test_parser_rejects_unknown_protocol():
    parser = make_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["run", "--protocol", "nonsense"])


def test_command_required():
    with pytest.raises(SystemExit):
        main([])


def test_check_smoke_single_protocol(capsys):
    code = main(
        ["check", "--protocol", "twobit", "--depth", "smoke",
         "--differential", "1"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS (exhausted)" in out
    assert "all protocols agree" in out


def test_check_accepts_protocol_alias(capsys):
    code = main(
        ["check", "--protocol", "two_bit", "--depth", "smoke",
         "--differential", "0"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "twobit" in out


def test_check_replay_prints_trace(capsys):
    code = main(
        ["check", "--protocol", "twobit", "--scenario", "smoke-2p1b",
         "--replay", "0,1", "--differential", "0"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "replay twobit/smoke-2p1b" in out
    assert "t=0" in out


def test_check_unknown_scenario_exits(capsys):
    with pytest.raises(SystemExit, match="unknown scenario"):
        main(["check", "--protocol", "twobit", "--scenario", "nope"])


def test_trace_writes_chrome_trace(tmp_path, capsys):
    out_path = tmp_path / "trace.json"
    code = main(
        ["trace", "--protocol", "twobit", "-n", "2", "--refs", "200",
         "--warmup", "50", "--out", str(out_path)]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "ui.perfetto.dev" in out
    trace = json.loads(out_path.read_text())
    names = {
        e["args"]["name"] for e in trace["traceEvents"] if e["ph"] == "M"
    }
    assert {"P0", "P1"} <= names
    assert any(e.get("cat") == "span" for e in trace["traceEvents"])
    assert trace["otherData"]["protocol"] == "twobit"


def test_run_metrics_out_jsonl(tmp_path, capsys):
    metrics_path = tmp_path / "metrics.jsonl"
    code = main(
        ["run", "--protocol", "twobit", "-n", "2", "--refs", "300",
         "--warmup", "100", "--metrics-out", str(metrics_path)]
    )
    assert code == 0
    records = [
        json.loads(line) for line in metrics_path.read_text().splitlines()
    ]
    by_kind = {}
    for record in records:
        by_kind.setdefault(record["record"], []).append(record)
    (run,) = by_kind["run"]
    assert run["protocol"] == "twobit" and run["refs"] == 2 * 300
    outcomes = {r["outcome"] for r in by_kind["latency"]}
    assert {"RM", "WM"} <= outcomes
    for record in by_kind["latency"]:
        assert record["count"] > 0 and record["p50"] is not None
    # Histogram counts must agree with the run header's counters.
    by_outcome = {r["outcome"]: r for r in by_kind["latency"]}
    assert by_outcome["RM"]["count"] == run["counters"]["read_misses"]


def test_compare_metrics_out_and_verbose_report(tmp_path, capsys):
    from repro.protocols import registry

    metrics_path = tmp_path / "metrics.jsonl"
    code = main(
        ["compare", "-n", "2", "--refs", "100", "--warmup", "20", "-v",
         "--metrics-out", str(metrics_path)]
    )
    out = capsys.readouterr().out
    assert code == 0
    records = [
        json.loads(line) for line in metrics_path.read_text().splitlines()
    ]
    # One run header per compared protocol: appends, not overwrites.
    runs = [r for r in records if r["record"] == "run"]
    assert [r["protocol"] for r in runs] == list(registry.protocol_names())
    assert "[twobit]" in out
    assert "counter totals" in out


@pytest.mark.parametrize("command", ["run", "trace"])
def test_unlisted_protocol_network_pair_exits(tmp_path, command):
    args = [command, "--protocol", "static", "--network", "delta",
            "-n", "2", "--refs", "50"]
    if command == "trace":
        args += ["--out", str(tmp_path / "t.json")]
    with pytest.raises(SystemExit) as excinfo:
        main(args)
    message = str(excinfo.value.code)
    assert "runs on network xbar, not 'delta'" in message
    assert "\n" not in message


def test_compare_gives_each_protocol_a_network_it_runs_on(capsys):
    assert main(["compare", "-n", "2", "--refs", "50", "--warmup", "10",
                 "--network", "delta"]) == 0


def test_check_replay_trace_out(tmp_path, capsys):
    out_path = tmp_path / "replay.json"
    code = main(
        ["check", "--protocol", "twobit", "--scenario", "smoke-2p1b",
         "--replay", "0,1", "--differential", "0",
         "--trace-out", str(out_path)]
    )
    assert code == 0
    trace = json.loads(out_path.read_text())
    assert trace["traceEvents"]


def test_run_accepts_alias(capsys):
    code = main(
        ["run", "--protocol", "mesi", "--refs", "50", "--warmup", "10",
         "-n", "2", "-m", "1"]
    )
    assert code == 0
    assert "coherence audit: CLEAN" in capsys.readouterr().out


def test_run_workload_spec(capsys):
    code = main(
        ["run", "--workload", "dubois:low", "-n", "2", "--refs", "100",
         "--warmup", "20"]
    )
    assert code == 0
    assert "coherence audit: CLEAN" in capsys.readouterr().out


def test_run_workload_uniform_kv(capsys):
    code = main(
        ["run", "--workload", "uniform:n_blocks=32", "-n", "2",
         "--refs", "100", "--warmup", "0"]
    )
    assert code == 0
    assert "coherence audit: CLEAN" in capsys.readouterr().out


def test_run_bad_workload_spec_exits(capsys):
    with pytest.raises(SystemExit):
        main(["run", "--workload", "zipf", "-n", "2", "--refs", "50"])


@pytest.mark.parametrize(
    "spec", ("dubois:q=2", "dubois:private_write_frac=2")
)
def test_run_out_of_range_workload_option_exits(spec):
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "-n", "2", "--refs", "100", "--workload", spec])
    assert str(excinfo.value.code).startswith("--workload: workload 'dubois'")


def test_run_verbose_with_metrics_prints_verdict(tmp_path, capsys):
    metrics = tmp_path / "m.jsonl"
    code = main(["run", "-n", "2", "--refs", "100", "--verbose",
                 "--metrics-out", str(metrics)])
    assert code == 0
    out = capsys.readouterr().out
    assert "per-outcome latency (cycles):" in out
    assert out.rstrip().endswith("coherence audit: CLEAN")


def test_run_faults_on_protocol_without_recovery_exits():
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "-n", "2", "--refs", "50", "--protocol", "classical",
              "--faults", "check"])
    assert "no NAK/retry recovery path" in str(excinfo.value.code)


def _checkpoints(tmp_path, *args):
    """Run ``repro run`` with checkpointing; the files in cycle order."""
    assert main(["run", *args, "--checkpoint-every", "150",
                 "--checkpoint-path", str(tmp_path / "ck-{cycle}.bin")]) == 0
    return sorted(
        tmp_path.glob("ck-*.bin"), key=lambda p: int(p.stem.split("-")[1])
    )


def test_run_resume_reports_like_a_fresh_run(tmp_path, capsys):
    base = ["--protocol", "twobit", "-n", "2", "--refs", "300",
            "--warmup", "100", "--faults", "check"]
    fresh_metrics = tmp_path / "fresh.jsonl"
    assert main(["run", *base, "-v", "--metrics-out", str(fresh_metrics)]) == 0
    fresh = capsys.readouterr().out
    assert "fault injection: " in fresh
    files = _checkpoints(tmp_path, *base, "--metrics-out",
                         str(tmp_path / "ck.jsonl"))
    assert len(files) >= 2
    capsys.readouterr()
    resumed_metrics = tmp_path / "resumed.jsonl"
    code = main(["run", "--resume", str(files[len(files) // 2]), "-v",
                 "--metrics-out", str(resumed_metrics)])
    assert code == 0
    resumed = capsys.readouterr().out
    assert resumed == fresh.replace(str(fresh_metrics), str(resumed_metrics))
    assert resumed_metrics.read_bytes() == fresh_metrics.read_bytes()


def test_run_resume_refuses_metrics_out_without_a_hub(tmp_path, capsys,
                                                      monkeypatch):
    from repro.system.machine import Machine

    files = _checkpoints(tmp_path, "-n", "2", "--refs", "300")

    def no_run(self, *args, **kwargs):
        raise AssertionError("the resumed run started")

    # Refused before any simulation work.
    monkeypatch.setattr(Machine, "continue_run", no_run)
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "--resume", str(files[0]),
              "--metrics-out", str(tmp_path / "m.jsonl")])
    assert "observability hub" in str(excinfo.value.code)
    assert not (tmp_path / "m.jsonl").exists()


def test_run_resume_refuses_flags_it_cannot_honour(tmp_path, capsys,
                                                   monkeypatch):
    from repro import checkpoint

    files = _checkpoints(tmp_path, "-n", "2", "--refs", "300")

    def no_load(*args, **kwargs):
        raise AssertionError("the checkpoint was loaded")

    monkeypatch.setattr(checkpoint, "load", no_load)
    trace = tmp_path / "t.trace"
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "--resume", str(files[0]), "--record-trace", str(trace),
              "--protocol", "illinois", "-n", "8", "--faults", "check"])
    message = str(excinfo.value.code)
    assert message.startswith("--resume: ")
    assert "\n" not in message
    for flag in ("--protocol", "-n/--processors", "--record-trace",
                 "--faults"):
        assert flag in message
    assert not trace.exists()


def test_run_record_trace_then_replay(tmp_path, capsys):
    trace = tmp_path / "run.trace"
    code = main(
        ["run", "--protocol", "twobit", "-n", "2", "--refs", "150",
         "--warmup", "50", "--record-trace", str(trace)]
    )
    assert code == 0
    out1 = capsys.readouterr().out
    assert f"trace recorded to {trace}" in out1
    # 2 procs x (150 + 50 warmup) refs captured.
    assert "400 refs" in out1

    code = main(["run", "--workload", f"trace:{trace}", "--warmup", "0"])
    assert code == 0
    out2 = capsys.readouterr().out
    assert "coherence audit: CLEAN" in out2


def test_hunt_promote_and_replay(tmp_path, capsys):
    stressor = tmp_path / "stressor.json"
    code = main(
        ["hunt", "--budget", "8", "--seed", "5", "--probes", "2",
         "--promote", str(stressor), "--require-gain"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "best score" in out
    assert stressor.exists()

    code = main(["hunt", "--replay", str(stressor)])
    assert code == 0
    assert "replay OK: bit-identical" in capsys.readouterr().out


def test_hunt_nak_objective_needs_faults(capsys):
    with pytest.raises(SystemExit):
        main(["hunt", "--objective", "nak_retries", "--budget", "4"])


def test_sweep_pool_budget_without_workers_exits(capsys):
    # An inline sweep has no worker to lose: a stall budget is an error,
    # not a silently ignored flag.
    with pytest.raises(SystemExit) as excinfo:
        main(["sweep", "--axis", "q=0.02", "-n", "2", "--refs", "40",
              "--no-cache", "--stall-timeout", "1"])
    assert "workers" in str(excinfo.value.code)


@pytest.mark.parametrize(
    "axis, message",
    (
        ("duplicate_directory=maybe",
         "--axis: duplicate_directory: not a boolean: 'maybe'"),
        ("q=0.02,abc", "--axis: q: expected float, got 'abc'"),
        ("n_processors=2.5", "--axis: n_processors: expected int, got '2.5'"),
        ("zeta=1", "--axis: unknown experiment parameter 'zeta'"),
    ),
)
def test_sweep_axis_values_take_the_parameter_type(axis, message):
    with pytest.raises(SystemExit) as excinfo:
        main(["sweep", "--axis", axis, "--no-cache"])
    assert str(excinfo.value.code).startswith(message)


def test_run_verbose_prints_the_hub_latency_histogram(capsys):
    assert main(["run", "-n", "2", "--refs", "200", "-v"]) == 0
    out = capsys.readouterr().out
    assert "\nlatency (cycles): n=400 " in out
    assert "per-outcome latency (cycles):" in out


def test_resume_verbose_without_hub_says_not_recorded(capsys, tmp_path):
    base = ["run", "-n", "2", "--refs", "400", "--warmup", "100"]
    path = str(tmp_path / "c-{cycle}.ckpt")
    assert main([*base, "--checkpoint-every", "200",
                 "--checkpoint-path", path]) == 0
    first = sorted(tmp_path.glob("c-*.ckpt"))[0]
    capsys.readouterr()
    assert main(["run", "--resume", str(first), "-v"]) == 0
    out = capsys.readouterr().out
    assert "latency (cycles): not recorded" in out
    assert "coherence audit: CLEAN" in out
