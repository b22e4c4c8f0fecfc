"""The workload registry: spec strings, aliases, context inheritance."""

import re
from pathlib import Path

import pytest

from repro.workloads import (
    DuboisBriggsWorkload,
    LockContentionWorkload,
    MemRef,
    MigratingWorkload,
    Op,
    ScriptedWorkload,
    StreamingTraceWorkload,
    UniformWorkload,
    WorkloadContext,
    WorkloadSpecError,
    make_workload,
    parse_workload,
    workload_names,
    workload_options,
    write_trace,
)

DOCS = Path(__file__).resolve().parents[2] / "docs" / "workloads.md"


def test_registry_lists_every_builtin():
    names = workload_names()
    for expected in ("dubois", "uniform", "trace", "scripted", "locks",
                     "migration"):
        assert expected in names


def test_bare_name_builds_defaults():
    w = parse_workload("dubois")
    assert isinstance(w, DuboisBriggsWorkload)
    assert w.n_processors == 4


def test_sharing_level_arg():
    low = parse_workload("dubois:low")
    assert (low.q, low.w) == (0.01, 0.2)
    high = parse_workload("dubois:high")
    assert (high.q, high.w) == (0.10, 0.2)


def test_spec_matches_legacy_kwargs():
    """``dubois:low`` is the deprecation shim for ``q=0.01, w=0.2`` —
    identical construction, hence identical content repr."""
    ctx = WorkloadContext(n_processors=8, seed=7)
    spec = parse_workload("dubois:low", ctx)
    legacy = DuboisBriggsWorkload(
        n_processors=8, q=0.01, w=0.2, private_blocks_per_proc=128, seed=7
    )
    assert repr(spec) == repr(legacy)


def test_key_value_overrides():
    w = parse_workload("dubois:high,q=0.2,seed=3")
    assert w.q == 0.2
    assert w.w == 0.2  # still HIGH_SHARING's w
    assert w.seed == 3


def test_context_supplies_inherited_knobs():
    ctx = WorkloadContext(n_processors=6, seed=42, q=0.07, w=0.9)
    w = parse_workload("dubois", ctx)
    assert (w.n_processors, w.seed, w.q, w.w) == (6, 42, 0.07, 0.9)


def test_aliases_resolve():
    assert isinstance(parse_workload("dubois-briggs"), DuboisBriggsWorkload)
    assert isinstance(parse_workload("db"), DuboisBriggsWorkload)
    assert isinstance(parse_workload("lock-contention"),
                      LockContentionWorkload)


def test_uniform_and_migration_build():
    u = parse_workload("uniform:n_blocks=64,write_frac=0.5")
    assert isinstance(u, UniformWorkload)
    assert u.n_blocks == 64
    m = parse_workload("migration:migration_interval=50")
    assert isinstance(m, MigratingWorkload)
    assert m.migration_interval == 50


def test_scripted_hot_cold():
    w = parse_workload("scripted:hot_cold")
    assert isinstance(w, ScriptedWorkload)


def test_trace_spec_builds_streaming(tmp_path):
    path = tmp_path / "t.trace"
    write_trace(path, [MemRef(0, Op.READ, 0, True),
                       MemRef(1, Op.WRITE, 1, True)])
    w = parse_workload(f"trace:{path}")
    assert isinstance(w, StreamingTraceWorkload)
    assert w.n_processors == 2


# ----------------------------------------------------------------------
# Errors: every malformed spec names the problem
# ----------------------------------------------------------------------
def test_unknown_name_lists_known():
    with pytest.raises(WorkloadSpecError, match="unknown workload"):
        parse_workload("zipf")


def test_unknown_sharing_level():
    with pytest.raises(WorkloadSpecError, match="sharing level"):
        parse_workload("dubois:extreme")


def test_unknown_key():
    with pytest.raises(WorkloadSpecError, match="unknown option"):
        parse_workload("dubois:low,zeta=2")


def test_bad_value_type():
    with pytest.raises(WorkloadSpecError, match="expected"):
        parse_workload("dubois:q=abc")


@pytest.mark.parametrize(
    "spec",
    (
        "dubois:private_write_frac=2",
        "dubois:private_write_frac=nan",
        "uniform:write_frac=nan",
        "uniform:write_frac=-0.5",
        "migration:private_write_frac=1.01",
    ),
)
def test_out_of_range_write_fraction_rejected(spec):
    with pytest.raises(ValueError, match="write_frac must be a probability"):
        parse_workload(spec)


@pytest.mark.parametrize(
    "spec", ("dubois:q=2", "dubois:private_write_frac=2")
)
def test_constructor_range_error_is_a_spec_error(spec):
    # The constructor's own check, re-raised so callers (the CLI's
    # one-line --workload error) see one exception type.
    with pytest.raises(WorkloadSpecError, match="workload 'dubois': .*must be"):
        parse_workload(spec)


def test_uniform_rejects_positional_arg():
    with pytest.raises(WorkloadSpecError, match="takes only"):
        parse_workload("uniform:64")


def test_trace_requires_path():
    with pytest.raises(WorkloadSpecError, match="path"):
        parse_workload("trace")


def test_trace_missing_file(tmp_path):
    with pytest.raises(WorkloadSpecError, match="no such trace"):
        parse_workload(f"trace:{tmp_path}/absent.trace")


# ----------------------------------------------------------------------
# The grammar: each family's options, types and defaults
# ----------------------------------------------------------------------
#: Every family's accepted options and the value each takes under the
#: default WorkloadContext (q, w, seed and private_blocks_per_proc come
#: from the context).  ``PATH`` stands for an existing file.
GRAMMAR = {
    "dubois": {
        "q": 0.05, "w": 0.2, "n_shared_blocks": 16,
        "private_blocks_per_proc": 128, "locality": 0.95,
        "private_write_frac": 0.3, "seed": 1984,
    },
    "uniform": {"n_blocks": 256, "write_frac": 0.3, "seed": 1984},
    "trace:PATH": {},
    "scripted:hot_cold": {"hot_block": 0, "refs_per_proc": 64,
                          "write_every": 4},
    "scripted:PATH.json": {},
    "locks": {
        "n_locks": 4, "protected_blocks_per_lock": 4,
        "critical_section_refs": 3, "think_refs": 10,
        "think_blocks_per_proc": 32, "seed": 1984,
    },
    "migration": {
        "migration_interval": 200, "q": 0.05, "w": 0.2,
        "n_shared_blocks": 16, "process_blocks": 64,
        "private_write_frac": 0.3, "seed": 1984,
    },
}


@pytest.fixture
def trace_path(tmp_path):
    path = tmp_path / "t.trace"
    write_trace(path, [MemRef(0, Op.READ, 0, True)])
    return str(path)


def _typed(options):
    return {name: (type(value), value) for name, value in options.items()}


@pytest.mark.parametrize("spec", sorted(GRAMMAR))
def test_grammar_is_pinned(spec, trace_path):
    real = spec.replace("PATH", trace_path)
    assert _typed(workload_options(real)) == _typed(GRAMMAR[spec])


def test_context_fills_options_that_share_its_names():
    ctx = WorkloadContext(n_processors=6, seed=42, q=0.07, w=0.9,
                          private_blocks_per_proc=32)
    options = workload_options("dubois:low", ctx)
    assert (options["q"], options["w"]) == (0.01, 0.2)  # the level wins
    assert (options["seed"], options["private_blocks_per_proc"]) == (42, 32)
    assert workload_options("locks", ctx)["seed"] == 42


def test_n_processors_is_never_an_option():
    with pytest.raises(WorkloadSpecError, match="unknown option 'n_processors'"):
        parse_workload("dubois:low,n_processors=8")


def test_docs_option_tables_match_the_registry(trace_path):
    text = DOCS.read_text(encoding="utf-8")
    section = text.split("## Options", 1)[1].split("\n## ", 1)[0]
    tables = {}
    for line in section.splitlines():
        heading = re.match(r"^### `([^`]+)`", line)
        if heading:
            rows = tables[heading.group(1)] = {}
            continue
        row = re.match(r"^\| `(\w+)` \| (\w+) \| `([^`]*)` \|", line)
        if row:
            rows[row.group(1)] = (row.group(2), row.group(3))
    assert sorted(tables) == sorted(GRAMMAR)
    for spec, rows in tables.items():
        real = spec.replace("PATH", trace_path)
        derived = {
            name: (type(value).__name__, repr(value))
            for name, value in workload_options(real).items()
        }
        assert rows == derived, spec


# ----------------------------------------------------------------------
# make_workload: the Experiment-facing entry point
# ----------------------------------------------------------------------
def test_make_workload_none_is_dubois_default():
    ctx = WorkloadContext(n_processors=3, seed=9, q=0.02, w=0.4)
    w = make_workload(None, ctx)
    assert isinstance(w, DuboisBriggsWorkload)
    assert (w.n_processors, w.q) == (3, 0.02)


def test_make_workload_instance_passthrough():
    inst = UniformWorkload(n_processors=2, n_blocks=8)
    assert make_workload(inst) is inst


def test_make_workload_rejects_other_types():
    with pytest.raises(TypeError):
        make_workload(42)
