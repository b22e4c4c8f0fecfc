"""Each entry point loads only the modules its work runs.

Every check runs a fresh interpreter and reads ``sys.modules`` after
one path: a module imported at top level where a function would do
shows up here as a module a path loads but never runs.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).parents[1])

#: The e2e benchmark's headline machine, run through the facade.
MIXED_RUN = (
    "import repro\n"
    "repro.Experiment(protocol='twobit', n_processors=4, n_modules=2,\n"
    "                 network='xbar', q=0.05, w=0.2, refs_per_proc=200,\n"
    "                 warmup_refs=50).run()\n"
)

#: What a simulation run never executes: the analytic models, the model
#: checker and its schedules, the differential harness, the adversarial
#: hunter, the telemetry exporters and rollups, and the HTTP stack.
NOT_RUN_BY_A_RUN = (
    "repro.analysis",
    "repro.verification.model_check",
    "repro.verification.differential",
    "repro.verification.schedules",
    "repro.workloads.adversarial",
    "repro.obs.export",
    "repro.obs.report",
    "repro.obs.rollup",
    "http",
)

#: The simulator: nothing a parser needs to print its help.
SIMULATOR = (
    "repro.sim",
    "repro.system",
    "repro.core",
    "repro.cache",
    "repro.interconnect",
    "repro.memory",
    "repro.processors",
    "repro.protocols.base",
    "repro.protocols.cache_side",
    "repro.protocols.directory",
    "repro.verification",
    "repro.workloads",
)


def _loaded_after(code: str) -> set:
    """Module names a fresh interpreter holds after running ``code``."""
    probe = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert result.returncode == 0, result.stderr
    return set(json.loads(result.stdout.splitlines()[-1]))


def _under(loaded: set, packages) -> list:
    return sorted(
        name for name in loaded
        if any(name == p or name.startswith(p + ".") for p in packages)
    )


def test_import_repro_loads_no_submodule_it_does_not_use():
    loaded = _loaded_after("import repro")
    assert _under(loaded, ["repro"]) == ["repro", "repro.lazy"]


def test_a_run_loads_only_what_it_runs():
    loaded = _loaded_after(MIXED_RUN)
    assert "repro.system.machine" in loaded  # the run did happen
    assert _under(loaded, NOT_RUN_BY_A_RUN) == []


@pytest.mark.parametrize(
    "argv", [["--help"], ["work", "--help"], ["serve", "--help"]],
    ids=["repro", "work", "serve"],
)
def test_help_loads_no_simulator(argv):
    loaded = _loaded_after(
        "import runpy, sys\n"
        f"sys.argv = ['repro', *{argv!r}]\n"
        "try:\n"
        "    runpy.run_module('repro', run_name='__main__')\n"
        "except SystemExit:\n"
        "    pass\n"
    )
    assert "repro.cli" in loaded
    assert _under(loaded, SIMULATOR) == []


#: The server half of the sweep service, which only ``repro serve`` runs.
#: (``email`` stays: ``http.client`` itself imports it.)
SERVER = (
    "http.server",
    "socketserver",
    "html",
    "mimetypes",
    "repro.runner.service.coordinator",
)


@pytest.mark.parametrize(
    "module", ["repro.runner.service.worker", "repro.runner.service.client"]
)
def test_service_clients_load_no_server(module):
    loaded = _loaded_after(f"import {module}")
    assert "http.client" in loaded  # the client half did load
    assert _under(loaded, SERVER) == []


def test_dir_and_star_import_see_every_public_name():
    out = _loaded_after(
        "import repro\n"
        "listed = set(dir(repro))\n"
        "namespace = {}\n"
        "exec('from repro import *', namespace)\n"
        "missing = sorted(set(repro.__all__) - listed)"
        " + sorted(set(repro.__all__) - set(namespace))\n"
        "assert not missing, missing\n"
        "assert all(namespace[n] is getattr(repro, n) for n in repro.__all__)\n"
    )
    assert "repro.api" in out and "repro.system.machine" in out
