"""The package's public names, and the modules each entry point loads."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tcsizer
import tcsizer.model
import tcsizer.sim
import tcsizer.workloads
from tcsizer import ScenarioId, builtin_system, homogeneous_cluster
from tcsizer.cli import emit_system_spec

SRC = Path(tcsizer.__file__).resolve().parents[1]

PUBLIC_NAMES = [
    "AllocationFailed", "Analytic", "AnalyticVerdict", "BlockingPolicy",
    "Cluster", "ComparisonResult", "Core", "DIVERGED", "DecimationRow",
    "HOUR", "HorizonTooShort", "INFINITE", "InvalidAllocation", "Leaf",
    "MINUTE", "MS", "MissingParam", "MissingStage", "Par", "ReleasePolicy",
    "ReplicationExceeded", "ResponseReport", "RoundRobin", "SEC",
    "ScenarioId", "Seq", "SimConfig", "SimEvent", "SimTrace", "Stage",
    "SweepRow", "System", "US",
    "UtilizationSummary", "ValidationReport", "Violation", "WorstObserved",
    "allocate_first_fit", "analysis", "assign_priorities_dm",
    "baseline_comparison", "builtin_system", "decimation_sweep",
    "end_to_end_response", "frequency_sweep", "homogeneous_cluster",
    "min_cores", "model", "par", "period_from_frequency", "retime_system",
    "seq", "sim", "simulate", "sizing", "solve_system", "total_utilization",
    "trace_to_csv", "validate_system", "verify_conservative",
    "with_allocation", "with_priorities", "workloads", "worst_observed",
]

# modules that analyze never runs
NOT_FOR_ANALYZE = ["tcsizer.sim", "tcsizer.sizing", "tcsizer.workloads",
                   "random"]

# modules no command runs: records are named tuples, and dataclasses
# would pull in inspect (with ast, dis and tokenize) on every start-up
NOT_FOR_ANY_COMMAND = ["dataclasses", "inspect"]


class TestSurface:
    def test_all_is_pinned(self):
        assert len(PUBLIC_NAMES) == 64
        assert tcsizer.__all__ == PUBLIC_NAMES

    def test_every_name_resolves(self):
        for name in PUBLIC_NAMES:
            assert getattr(tcsizer, name) is not None, name

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from tcsizer import *", namespace)
        assert sorted(n for n in namespace if n != "__builtins__") \
            == PUBLIC_NAMES

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError):
            tcsizer.no_such_name

    def test_moved_names_keep_their_old_paths(self):
        assert tcsizer.sim.BlockingPolicy is tcsizer.model.BlockingPolicy
        assert tcsizer.sim.ReleasePolicy is tcsizer.model.ReleasePolicy
        assert (tcsizer.workloads.period_from_frequency
                is tcsizer.model.period_from_frequency)
        assert tcsizer.BlockingPolicy is tcsizer.model.BlockingPolicy
        # which other module binds which of them, as the README states
        names = ("BlockingPolicy", "ReleasePolicy", "period_from_frequency")
        bound = {module: [n for n in names if hasattr(
                     importlib.import_module(f"tcsizer.{module}"), n)]
                 for module in ("analysis", "cli", "sim", "sizing",
                                "workloads")}
        assert bound == {
            "analysis": [], "cli": ["BlockingPolicy", "ReleasePolicy"],
            "sim": ["BlockingPolicy", "ReleasePolicy"],
            "sizing": ["period_from_frequency"],
            "workloads": ["period_from_frequency"]}


def in_child(body: str, result: str):
    """The JSON value of the expression ``result`` after ``body`` runs in
    a fresh interpreter. -S keeps out what site imports of its own (a
    .pth file may load random, among others)."""
    code = f"import json, sys\n{body}\nprint(json.dumps({result}))"
    proc = subprocess.run(
        [sys.executable, "-B", "-S", "-c", code], capture_output=True,
        text=True, timeout=60, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def loaded_modules(body: str) -> set[str]:
    """The modules in sys.modules after ``body`` runs in a fresh
    interpreter."""
    return set(in_child(body, "sorted(sys.modules)"))


@pytest.fixture
def microblog(tmp_path):
    path = tmp_path / "microblog.json"
    path.write_text(emit_system_spec(
        builtin_system(ScenarioId.MICROBLOG_ONLINE, frequency_hz=1),
        homogeneous_cluster(8)))
    return path


def run_in_child(argv) -> str:
    return ("from tcsizer.cli import run_command\n"
            f"assert run_command({argv!r}) in (0, 2)")


# argv after the spec path of each command, and the module it must load
COMMANDS = {
    "analyze": ([], "tcsizer.analysis"),
    "size": (["--freqs", "1,4000"], "tcsizer.sizing"),
    "decimate": (["--factors", "1,10", "--freq", "1000"], "tcsizer.sizing"),
    "compare": ([], "tcsizer.sizing"),
    "simulate": (["--horizon", "1s"], "tcsizer.sim"),
}


class TestImportFootprint:
    def test_cli_import(self):
        loaded = loaded_modules("from tcsizer.cli import main")
        assert "tcsizer.cli" in loaded
        assert "tcsizer.analysis" not in loaded
        assert loaded.isdisjoint(NOT_FOR_ANALYZE)
        assert loaded.isdisjoint(NOT_FOR_ANY_COMMAND)

    @pytest.mark.parametrize("command", COMMANDS)
    def test_no_command_loads_dataclasses(self, command, microblog,
                                          tmp_path):
        flags, runs = COMMANDS[command]
        if command == "simulate":
            flags = [*flags, "--trace", str(tmp_path / "trace.csv")]
        loaded = loaded_modules(run_in_child(
            [command, str(microblog), *flags]))
        assert runs in loaded
        assert loaded.isdisjoint(NOT_FOR_ANY_COMMAND)

    def test_analyze(self, microblog):
        loaded = loaded_modules(run_in_child(["analyze", str(microblog)]))
        assert "tcsizer.analysis" in loaded
        assert loaded.isdisjoint(NOT_FOR_ANALYZE)

    def test_size_loads_the_sweeps_only(self, microblog):
        loaded = loaded_modules(run_in_child(
            ["size", str(microblog), "--freqs", "1,4000"]))
        assert "tcsizer.sizing" in loaded
        assert "tcsizer.sim" not in loaded

    @pytest.mark.parametrize("command", ["size", "decimate", "compare"])
    def test_sweeps_load_no_analysis(self, command, microblog):
        flags, _ = COMMANDS[command]
        loaded = loaded_modules(run_in_child(
            [command, str(microblog), *flags]))
        assert "tcsizer.sizing" in loaded
        assert "tcsizer.analysis" not in loaded

    def test_package_import_loads_no_submodule(self):
        loaded = loaded_modules("import tcsizer")
        assert not any(m.startswith("tcsizer.") for m in loaded)


class TestLazyPaths:
    """The package's module __getattr__ and __dir__, each in a fresh
    interpreter, where no submodule is loaded before."""

    def test_a_submodule_loads_when_first_read(self):
        loaded = loaded_modules("import tcsizer\ntcsizer.sim")
        assert "tcsizer.sim" in loaded
        assert "tcsizer.sizing" not in loaded

    def test_dir_lists_every_public_name(self):
        names = in_child("import tcsizer", "dir(tcsizer)")
        assert set(PUBLIC_NAMES) <= set(names)
