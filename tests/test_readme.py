"""The README's examples run as written."""

import io
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from tcsizer.cli import parse_system_spec, run_command

README_DIR = Path(__file__).resolve().parents[1]
README = (README_DIR / "README.md").read_text(encoding="utf-8")


def fenced_block(heading: str, language: str) -> str:
    """The first ``language`` code block after the line ``heading``."""
    section = README[README.index(f"\n{heading}\n"):]
    match = re.search(rf"```{language}\n(.*?)```", section, re.DOTALL)
    return match.group(1)


def test_library_quick_tour_prints_no_violations(capsys):
    exec(fenced_block("## Library quick tour", "python"), {})
    assert capsys.readouterr().out == "[]\n"


def test_spec_example_parses_and_is_feasible(tmp_path):
    text = fenced_block("### Spec format", "json")
    system, cluster, _ = parse_system_spec(text)
    assert [s.id for s in system.stages()] == ["gen", "split", "count"]
    spec = tmp_path / "spec.json"
    spec.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    assert run_command(["analyze", str(spec)], out=out, err=err) == 0
    assert err.getvalue() == ""


def cli_lines() -> list[str]:
    """The ``tcsizer ...`` lines of the README's CLI block, comments cut."""
    block = fenced_block("## Command-line interface", "sh")
    return [line.split("#")[0].strip() for line in block.splitlines()
            if line.startswith("tcsizer ")]


def test_cli_block_covers_every_command():
    assert [shlex.split(line)[1] for line in cli_lines()] == [
        "analyze", "size", "decimate", "simulate", "compare"]


@pytest.mark.parametrize("line", cli_lines())
def test_cli_line_runs_in_a_fresh_interpreter(tmp_path, line):
    """Each command runs as written against the spec example, in its own
    interpreter: a command that forgot to import what it runs fails here
    even though this process has every submodule loaded."""
    (tmp_path / "spec.json").write_text(fenced_block("### Spec format",
                                                     "json"))
    env = {**os.environ, "PYTHONPATH": str(README_DIR / "src")}
    proc = subprocess.run(
        [sys.executable, "-B", "-m", "tcsizer.cli", *shlex.split(line)[1:]],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode in (0, 2), proc.stderr
    assert "Traceback" not in proc.stderr
