"""The README's examples run as written."""

import io
import re
from pathlib import Path

from tcsizer.cli import parse_system_spec, run_command

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(
    encoding="utf-8")


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
