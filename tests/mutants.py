"""Mutation gate: each mutant below is one exact text replacement in a
file of ``src/tcsizer``, with the test files that must catch it.

Each mutant is applied to a fresh temporary copy of ``src/`` and its
test files run against that copy, stopping at the first failure. A
mutant is killed when its tests fail, or when they run past TIMEOUT
(a mutant that makes a loop endless must not hang the gate; every
listed mutant is meant to be caught by a failing test, well inside
it). A mutant that survives fails the gate. Before any mutant, each set
of test files runs once against an unmutated copy and must pass.

Run from the root of a checkout (standard library only):

    python tests/mutants.py

Exit status: 0 when every mutant is killed, 1 otherwise, 2 when an
unmutated run fails or a mutant's text is not found exactly once.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT = 300  # seconds one mutant's test files may run


class Mutant(NamedTuple):
    name: str
    path: str  # under src/tcsizer
    old: str
    new: str
    tests: tuple[str, ...]  # test files or node ids under tests/


MUTANTS = (
    # the recurrence and its DIVERGED rule
    # (other tests of test_analysis.py catch these two only once a
    # fixed point has climbed for minutes, so only the rule's own run)
    Mutant("diverged-rule-full-level", "analysis.py",
           "if level_weight >= lcm and", "if level_weight > lcm and",
           ("test_analysis.py::TestOverloadedLevels",)),
    Mutant("diverged-rule-weight", "analysis.py",
           "or not c * scale[t]):", "or not c):",
           ("test_analysis.py::TestOverloadedLevels",)),
    Mutant("closed-window", "analysis.py",
           "s = 1 if c else 0", "s = 1", ("test_analysis.py",)),
    Mutant("ceiling", "analysis.py",
           "below = r - s", "below = r", ("test_analysis.py",)),
    Mutant("cap-inclusive", "analysis.py",
           "while r <= cap:", "while r < cap:", ("test_analysis.py",)),
    Mutant("verdict", "analysis.py",
           "ok = e2e <= deadline", "ok = e2e < deadline",
           ("test_analysis.py",)),
    Mutant("equal-priority-interference", "analysis.py",
           "core[added][0] >= priority", "core[added][0] > priority",
           ("test_analysis.py",)),
    # the model
    Mutant("effective-blocking", "model.py",
           "out[sid] = floor if floor > blocking else blocking",
           "out[sid] = blocking", ("test_analysis.py", "test_sim.py")),
    Mutant("first-fit-descent", "model.py",
           "            if tree[i] < w:\n                i += 1",
           "            if tree[i] <= w:\n                i += 1",
           ("test_model.py",)),
    Mutant("dm-tie-break", "model.py",
           'key=attrgetter("deadline", "id")', 'key=attrgetter("deadline")',
           ("test_model.py",)),
    Mutant("period-floor", "model.py",
           "period = (SEC * f.denominator) // f.numerator",
           "period = -(-SEC * f.denominator // f.numerator)",
           ("test_workloads.py",)),
    Mutant("string-children", "model.py",
           "or isinstance(node.children, str):\n            raise",
           "or False:\n            raise", ("test_model.py",)),
    Mutant("lcm-halves", "model.py",
           "_lcm_of(values, mid, hi)", "_lcm_of(values, mid + 1, hi)",
           ("test_model.py",)),
    # the simulator
    Mutant("fifo-equal-priority", "sim.py",
           "elif rq[0][0] >= entry[0]:", "elif rq[0][0] > entry[0]:",
           ("test_sim.py",)),
    Mutant("sampler-bound", "sim.py",
           "while r >= bound:", "while r > bound:", ("test_sim.py",)),
    Mutant("uniform-delay", "sim.py",
           "delay = below(delay + 1)", "delay = below(delay)",
           ("test_sim.py",)),
    Mutant("throttle", "sim.py",
           "next_release[i] = at + p", "next_release[i] = at",
           ("test_sim.py",)),
    Mutant("verify-conservative", "sim.py",
           "if obs > bound:", "if obs >= bound:", ("test_sim.py",)),
    # the sizing bound
    Mutant("min-cores-strict", "sizing.py",
           "return q.numerator // q.denominator + 1",
           "return -(-q.numerator // q.denominator)", ("test_analysis.py",)),
)


def run_tests(src: Path, tests: tuple[str, ...]) -> str:
    """'passed', 'failed' or 'timeout' for the test files run against
    the package under ``src``."""
    env = {**os.environ, "PYTHONPATH": str(src),
           "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p",
            "no:cacheprovider", *(f"tests/{name}" for name in tests)]
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, timeout=TIMEOUT,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "passed" if proc.returncode == 0 else "failed"


def copy_src(tmp: Path) -> Path:
    """A fresh copy of src/ under ``tmp``, without bytecode caches."""
    src = tmp / "src"
    if src.exists():
        shutil.rmtree(src)
    shutil.copytree(ROOT / "src", src,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return src


def main() -> int:
    for m in MUTANTS:
        count = (ROOT / "src" / "tcsizer" / m.path).read_text(
            encoding="utf-8").count(m.old)
        if count != 1:
            print(f"{m.name}: its text occurs {count} times in {m.path}")
            return 2

    with tempfile.TemporaryDirectory(prefix="tcsizer-mutants-") as name:
        tmp = Path(name)
        for tests in sorted({m.tests for m in MUTANTS}):
            outcome = run_tests(copy_src(tmp), tests)
            if outcome != "passed":
                print(f"unmutated {', '.join(tests)}: {outcome}")
                return 2
        killed = 0
        for m in MUTANTS:
            src = copy_src(tmp)
            target = src / "tcsizer" / m.path
            text = target.read_text(encoding="utf-8")
            target.write_text(text.replace(m.old, m.new), encoding="utf-8")
            start = time.perf_counter()
            outcome = run_tests(src, m.tests)
            spent = time.perf_counter() - start
            caught = outcome != "passed"
            killed += caught
            print(f"{m.name}: {'killed' if caught else 'SURVIVED'} "
                  f"({outcome}, {spent:.1f} s)", flush=True)
    print(f"killed {killed} of {len(MUTANTS)} mutants")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
