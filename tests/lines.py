"""Line-execution gate: runs the tier-1 suite in this process under a
standard-library line tracer (``sys.settrace``) and fails on any line of
``src/tcsizer`` that no test runs.

A line that only a child process runs (a test that starts
``python -m tcsizer.cli`` is not traced) is listed in CHILD_ONLY, by its
file and its text, with the reason. A listed line that the suite runs,
or that no longer exists, fails the gate too, so the list stays exact.

The executable lines of a file are those of its compiled code objects'
line tables (``co_lines``), the table the interpreter reports line
events from. Run from the root of a checkout, on Python 3.11 or later
(``co_qualname``), with pytest and hypothesis installed:

    PYTHONPATH=src python tests/lines.py

Exit status: 0 when every line runs but the listed ones, 1 otherwise,
2 when the suite itself fails.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "tcsizer"

#: (file under src/tcsizer, stripped line text) -> why only a child
#: process runs the line
CHILD_ONLY = {
    ("cli.py", "sys.exit(run_command(sys.argv[1:]))"):
        "the body of cli.main, the console entry point; tests start it "
        "as `python -m tcsizer.cli` in a child process",
    ("cli.py", "main()"):
        "runs only when cli.py is the __main__ module, in a child process",
    ("__init__.py", 'return _import_module(f"{__name__}.{name}")'):
        "a submodule read as a package attribute before it is imported; "
        "in the suite's process the test modules import every submodule "
        "first, so TestLazyPaths reads one in a fresh child interpreter",
    ("__init__.py", "return sorted({*globals(), *__all__})"):
        "the package's __dir__; TestLazyPaths calls dir(tcsizer) in a "
        "fresh child interpreter, where no submodule is loaded yet",
}


def executable(path: Path) -> dict[int, str]:
    """Each line of the file that its code objects' line tables name,
    with the qualified name of the innermost code object naming it."""
    lines: dict[int, str] = {}
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:  # each code object before the ones it holds
        code = todo.pop(0)
        for _, _, line in code.co_lines():
            if line:  # None for no line, 0 for a module's start
                lines[line] = code.co_qualname
        todo += [c for c in code.co_consts if isinstance(c, type(code))]
    return lines


class NoDeadline:
    """A pytest plugin: the tracer slows every call, and the gate asks
    which lines run, not how fast, so no example may fail on
    hypothesis's time limit. Hypothesis is imported only once pytest
    has set up its plugins, so that they are rewritten as usual."""

    @staticmethod
    def pytest_configure(config):
        from hypothesis import settings
        settings.register_profile("lines", deadline=None)
        settings.load_profile("lines")


def main() -> int:
    import pytest

    files = {str(path): path for path in sorted(SRC.glob("*.py"))}
    hit: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            hit.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def call(frame, event, arg):
        return local if frame.f_code.co_filename in files else None

    if any(name == "tcsizer" or name.startswith("tcsizer.")
           for name in sys.modules):
        print("tcsizer was imported before the tracer was set")
        return 2
    threading.settrace(call)
    sys.settrace(call)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider",
                              str(ROOT / "tests")], plugins=[NoDeadline])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if status != 0:
        print(f"the suite failed (pytest exit {status})")
        return 2

    failed = False
    listed = dict.fromkeys(CHILD_ONLY, 0)
    for name, path in files.items():
        text = path.read_text(encoding="utf-8").splitlines()
        for line, qualname in sorted(executable(path).items()):
            key = (path.name, text[line - 1].strip())
            if key in listed:
                listed[key] += 1
                if (name, line) in hit:
                    print(f"{path.name}:{line}: runs, but is listed as "
                          f"child-only")
                    failed = True
            elif (name, line) not in hit:
                print(f"{path.name}:{line}: no test runs this line "
                      f"(in {qualname}): {key[1]}")
                failed = True
    for key, count in listed.items():
        if not count:
            print(f"{key[0]}: no executable line reads {key[1]!r}")
            failed = True
    print(f"{len(hit)} lines of src/tcsizer ran; "
          f"{sum(listed.values())} listed as child-only")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
