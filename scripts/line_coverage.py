#!/usr/bin/env python3
"""List the statements of a package that a pytest run never executes.

Starts a line tracer (``sys.settrace`` and ``threading.settrace``) before
the package is imported, runs pytest in this process, and compares the
lines the tracer saw in the package's modules with their statement lines
found by ``ast``; docstrings are not statements here.  Prints one
"<module>:<line>" per unexecuted statement, then a summary line.

Exits with pytest's status when the tests fail, 1 when an unexecuted
statement is left other than the exempt one, and 0 otherwise.  The
exempt statement is the ``sys.exit(main())`` line of ``cli.py``, which
runs only when the CLI is started as ``__main__``, in a subprocess the
tracer cannot see.  Tracing slows every test, so Hypothesis runs here
with no per-example deadline.

Usage: python scripts/line_coverage.py [--package DIR] [PYTEST_ARG ...]
(default: the tier-1 tests over src/splitfactor; extra arguments go to
pytest in place of the default ones)
"""

import argparse
import ast
import sys
import threading
from pathlib import Path

import pytest

from code_lines import docstring_lines  # this script's directory is on sys.path

REPO = Path(__file__).resolve().parent.parent
DEFAULT_PACKAGE = REPO / "src" / "splitfactor"
DEFAULT_PYTEST_ARGS = ["-q", "--continue-on-collection-errors", str(REPO / "tests")]
# (module file name, stripped statement text) of the statements allowed to stay unexecuted
EXEMPT = {("cli.py", "sys.exit(main())")}


class NoDeadline:
    """A pytest plugin that runs Hypothesis with no per-example deadline.
    Hypothesis is imported here, after pytest has set up its assertion
    rewriting, which warns about a module imported before it."""

    @staticmethod
    def pytest_configure(config):
        from hypothesis import settings

        settings.register_profile("line-coverage", deadline=None)
        settings.load_profile("line-coverage")


def statement_lines(source: str) -> set[int]:
    """The first lines of the statements of ``source``, leaving out the
    lines that docstrings span."""
    tree = ast.parse(source)
    starts = {node.lineno for node in ast.walk(tree) if isinstance(node, ast.stmt)}
    return starts - docstring_lines(tree)


def traced_run(package: Path, pytest_args: list[str]) -> tuple[int, set[tuple[str, int]]]:
    """pytest's exit status and the (file, line) pairs executed in ``package``."""
    prefix = str(package) + "/"
    seen: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            seen.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def start(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    threading.settrace(start)
    sys.settrace(start)
    try:
        status = pytest.main(pytest_args, plugins=[NoDeadline()])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), seen


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--package", type=Path, default=DEFAULT_PACKAGE)
    args, pytest_args = parser.parse_known_args()
    package = args.package.resolve()
    if package.name in sys.modules:
        parser.error(f"{package.name} is imported before tracing starts")
    sys.path.insert(0, str(package.parent))
    status, seen = traced_run(package, pytest_args or DEFAULT_PYTEST_ARGS)
    if status != 0:
        return status
    statements = missed = exempt = 0
    for module in sorted(package.glob("*.py")):
        source = module.read_text(encoding="utf-8")
        lines = source.split("\n")
        for lineno in sorted(statement_lines(source)):
            statements += 1
            if (str(module), lineno) in seen:
                continue
            print(f"{module.name}:{lineno}")
            if (module.name, lines[lineno - 1].strip()) in EXEMPT:
                exempt += 1
            else:
                missed += 1
    print(f"{statements} statements, {missed + exempt} unexecuted, {exempt} of them exempt")
    return 1 if missed else 0


if __name__ == "__main__":
    raise SystemExit(main())
