#!/usr/bin/env python3
"""Check that the tests catch the loss of each statement that records a failure.

A failure-recording statement is, found with ``ast``, a call
``<x>.fail(...)``, a call ``<failed>.setdefault(...)`` or an assignment
``<failed>[...] = ...``, where ``<failed>`` is a name or attribute named
``failed``.  For each one in turn the script copies the package to a
temporary directory, replaces the statement with ``pass`` there, and runs
the whole of the module's test file (``test_<module>.py``) against that
copy.  A mutant whose tests fail is killed; one whose tests pass
survives.

Prints one line per mutant, "<module>:<line> killed by <test id>, ..."
naming every test that failed, or "<module>:<line> SURVIVED", then a
summary line.  First the test files
are run once on the unchanged package; when they fail, or a run ends
with a status other than pass or fail, that status is returned.  Exits 1
when a mutant survives and 0 otherwise.

Usage: python scripts/mutants.py [--package DIR] [--tests DIR] [MODULE ...]
(default: verify.py and extremal.py of src/splitfactor, against tests/)
"""

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DEFAULT_PACKAGE = REPO / "src" / "splitfactor"
DEFAULT_TESTS = REPO / "tests"
DEFAULT_MODULES = ["verify.py", "extremal.py"]
# pytest's exit status when tests ran and some failed
TESTS_FAILED = 1


def _is_failed(node: ast.expr) -> bool:
    return (isinstance(node, ast.Name) and node.id == "failed") or (
        isinstance(node, ast.Attribute) and node.attr == "failed"
    )


def records_failure(node: ast.stmt) -> bool:
    """Whether ``node`` is a failure-recording statement."""
    if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
        func = node.value.func
        return isinstance(func, ast.Attribute) and (
            func.attr == "fail" or (func.attr == "setdefault" and _is_failed(func.value))
        )
    if isinstance(node, ast.Assign) and len(node.targets) == 1:
        target = node.targets[0]
        return isinstance(target, ast.Subscript) and _is_failed(target.value)
    return False


def failure_statements(source: str) -> list[ast.stmt]:
    """The failure-recording statements of ``source``, in line order."""
    found = [node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.stmt)]
    return sorted((node for node in found if records_failure(node)),
                  key=lambda node: (node.lineno, node.col_offset))


def without(source: str, node: ast.stmt) -> str:
    """``source`` with the statement ``node`` replaced by ``pass``."""
    lines = source.split("\n")
    first, last = node.lineno - 1, node.end_lineno - 1
    lines[first : last + 1] = [
        lines[first][: node.col_offset] + "pass" + lines[last][node.end_col_offset :]
    ]
    return "\n".join(lines)


def run_tests(package_parent: Path, test_file: Path) -> tuple[int, str]:
    """pytest's exit status on ``test_file`` with the package imported from
    ``package_parent``, and the ids of every failing test, comma-separated
    (the tail of pytest's output when none failed)."""
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--tb=no", "-rf", "-o", f"pythonpath={package_parent}", str(test_file)],
        capture_output=True, text=True, cwd=test_file.parent.parent,
        # a cached bytecode file could outlive a mutant written in the same second
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    failed = [line[len("FAILED "):].split(" - ")[0]
              for line in proc.stdout.splitlines() if line.startswith("FAILED ")]
    return proc.returncode, ", ".join(failed) if failed else proc.stdout.strip()[-500:]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--package", type=Path, default=DEFAULT_PACKAGE)
    parser.add_argument("--tests", type=Path, default=DEFAULT_TESTS)
    parser.add_argument("modules", nargs="*", default=DEFAULT_MODULES)
    args = parser.parse_args()
    package = args.package.resolve()
    tests = args.tests.resolve()
    mutants = survivors = 0
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / package.name
        shutil.copytree(package, copy, ignore=shutil.ignore_patterns("__pycache__"))
        for module in args.modules:
            test_file = tests / f"test_{Path(module).stem}.py"
            status, detail = run_tests(Path(tmp), test_file)
            if status != 0:
                print(f"{test_file.name} does not pass on the unchanged package: {detail}")
                return status
            source = (package / module).read_text(encoding="utf-8")
            for node in failure_statements(source):
                mutants += 1
                (copy / module).write_text(without(source, node), encoding="utf-8")
                status, detail = run_tests(Path(tmp), test_file)
                if status == 0:
                    survivors += 1
                    print(f"{module}:{node.lineno} SURVIVED", flush=True)
                elif status == TESTS_FAILED:
                    print(f"{module}:{node.lineno} killed by {detail}", flush=True)
                else:
                    print(f"{module}:{node.lineno}: pytest ended with status {status}: {detail}")
                    return status
            (copy / module).write_text(source, encoding="utf-8")
    print(f"{mutants} mutants, {survivors} survived")
    return 1 if survivors else 0


if __name__ == "__main__":
    raise SystemExit(main())
