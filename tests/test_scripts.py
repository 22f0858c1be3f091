"""The scripts under scripts/, run the way the README documents for an
uninstalled checkout: from the repository root with PYTHONPATH=src."""

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def run_script(*argv):
    proc = subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        cwd=REPO,
        env={**os.environ, "PYTHONPATH": "src"},
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def test_extremal_table_runs_uninstalled():
    proc = run_script("scripts/extremal_table.py", "--max-n", "6")
    header, rule, *rows = proc.stdout.splitlines()
    assert header.split()[:3] == ["n", "|K|", "|I|"] and set(rule) == {"-"}
    assert [row.split()[0] for row in rows] == ["1", "2", "3", "4", "5", "6"]


EXTREMAL_TABLE_6 = """\
  n  |K|  |I|  deg  len  diam  bound  pattern
---------------------------------------------
  1    2    2    1    1     1      1  [1]
  2    2    3    2    2     2      2  [1 1]
  3    3    3    3    2     2      2  [1 2]
  4    3    4    4    3     3      3  [1 2 1]
  5    4    4    5    3     3      3  [1 2 2]
  6    4    5    6    4     4      4  [1 2 2 1]
"""


def test_extremal_table_output_frozen():
    assert run_script("scripts/extremal_table.py", "--max-n", "6").stdout == EXTREMAL_TABLE_6


def test_code_lines_skips_docstrings_comments_and_blank_lines(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        '"""A module docstring\nover two lines."""\n'
        "\n"
        "# a comment line\n"
        "def f(x):\n"
        '    """A function docstring."""\n'
        "    return (x +  # a trailing comment\n"
        "            1)\n"
        'TEXT = """a string,\nnot a docstring"""\n'
    )
    # def, return, the continued line, TEXT
    assert run_script("scripts/code_lines.py", str(module)).stdout == (
        "     4 sample.py\n     4 total\n"
    )


def test_code_lines_counts_the_package_by_default():
    lines = run_script("scripts/code_lines.py").stdout.splitlines()
    assert [line.split()[1] for line in lines[:-1]] == sorted(
        path.name for path in (REPO / "src" / "splitfactor").glob("*.py")
    )
    assert lines[-1].split()[1] == "total"
    assert int(lines[-1].split()[0]) == sum(int(line.split()[0]) for line in lines[:-1])


TOY_MODULE = """\
\"\"\"A module docstring.\"\"\"


def sign(x):
    \"\"\"A function docstring.\"\"\"
    if x < 0:
        return -1
    return 1
"""

TOY_CLI = """\
import sys


def main():
    return 0


if __name__ == "__main__":
    sys.exit(main())
"""

TOY_TESTS = """\
from toy.cli import main
from toy.mod import sign


def test_positive():
    assert sign(2) == 1 and main() == 0
"""


def test_line_coverage_lists_the_statements_no_test_runs(tmp_path):
    package = tmp_path / "src" / "toy"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(TOY_MODULE)
    (package / "cli.py").write_text(TOY_CLI)
    tests = tmp_path / "tests"
    tests.mkdir()
    (tests / "test_toy.py").write_text(TOY_TESTS)

    def run():
        return subprocess.run(
            [sys.executable, str(REPO / "scripts" / "line_coverage.py"), "--package",
             str(package), "-q", "-p", "no:cacheprovider", str(tests)],
            capture_output=True, text=True, cwd=tmp_path,
        )

    # the negative branch of sign is never run; cli.py's __main__ line is exempt
    proc = run()
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout.splitlines()[-3:] == [
        "cli.py:9", "mod.py:7", "9 statements, 2 unexecuted, 1 of them exempt",
    ]
    (tests / "test_toy.py").write_text(TOY_TESTS + "\n\ndef test_negative():\n    assert sign(-2) == -1\n")
    proc = run()
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-2:] == ["cli.py:9", "9 statements, 1 unexecuted, 1 of them exempt"]


TOY_CHECKS = """\
class Context:
    def __init__(self):
        self.failed = {}

    def fail(self, name):
        self.failed.setdefault(name, "failed")


def check(ctx, x):
    if x < 0:
        ctx.fail("negative")
    if x == 0:
        ctx.failed["zero"] = (
            "x is zero"
        )
    return ctx.failed
"""

TOY_CHECK_TESTS = """\
from toy.checks import Context, check


def test_negative():
    assert check(Context(), -1) == {"negative": "failed"}
"""


TOY_MORE_CHECK_TESTS = """

def test_zero():
    assert check(Context(), 0) == {"zero": "x is zero"}


def test_both():
    ctx = Context()
    check(ctx, -1)
    assert check(ctx, 0) == {"negative": "failed", "zero": "x is zero"}
"""


def test_mutants_lists_the_failure_statements_no_test_catches(tmp_path):
    package = tmp_path / "src" / "toy"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "checks.py").write_text(TOY_CHECKS)
    tests = tmp_path / "tests"
    tests.mkdir()
    (tests / "test_checks.py").write_text(TOY_CHECK_TESTS)

    def run():
        return subprocess.run(
            [sys.executable, str(REPO / "scripts" / "mutants.py"), "--package", str(package),
             "--tests", str(tests), "checks.py"],
            capture_output=True, text=True, cwd=tmp_path,
        )

    # the zero branch is never tested, so losing its record goes unseen
    proc = run()
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert proc.stdout.splitlines() == [
        "checks.py:6 killed by tests/test_checks.py::test_negative",
        "checks.py:11 killed by tests/test_checks.py::test_negative",
        "checks.py:13 SURVIVED",
        "3 mutants, 1 survived",
    ]
    assert (package / "checks.py").read_text() == TOY_CHECKS
    (tests / "test_checks.py").write_text(TOY_CHECK_TESTS + TOY_MORE_CHECK_TESTS)
    proc = run()
    assert proc.returncode == 0, proc.stdout + proc.stderr
    # every test that fails on a mutant is named, in the order pytest ran them
    assert proc.stdout.splitlines() == [
        "checks.py:6 killed by tests/test_checks.py::test_negative, tests/test_checks.py::test_both",
        "checks.py:11 killed by tests/test_checks.py::test_negative, tests/test_checks.py::test_both",
        "checks.py:13 killed by tests/test_checks.py::test_zero, tests/test_checks.py::test_both",
        "3 mutants, 0 survived",
    ]


def test_mutants_stops_when_the_tests_fail_unchanged(tmp_path):
    package = tmp_path / "src" / "toy"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "checks.py").write_text(TOY_CHECKS)
    tests = tmp_path / "tests"
    tests.mkdir()
    (tests / "test_checks.py").write_text(TOY_CHECK_TESTS.replace("-1", "1"))
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "mutants.py"), "--package", str(package),
         "--tests", str(tests), "checks.py"],
        capture_output=True, text=True, cwd=tmp_path,
    )
    assert proc.returncode == 1
    assert proc.stdout.startswith("test_checks.py does not pass on the unchanged package")
