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
