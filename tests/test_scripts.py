"""The scripts under scripts/, run the way the README documents for an
uninstalled checkout: from the repository root with PYTHONPATH=src."""

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def test_extremal_table_runs_uninstalled():
    proc = subprocess.run(
        [sys.executable, "scripts/extremal_table.py", "--max-n", "6"],
        capture_output=True,
        text=True,
        cwd=REPO,
        env={**os.environ, "PYTHONPATH": "src"},
    )
    assert proc.returncode == 0, proc.stderr
    header, rule, *rows = proc.stdout.splitlines()
    assert header.split()[:3] == ["n", "|K|", "|I|"] and set(rule) == {"-"}
    assert [row.split()[0] for row in rows] == ["1", "2", "3", "4", "5", "6"]

