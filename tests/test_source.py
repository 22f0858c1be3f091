"""Rules that hold for every module of the library source."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "splitfactor"


def test_library_has_no_assert():
    # runtime invariants are real checks; `python -O` strips assert statements
    modules = sorted(SRC.glob("*.py"))
    assert modules, f"no library modules under {SRC}"
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
