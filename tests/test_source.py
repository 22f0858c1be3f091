"""Rules that hold for every module of the library source."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "splitfactor"


def library_trees():
    modules = sorted(SRC.glob("*.py"))
    assert modules, f"no library modules under {SRC}"
    return [(path.name, ast.parse(path.read_text(), filename=str(path))) for path in modules]


def foreign_imports(tree):
    """Line numbers of imports that name neither a standard-library module
    nor, by a single-dot relative import, a module of this package."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level != 1:
            # two or more dots reach outside the package
            names = [node.module if node.level == 0 else ""]
        else:
            continue
        if any(name.partition(".")[0] not in sys.stdlib_module_names for name in names):
            found.append(node.lineno)
    return found


def is_empty_container(value):
    """Whether an expression is ``{}``, ``[]``, ``set()``, ``dict()`` or ``list()``."""
    if isinstance(value, ast.Dict):
        return not value.keys
    if isinstance(value, ast.List):
        return not value.elts
    return (
        isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
        and value.func.id in ("set", "dict", "list") and not (value.args or value.keywords)
    )


def empty_containers(tree):
    """Line numbers of module-level bindings of a name, plain or annotated,
    to an empty container."""
    return [
        node.lineno for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and is_empty_container(node.value)
    ]


def test_library_has_no_assert():
    # runtime invariants are real checks; `python -O` strips assert statements
    found = [
        f"{name}:{node.lineno}"
        for name, tree in library_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_library_imports_only_the_standard_library():
    # the package has no runtime dependencies
    sample = "import os.path\nimport numpy\nfrom .graph import bits\nfrom .. import x\n"
    assert foreign_imports(ast.parse(sample)) == [2, 4]
    found = [f"{name}:{line}" for name, tree in library_trees() for line in foreign_imports(tree)]
    assert found == []


def test_all_lists_each_public_name_once():
    # a name deleted from the package must leave __all__ with it
    import splitfactor

    names = splitfactor.__all__
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(splitfactor, name)] == []
    namespace = {}
    exec("from splitfactor import *", namespace)
    assert set(names) <= namespace.keys()


def test_library_has_no_hand_filled_module_container():
    # a memo is a functools.lru_cache on a pure function, never a module-level
    # container that code fills by hand
    sample = (
        "a = {}\nb: dict[int, int] = {}\nc = []\nd = set()\ne = dict()\nf: list = list()\n"
        "g = {1: 2}\nh = [0]\ni = set('ab')\nj = dict(x=1)\nk: int\n"
        "def f():\n    cache = {}\n"
    )
    assert empty_containers(ast.parse(sample)) == [1, 2, 3, 4, 5, 6]
    found = [f"{name}:{line}" for name, tree in library_trees() for line in empty_containers(tree)]
    assert found == []
