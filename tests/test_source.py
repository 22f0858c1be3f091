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


def object_bypasses(tree):
    """Line numbers of ``object.__setattr__``, ``object.__new__`` and any
    descriptor's ``__set__`` outside the class ``_Value``."""
    inside = {
        id(node)
        for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) and cls.name == "_Value"
        for node in ast.walk(cls)
    }
    return sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and id(node) not in inside
        and (node.attr == "__set__" or (
            node.attr in ("__setattr__", "__new__")
            and isinstance(node.value, ast.Name) and node.value.id == "object"
        ))
    )


def test_only_the_value_base_bypasses_the_immutability_guard():
    # _Value alone writes fields past the guard, so a value has one constructor
    # path and a hand-written bypass cannot come back
    sample = (
        "class _Value:\n"
        "    def f(self):\n"
        "        object.__setattr__(self, 'a', 1)\n"
        "        type(self).a.__set__(self, 1)\n"
        "        return object.__new__(type(self))\n"
        "class Graph(_Value):\n"
        "    def g(self):\n"
        "        init = object.__setattr__\n"
        "        return object.__new__(Graph)\n"
        "def h(x):\n"
        "    object.__setattr__(x, 'a', 1)\n"
        "    Graph.a.__set__(x, 1)\n"
        "    return super().__new__, x.__setattr__\n"
    )
    assert object_bypasses(ast.parse(sample)) == [8, 9, 11, 12]
    found = [f"{name}:{line}" for name, tree in library_trees() for line in object_bypasses(tree)]
    assert found == []
