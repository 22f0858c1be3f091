#!/usr/bin/env python3
"""Count the lines of code of Python modules.

A line counts when a token other than a comment starts on it, so blank
lines, comment lines and docstrings are left out; a statement continued
over several lines counts each line that starts a token.  A docstring
is a string expression that opens a module, class or function body.

Prints one "<count> <module>" line per module, then "<total> total".

Usage: python scripts/code_lines.py [PATH ...]
(each PATH a module or a directory of modules; default src/splitfactor)
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

DEFAULT = Path(__file__).resolve().parent.parent / "src" / "splitfactor"
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set[int]:
    """The lines spanned by the docstrings of a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that start a token of code."""
    skip = docstring_lines(ast.parse(source))
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    return len({tok.start[0] for tok in tokens if tok.type not in SKIPPED} - skip)


def modules(paths: list[Path]) -> list[Path]:
    return [m for p in paths for m in (sorted(p.glob("*.py")) if p.is_dir() else [p])]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("paths", nargs="*", type=Path, default=[DEFAULT])
    args = parser.parse_args()
    total = 0
    for module in modules(args.paths):
        count = code_lines(module.read_text(encoding="utf-8"))
        print(f"{count:6} {module.name}")
        total += count
    print(f"{total:6} total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
