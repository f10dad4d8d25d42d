#!/usr/bin/env python3
"""Fail when a definition in ``src/cstarcat`` has no caller outside the tests.

A function, class or non-dunder method counts as reached when its name
appears as a ``Name``, an ``Attribute`` or an import in
``src/cstarcat/*.py`` or ``perfbench/*.py``. Tests are not callers: a
definition that only a test reaches is dead code with a test attached.

    python3 ci/unreached.py [REPO_ROOT]

Exit 0 when every definition is reached, 1 otherwise, listing each
unreached definition as ``file:line name``.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

def definitions(node: ast.AST, prefix: str = ""):
    """Yield (line, qualified name, name) for every function, class and
    non-dunder method below ``node``, nested ones included."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = child.name
            if not (name.startswith("__") and name.endswith("__")):
                yield child.lineno, prefix + name, name
            yield from definitions(child, f"{prefix}{name}.")
        else:
            yield from definitions(child, prefix)


def names_used(tree: ast.Module) -> set[str]:
    """Every name a module reads, looks up as an attribute or imports."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.rsplit(".", 1)[-1])
    return used


def main(argv: list[str]) -> int:
    root = Path(argv[1] if len(argv) > 1 else Path(__file__).resolve().parents[1])
    sources = sorted((root / "src" / "cstarcat").glob("*.py"))
    callers = sources + sorted((root / "perfbench").glob("*.py"))
    trees = {path: ast.parse(path.read_text(), str(path)) for path in callers}
    used = set().union(*(names_used(tree) for tree in trees.values()))

    problems = []
    defined = set()
    for path in sources:
        for line, qualname, name in definitions(trees[path]):
            defined.add(name)
            if name not in used:
                problems.append(f"{path.relative_to(root)}:{line} {qualname} has no "
                                "caller in src/cstarcat or perfbench")
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        return 1
    print(f"{len(defined)} defined names reached")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
