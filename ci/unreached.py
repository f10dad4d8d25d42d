#!/usr/bin/env python3
"""Fail when a definition or a setting in ``src/cstarcat`` has no caller
outside the tests.

A function, class or non-dunder method counts as reached when its name
appears as a ``Name``, an ``Attribute`` or an import in
``src/cstarcat/*.py`` or ``perfbench/*.py``. Tests are not callers: a
definition that only a test reaches is dead code with a test attached.

A function or method parameter with a default counts as set when some
call in those files passes it, by keyword or by position. Calls are
matched by the called name: ``f(...)`` and ``obj.f(...)`` for a function
or method ``f``; ``C(...)`` and, inside the methods of ``C``, ``cls(...)``
and a subclass's ``super().__init__(...)`` for the constructor of class
``C``. A ``*args`` passes every position from its own on, a ``**kwargs``
every keyword. A default that no caller overrides is a constant, not a
setting.

A function or method parameter counts as read when the function's body,
nested definitions included, loads its name. ``self``, ``cls`` and names
that start with ``_`` are exempt; any other parameter that is never read
is an argument every caller passes for nothing.

    python3 ci/unreached.py [REPO_ROOT]

Exit 0 when every definition is reached, every defaulted parameter is set
and every parameter is read, 1 otherwise, listing each offender as
``file:line name``.
"""

from __future__ import annotations

import ast
import sys
from collections import defaultdict
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


def _decorators(node) -> set[str]:
    return {d.id if isinstance(d, ast.Name) else getattr(d, "attr", "")
            for d in (getattr(d, "func", d) for d in node.decorator_list)}


def defaulted_parameters(tree: ast.Module):
    """Yield (line, qualified name, callee name, position or None, keyword)
    for every parameter with a default of a function or method; the callee
    of a constructor is its class. Positions count the arguments a call
    passes, so a method's skip its first."""
    def walk(node, cls=None, prefix=""):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from walk(child, child.name, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                positional = args.posonlyargs + args.args
                skip = 1 if cls and "staticmethod" not in _decorators(child) else 0
                callee = cls if child.name == "__init__" else child.name
                first = len(positional) - len(args.defaults)
                for index in range(first, len(positional)):
                    arg = positional[index]
                    keyword = None if index < len(args.posonlyargs) else arg.arg
                    yield (arg.lineno, f"{prefix}{child.name}({arg.arg})", callee,
                           index - skip, keyword)
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        yield (arg.lineno, f"{prefix}{child.name}({arg.arg})", callee,
                               None, arg.arg)
                yield from walk(child, None, f"{prefix}{child.name}.")
            else:
                yield from walk(child, cls, prefix)
    yield from walk(tree)


def unread_parameters(tree: ast.Module):
    """Yield (line, qualified name) for every parameter of a function or
    method that its body never loads, bar ``self``, ``cls`` and names
    starting with ``_``."""
    def walk(node, prefix=""):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                params = [*args.posonlyargs, *args.args, *args.kwonlyargs,
                          *filter(None, (args.vararg, args.kwarg))]
                loaded = {n.id for stmt in child.body for n in ast.walk(stmt)
                          if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
                for arg in params:
                    if arg.arg not in loaded and arg.arg not in ("self", "cls") \
                            and not arg.arg.startswith("_"):
                        yield arg.lineno, f"{prefix}{child.name}({arg.arg})"
                yield from walk(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, f"{prefix}{child.name}.")
            else:
                yield from walk(child, prefix)
    yield from walk(tree)


def passed_arguments(tree: ast.Module, bases: dict[str, list[str]], passed):
    """Record, under each called name, the positions and keywords that the
    calls of ``tree`` pass: ``passed[name]`` is a set of ints and keyword
    strings, with ``"*"`` for an unbounded ``*args`` start and ``"**"`` for
    ``**kwargs``."""
    def record(name, call):
        seen = passed[name]
        for index, arg in enumerate(call.args):
            if isinstance(arg, ast.Starred):
                seen.add(("*", index))
                break
            seen.add(index)
        for keyword in call.keywords:
            seen.add(keyword.arg if keyword.arg is not None else "**")

    def walk(node, cls=None):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                walk(child, child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                if isinstance(func, ast.Name):
                    record(cls if func.id == "cls" and cls else func.id, child)
                elif isinstance(func, ast.Attribute):
                    owner = func.value
                    if func.attr == "__init__" and isinstance(owner, ast.Call) \
                            and getattr(owner.func, "id", "") == "super" and cls:
                        for base in bases.get(cls, ()):
                            record(base, child)
                    else:
                        record(func.attr, child)
            walk(child, cls)
    walk(tree)


def is_passed(seen: set, position: int | None, keyword: str | None) -> bool:
    if keyword is not None and (keyword in seen or "**" in seen):
        return True
    if position is None:
        return False
    return position in seen or any(isinstance(s, tuple) and s[1] <= position
                                   for s in seen)


def main(argv: list[str]) -> int:
    root = Path(argv[1] if len(argv) > 1 else Path(__file__).resolve().parents[1])
    sources = sorted((root / "src" / "cstarcat").glob("*.py"))
    callers = sources + sorted((root / "perfbench").glob("*.py"))
    trees = {path: ast.parse(path.read_text(), str(path)) for path in callers}
    used = set().union(*(names_used(tree) for tree in trees.values()))
    bases = {node.name: [b.id for b in node.bases if isinstance(b, ast.Name)]
             for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.ClassDef)}
    passed: dict[str, set] = defaultdict(set)
    for tree in trees.values():
        passed_arguments(tree, bases, passed)

    problems = []
    defined = set()
    settings = 0
    for path in sources:
        where = path.relative_to(root)
        for line, qualname, name in definitions(trees[path]):
            defined.add(name)
            if name not in used:
                problems.append(f"{where}:{line} {qualname} has no "
                                "caller in src/cstarcat or perfbench")
        for line, qualname, callee, position, keyword in defaulted_parameters(trees[path]):
            settings += 1
            if not is_passed(passed[callee], position, keyword):
                problems.append(f"{where}:{line} {qualname} has a default that no "
                                "call in src/cstarcat or perfbench overrides")
        for line, qualname in unread_parameters(trees[path]):
            problems.append(f"{where}:{line} {qualname} is never read")
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        return 1
    print(f"{len(defined)} defined names reached, {settings} defaulted parameters set, "
          "every parameter read")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
