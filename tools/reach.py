"""``python -m tools.reach``: definitions in ``src/`` that nothing live reaches.

ROADMAP's rule for dead code is that what no engine path, CLI command,
example or benchmark reaches goes, even when its own unit tests call it.
This is that rule as a static pass over the source (stdlib ``ast`` only).

Roots are the module-level code of every ``src/`` module, the CLI's
``main``, and every file under ``examples/``, ``benchmarks/`` and
``bench/``.  A module-level function or class is live when a live body
uses its name; a live body is a root or the body of a live definition.
A use is

- a name or an attribute read, anywhere in the body (so ``mod.f`` uses
  ``f``: names are matched by identifier, not resolved to a module);
- a string constant that is an identifier, because some tables reach
  functions through ``getattr`` (the backend ladder's ``RUNGS``, the
  benchmark's ``LAYER_TABLE``).

Imports, docstrings, ``__all__``, ``if TYPE_CHECKING:`` blocks and the
name tables handed to ``lazy_surface`` (a package's lazy ``__init__``) are
not uses: they name a definition without running it.  A definition's
decorators, defaults, annotations and bases belong to its body, so a base
class only dead subclasses name is dead too.  A method is live when its
class is live and its name is used anywhere live (deliberately
conservative: every ``run`` method of a live class lives if anything calls
``.run``); dunder methods live with their class.

It prints each unreached ``file: qualname (n lines)`` not excused by
``reach_allow.json`` (``{qualname: reason}``: helpers that tests of live
code use as instruments; what an excused definition uses is kept with
it), and each excuse that no longer excuses anything.  It exits 1 if it
printed anything.  ``--root`` points it at another checkout.
"""

from __future__ import annotations

import argparse
import ast
import json
import re
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

ROOT = Path(__file__).resolve().parent.parent
ALLOW = Path(__file__).with_name("reach_allow.json")
ROOT_DIRS = ("examples", "benchmarks", "bench")
ENTRY_POINTS = (("src/repro/cli.py", "main"),)
_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


@dataclass(eq=False)
class Definition:
    """A module-level function or class, or a method or class nested in one."""

    path: str
    qualname: str
    node: ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef
    parent: Definition | None = None
    members: list[Definition] = field(default_factory=list)

    @property
    def name(self) -> str:
        return self.node.name

    @property
    def lines(self) -> int:
        first = min([d.lineno for d in self.node.decorator_list] + [self.node.lineno])
        return (self.node.end_lineno or self.node.lineno) - first + 1

    def __str__(self) -> str:
        return f"{self.path}: {self.qualname} ({self.lines} lines)"


def _is_docstring(node: ast.AST) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def _is_type_checking(node: ast.AST) -> bool:
    test = node.test if isinstance(node, ast.If) else None
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING"
            or isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING")


def _names_all(node: ast.AST) -> bool:
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign)) else [])
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def _callee(node: ast.Call) -> str | None:
    func = node.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def uses(node: ast.AST) -> Iterator[str]:
    """The identifiers the code under ``node`` uses, per the module docstring."""
    stack = [node]
    while stack:
        node = stack.pop()
        if _is_docstring(node) or _names_all(node) or isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if _is_type_checking(node):
            stack.extend(node.orelse)  # type: ignore[attr-defined]
            continue
        if isinstance(node, ast.Call) and _callee(node) == "lazy_surface":
            yield "lazy_surface"
            continue
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and _IDENTIFIER.fullmatch(node.value)):
            yield node.value
        stack.extend(ast.iter_child_nodes(node))


def _statements(body: list[ast.stmt]) -> list[ast.AST]:
    """A body's own code: every statement but the nested definitions."""
    return [stmt for stmt in body if not isinstance(stmt, _DEFS)]


def _collect(path: str, body: list[ast.stmt], parent: Definition | None,
             out: list[Definition]) -> list[Definition]:
    found = []
    for stmt in body:
        if isinstance(stmt, _DEFS):
            prefix = f"{parent.qualname}." if parent else ""
            definition = Definition(path, prefix + stmt.name, stmt, parent)
            out.append(definition)
            found.append(definition)
            if isinstance(stmt, ast.ClassDef):
                definition.members = _collect(path, stmt.body, definition, out)
    return found


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def unreached(root: Path = ROOT, allow: Iterable[str] = ()) -> tuple[list[Definition], list[str]]:
    """The ``src/`` definitions no root reaches and ``allow`` does not
    excuse, in file order, and the excuses that excuse nothing: their
    definition is gone, or a root or another excused definition reaches
    it.  What an excused definition uses is kept with it."""
    definitions: list[Definition] = []
    roots: list[tuple[Definition | None, ast.AST]] = []
    for path in sorted((root / "src").rglob("*.py")):
        tree = _parse(path)
        _collect(path.relative_to(root).as_posix(), tree.body, None, definitions)
        roots += [(None, stmt) for stmt in _statements(tree.body)]
    for folder in ROOT_DIRS:
        roots += [(None, _parse(path)) for path in sorted((root / folder).rglob("*.py"))]
    by_name: dict[str, list[Definition]] = defaultdict(list)
    for definition in definitions:
        by_name[definition.name].append(definition)

    live: set[Definition] = set()
    users: dict[str, set[Definition | None]] = defaultdict(set)  # name -> bodies using it

    def reachable(definition: Definition) -> bool:
        if definition.parent is not None and definition.parent not in live:
            return False
        dunder = definition.name.startswith("__") and definition.name.endswith("__")
        return dunder or bool(users.get(definition.name))

    def spread(work: list[tuple[Definition | None, ast.AST]], pending: list[Definition]) -> None:
        while work or pending:
            for owner, node in work:
                for name in uses(node):
                    first = not users.get(name)
                    users[name].add(owner)
                    if first:
                        pending += [d for d in by_name[name] if reachable(d)]
            work = []
            while pending:
                definition = pending.pop()
                if definition in live:
                    continue
                live.add(definition)
                node = definition.node
                # decorators, defaults, annotations and bases belong to the definition
                body = _statements(node.body) if isinstance(node, ast.ClassDef) else node.body
                work += [(definition, part) for part in (
                    *node.decorator_list, *body,
                    *(node.bases if isinstance(node, ast.ClassDef)
                      else [node.args, *filter(None, [node.returns])]))]
                pending += [m for m in definition.members if reachable(m)]

    spread(roots, [d for d in definitions if (d.path, d.qualname) in ENTRY_POINTS])
    dead = [d for d in definitions if d not in live and (d.parent is None or d.parent in live)]
    allowed = set(allow)
    excused = [d for d in dead if d.qualname in allowed]
    spread([], list(excused))
    stale = {d.qualname for d in excused if users.get(d.name, set()) - {d, *d.members}}
    stale |= allowed - {d.qualname for d in excused}
    return [d for d in dead if d not in live], [name for name in allow if name in stale]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tools.reach",
        description="List src/ definitions that no engine path, CLI command, "
                    "example or benchmark reaches.",
    )
    parser.add_argument("--root", type=Path, default=ROOT, help="repository root")
    parser.add_argument("--allow", type=Path, default=ALLOW,
                        help="{qualname: reason} excuses (default: tools/reach_allow.json)")
    args = parser.parse_args(argv)
    allow: dict[str, str] = json.loads(args.allow.read_text()) if args.allow.exists() else {}
    dead, stale = unreached(args.root, allow)
    report = [str(d) for d in dead]
    report += [f"{args.allow.name}: {name} is reached or gone; drop its excuse" for name in stale]
    for line in report:
        print(line)
    if report:
        print(f"-- {len(report)} finding(s) --", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
