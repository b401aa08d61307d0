"""Engine-invariant lint rules.

Each rule encodes a property of the parallel engine that the type system
cannot express and that review alone will not keep true:

* **E101** — worker task functions must be module-level.  The pool ships
  tasks by pickling; a nested ``*_task`` def or a lambda handed straight
  to ``pool.run`` forces the slow per-call pickle probe (or fails outright
  on spawn-based pools).
* **E102** — no wall-clock reads outside the files that own time.  The
  deterministic fault-injection harness and the cost model both assume
  simulated time; a stray ``time.time()`` in a cost path makes reruns
  non-reproducible.
* **E103** — ``pickle.loads`` only inside the wire protocol
  (``engine/worker.py``), the resident exchange's blob merge and the
  shippability probe's round trip.  The driver must route every blob
  through ``_BrokenBlob``-aware decode paths; a bare ``loads`` elsewhere —
  the pool included — turns a poisoned blob into a crash.
* **E104** — no writes to pool internals outside the pool
  (``engine/parallel.py``) and its registry (``engine/store.py``).  Pool
  state is guarded by the dispatch and registry locks; outside writers
  race them.
* **E105** — no call to ``monoid.expressions.evaluate`` from ``physical/``
  or ``engine/``.  The tree-walking interpreter is the reference the
  differential tests compare against; engine paths run the compiled form
  (``monoid.expressions.compiled``), once per operator, not per record.
* **E106** — no ``multiprocessing`` ``Queue`` / ``SimpleQueue`` /
  ``JoinableQueue`` and no private ``multiprocessing`` attribute
  (``._reader``, ``._writer``, ``._ignore_epipe``, ``.cancel_join_thread``).
  A process queue's feeder thread and shared write lock are what hung the
  worker pool twice; its wire is one plain pipe each way per worker
  (``engine/worker.start_worker``).
"""

from __future__ import annotations

import ast
from typing import Iterator

from .framework import Finding

#: Files allowed to read the wall clock (they own real time: the pool's
#: deadline bookkeeping, external-system baselines, the serving loop).
WALL_CLOCK_ALLOWED = (
    "repro/engine/parallel.py",
    "repro/engine/faults.py",
    "repro/baselines/systems.py",
    "repro/serving/service.py",
)

#: Files allowed to call ``pickle.loads``: the wire protocol, the resident
#: exchange's reduce side, and the picklability probe.
PICKLE_LOADS_ALLOWED = (
    "repro/engine/worker.py",
    "repro/engine/shuffle.py",
    "repro/core/shippable.py",
)

#: The modules allowed to mutate pool internals: the pool and its registry.
POOL_WRITE_ALLOWED = ("repro/engine/parallel.py", "repro/engine/store.py")

#: Directories whose code runs per record and must not interpret.
INTERPRETER_FORBIDDEN = ("repro/physical/", "repro/engine/")

_WALL_CLOCK_NAMES = {"time", "perf_counter", "monotonic"}

#: The ``multiprocessing`` queue classes, and the modules whose classes of
#: the same name are thread queues (not flagged).
_PROCESS_QUEUES = {"Queue", "SimpleQueue", "JoinableQueue"}
_THREAD_QUEUE_MODULES = {"queue", "asyncio"}

#: Private ``multiprocessing`` queue internals the pool once reached into.
_QUEUE_INTERNALS = {"_reader", "_writer", "_ignore_epipe", "cancel_join_thread"}


def _allowed(path: str, allowlist: tuple[str, ...]) -> bool:
    return any(path.endswith(entry) for entry in allowlist)


class ModuleLevelTaskRule:
    code = "E101"
    description = (
        "worker task functions must be defined at module level "
        "(nested defs and lambdas do not pickle by reference)"
    )

    def check(self, tree: ast.Module, path: str, source: str) -> Iterator[Finding]:
        # Nested ``*_task`` definitions: anything below a function body.
        for outer in ast.walk(tree):
            if not isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for inner in ast.walk(outer):
                if inner is outer:
                    continue
                if isinstance(
                    inner, (ast.FunctionDef, ast.AsyncFunctionDef)
                ) and inner.name.endswith("_task"):
                    yield Finding(
                        code=self.code,
                        message=(
                            f"task function {inner.name!r} is nested inside "
                            f"{outer.name!r}; move it to module level so the "
                            "pool can ship it by qualified name"
                        ),
                        path=path,
                        line=inner.lineno,
                    )
        # Lambdas handed directly to ``<pool>.run(...)``.
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "run"
                and node.args
                and isinstance(node.args[0], ast.Lambda)
            ):
                yield Finding(
                    code=self.code,
                    message=(
                        "lambda passed as a pool task; define a module-level "
                        "function instead"
                    ),
                    path=path,
                    line=node.args[0].lineno,
                )


class WallClockRule:
    code = "E102"
    description = (
        "wall-clock reads are confined to the modules that own real time; "
        "simulated-cost paths must stay deterministic"
    )

    def check(self, tree: ast.Module, path: str, source: str) -> Iterator[Finding]:
        if _allowed(path, WALL_CLOCK_ALLOWED):
            return
        bare_imports = _names_imported_from(tree, "time") & _WALL_CLOCK_NAMES
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "time"
                and func.attr in _WALL_CLOCK_NAMES
            ):
                name = f"time.{func.attr}"
            elif isinstance(func, ast.Name) and func.id in bare_imports:
                name = func.id
            else:
                continue
            yield Finding(
                code=self.code,
                message=(
                    f"{name}() read outside the wall-clock allowlist; "
                    "thread a clock in or use the simulated cost model"
                ),
                path=path,
                line=node.lineno,
            )


class BarePickleLoadsRule:
    code = "E103"
    description = (
        "pickle.loads is confined to the wire-protocol modules; other "
        "code must go through the _BrokenBlob-aware decode paths"
    )

    def check(self, tree: ast.Module, path: str, source: str) -> Iterator[Finding]:
        if _allowed(path, PICKLE_LOADS_ALLOWED):
            return
        bare = "loads" in _names_imported_from(tree, "pickle")
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            hit = (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "pickle"
                and func.attr == "loads"
            ) or (bare and isinstance(func, ast.Name) and func.id == "loads")
            if hit:
                yield Finding(
                    code=self.code,
                    message=(
                        "bare pickle.loads outside the worker protocol; a "
                        "poisoned blob would crash instead of degrading"
                    ),
                    path=path,
                    line=node.lineno,
                )


class PoolStateWriteRule:
    code = "E104"
    description = (
        "pool internals are mutated only inside engine/parallel.py and its "
        "registry engine/store.py, under their locks"
    )

    def check(self, tree: ast.Module, path: str, source: str) -> Iterator[Finding]:
        if _allowed(path, POOL_WRITE_ALLOWED):
            return
        for node in ast.walk(tree):
            targets: list[ast.expr]
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AugAssign):
                targets = [node.target]
            else:
                continue
            for target in targets:
                if isinstance(target, ast.Attribute) and _terminal_name(
                    target.value
                ) in {"pool", "_pool"}:
                    yield Finding(
                        code=self.code,
                        message=(
                            f"write to pool attribute {target.attr!r} outside "
                            "the pool and its registry races their locks"
                        ),
                        path=path,
                        line=node.lineno,
                    )


class InterpreterCallRule:
    code = "E105"
    description = (
        "engine paths run compiled expressions; monoid.expressions.evaluate "
        "is the reference interpreter, not a per-record evaluator"
    )

    def check(self, tree: ast.Module, path: str, source: str) -> Iterator[Finding]:
        if not any(entry in path for entry in INTERPRETER_FORBIDDEN):
            return
        imported = {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.module or "").split(".")[-1] in {"expressions", "monoid"}
            for alias in node.names
            if alias.name == "evaluate"
        }
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            hit = (isinstance(func, ast.Name) and func.id in imported) or (
                isinstance(func, ast.Attribute)
                and func.attr == "evaluate"
                and _terminal_name(func.value) == "expressions"
            )
            if hit:
                yield Finding(
                    code=self.code,
                    message=(
                        "call to the expression interpreter on an engine "
                        "path; compile once with monoid.expressions.compiled"
                    ),
                    path=path,
                    line=node.lineno,
                )


class ProcessQueueRule:
    code = "E106"
    description = (
        "no multiprocessing queue and no private multiprocessing attribute: "
        "the pool's wire is one plain pipe each way per worker"
    )

    def check(self, tree: ast.Module, path: str, source: str) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names if a.name == "multiprocessing.queues"]
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                names = [
                    f"{module}.{a.name}" for a in node.names
                    if module == "multiprocessing.queues"
                    or (module.startswith("multiprocessing") and a.name in _PROCESS_QUEUES)
                ]
            elif isinstance(node, ast.Attribute) and (
                node.attr in _QUEUE_INTERNALS
                or (node.attr in _PROCESS_QUEUES
                    and _terminal_name(node.value) not in _THREAD_QUEUE_MODULES)
            ):
                names = [f".{node.attr}"]
            else:
                continue
            for name in names:
                yield Finding(
                    code=self.code,
                    message=(
                        f"{name}: a multiprocessing queue or its internals; "
                        "send on a pipe (engine/worker.start_worker) instead"
                    ),
                    path=path,
                    line=node.lineno,
                )


def _terminal_name(node: ast.expr) -> str | None:
    """The last identifier of a ``Name`` / dotted ``Attribute`` chain."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _names_imported_from(tree: ast.Module, module: str) -> set[str]:
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == module:
            names.update(alias.asname or alias.name for alias in node.names)
    return names


ALL_RULES = (
    ModuleLevelTaskRule(),
    WallClockRule(),
    BarePickleLoadsRule(),
    PoolStateWriteRule(),
    InterpreterCallRule(),
    ProcessQueueRule(),
)
