"""Start-up guards: which modules a command or a constructor loads.

Deterministic — every check reads ``sys.modules`` in a fresh interpreter,
none reads a clock.  The rules they pin are in docs/ARCHITECTURE.md,
"Start-up and the import graph": a package ``__init__`` is a lazy name
table, the CLI dispatches before it imports, constructor arguments decide
the pool wire before the worker pool forks, a cleaning driver loads at its
first check, and the service loads every driver before its pool forks.
"""

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import repro
from repro.sources import Schema, write_csv

SRC = str(Path(repro.__file__).resolve().parents[1])
PACKAGES = [
    "repro", "repro.core", "repro.monoid", "repro.algebra", "repro.physical",
    "repro.engine", "repro.cleaning", "repro.sources", "repro.serving",
    "repro.evaluation", "repro.datasets", "repro.baselines",
]
SQL = "SELECT * FROM t x FD(x.a, x.b)"


def fresh(code: str, *argv: str) -> dict:
    """Run ``code`` in a new interpreter; its last stdout line is JSON."""
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def loaded_after_cli(*argv: str) -> set[str]:
    out = fresh(
        "import json, sys\n"
        "from repro.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(); print(json.dumps({'code': code, 'modules': sorted(sys.modules)}))",
        *argv,
    )
    assert out["code"] == 0
    return set(out["modules"])


def under(modules: set[str], *prefixes: str) -> set[str]:
    return {m for m in modules if any(m == p or m.startswith(p + ".") for p in prefixes)}


@pytest.fixture
def table_spec(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, [{"a": i % 3, "b": i % 2} for i in range(12)], Schema.of(a="int", b="int"))
    return f"t={path}:csv:a:int,b:int"


def test_formats_loads_no_compiler_engine_parser_or_schema():
    modules = loaded_after_cli("formats")
    assert not under(
        modules, "repro.core", "repro.engine", "repro.cleaning", "repro.physical",
        "repro.sources.schema", "dataclasses", "multiprocessing", "xml.etree",
    )


def test_row_query_never_reaches_the_pool(table_spec):
    modules = loaded_after_cli("query", "--table", table_spec, SQL)
    assert "repro.physical.lower" in modules  # the query did run
    assert not under(
        modules, "repro.engine.parallel", "repro.engine.faults", "repro.engine.worker",
        "repro.engine.store", "repro.engine.transport",
        "repro.physical.parallel_exec", "repro.physical.vectorized", "repro.serving",
        "repro.cleaning.incremental", "repro.cleaning.repair", "repro.baselines",
        "repro.evaluation.runner", "repro.cleaning.kmeans", "repro.physical.theta_join",
        "multiprocessing",
    )


def test_a_parallel_query_loads_no_cleaning_driver(table_spec):
    modules = loaded_after_cli("query", "--execution", "parallel", "--table", table_spec, SQL)
    assert "repro.physical.parallel_exec" in modules  # the pool did run
    assert not under(modules, *DRIVERS, "repro.sources.columnar", "repro.engine.faults")



@pytest.mark.parametrize("command", [
    ["query"], ["query", "--execution", "parallel"], ["explain"], ["check", "--execution", "parallel"],
])
def test_a_launch_generates_no_record_code(table_spec, command):
    """The compiler's records are ``repro._records`` classes: a launch loads
    neither ``dataclasses`` nor the ``inspect`` it imports, and no class in a
    module the launch loaded is a stdlib dataclass."""
    out = fresh(
        "import json, sys\n"
        "from repro.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "generated = [f'{name}.{value.__name__}' for name, module in list(sys.modules.items())\n"
        "             if name.startswith('repro') for value in vars(module).values()\n"
        "             if isinstance(value, type) and '__dataclass_fields__' in vars(value)]\n"
        "print(); print(json.dumps({'code': code, 'modules': sorted(sys.modules),\n"
        "                           'generated': generated}))",
        *command, "--table", table_spec, SQL,
    )
    assert out["code"] == 0
    assert "repro.core.language" in out["modules"]  # the compiler did load
    assert not under(set(out["modules"]), "dataclasses", "inspect")
    assert out["generated"] == []

POOL_MODULES = (
    "repro.engine.parallel", "repro.engine.worker", "repro.engine.store",
    "repro.engine.transport", "repro.engine.faults", "repro.physical.parallel_exec",
    "multiprocessing",
)


def test_checking_for_the_parallel_backend_loads_no_pool(table_spec):
    """``repro check --execution parallel`` is documented as side-effect free:
    the shippability rule it applies (CM501) is a pure module."""
    modules = loaded_after_cli("check", "--execution", "parallel", "--table", table_spec, SQL)
    assert "repro.core.shippable" in modules  # the rule did run
    assert not under(modules, *POOL_MODULES)


def test_a_bare_parallel_analysis_loads_no_pool():
    modules = set(fresh(
        "import json, sys\n"
        "from repro.core.semantics import analyze_query\n"
        "from repro.physical.functions import register_function\n"
        "register_function('shout', lambda s: str(s).upper())\n"
        "diags = analyze_query('SELECT shout(x.a) FROM t x', {'t': [{'a': 1}]},\n"
        "                      execution='parallel')\n"
        "assert [d.code for d in diags] == ['CM501'], diags\n"
        "print(json.dumps(sorted(sys.modules)))"
    ))
    assert not under(modules, *POOL_MODULES, "repro.core.language", "repro.engine")


def test_catching_a_pool_error_loads_no_engine():
    modules = set(fresh(
        "import json, sys\n"
        "from repro.errors import ReproError, StaleHandleError, WorkerTaskError\n"
        "try:\n"
        "    raise WorkerTaskError('lost', exc_type='RetriesExhausted')\n"
        "except (WorkerTaskError, StaleHandleError) as exc:\n"
        "    assert isinstance(exc, ReproError) and exc.exc_type == 'RetriesExhausted'\n"
        "print(json.dumps(sorted(sys.modules)))"
    ))
    assert under(modules, "repro") == {"repro", "repro._lazy", "repro.errors"}


def test_a_submodule_import_executes_only_that_submodule():
    modules = set(fresh(
        "import json, sys, repro.cleaning.rowid; print(json.dumps(sorted(sys.modules)))"
    ))
    assert under(modules, "repro") == {"repro", "repro._lazy", "repro.cleaning", "repro.cleaning.rowid"}


_SESSION_PRELUDE = """
import json, sys

def repro_modules(_worker):
    return sorted(m for m in sys.modules if m.startswith("repro."))

from repro import CleanDB

rows = [{"a": i % 5, "b": i % 3, "name": f"name {i % 7}", "price": float(i % 9)} for i in range(60)]
DC = "t1.a = t2.a and t1.price < t2.price and t1.b > t2.b"
db = CleanDB(execution="parallel", workers=2)
at_construction = repro_modules(None)
db.register_table("t", rows)
forked_early = db.cluster.has_pool

def in_workers():
    return db.cluster.pool.run(repro_modules, [(0,), (1,)], parts=[0, 1])
"""

_API_FIRST = _SESSION_PRELUDE + """
db.check_fd("t", ["a"], ["b"])
forked = in_workers()
db.check_dc("t", DC)
db.deduplicate("t", ["name"], block_on="a")
after = in_workers()
ops = [op.name for op in db.cluster.metrics.ops]
shipped = db.cluster.metrics.bytes_shipped
db.close()
print(json.dumps({"at_construction": at_construction, "forked_early": forked_early,
                  "forked": forked, "after": after, "ops": ops, "shipped": shipped}))
"""

_QUERY_FIRST = _SESSION_PRELUDE + """
db.execute("SELECT * FROM t x FD(x.a, x.b)")
seen = [in_workers()]
answers = []
for _ in range(2):
    answers.append([db.check_dc("t", DC), db.deduplicate("t", ["name"], block_on="a")])
    seen.append(in_workers())
ops = [op.name for op in db.cluster.metrics.ops]
db.close()
row = CleanDB()
row.register_table("t", rows)
expected = [row.check_dc("t", DC), row.deduplicate("t", ["name"], block_on="a")]
print(json.dumps({"seen": seen, "ops": ops, "same": [a == expected for a in answers]}))
"""

#: Modules that hold a cleaning check's driver or worker tasks.
DRIVERS = {
    "repro.cleaning.ladder", "repro.cleaning.denial", "repro.cleaning.dedup",
    "repro.cleaning.dc_kernel", "repro.cleaning.simjoin", "repro.cleaning.blocking",
    "repro.cleaning.kmeans",
}
#: What a query's pool tasks name: loaded by the constructor, before any fork.
QUERY_TASKS = {
    "repro.engine.worker", "repro.engine.shuffle", "repro.physical.parallel_exec",
    "repro.cleaning.rowid", "repro.monoid.expressions",
}


def test_a_check_before_the_fork_leaves_the_workers_nothing_to_import():
    out = fresh(_API_FIRST)
    # The constructor loads the executor, not the drivers, and forks nothing.
    assert not out["forked_early"]
    assert QUERY_TASKS <= set(out["at_construction"])
    assert not DRIVERS & set(out["at_construction"])
    # The checks really ran on the pool; the first one loaded every driver
    # before it forked the pool, and the workers imported nothing after.
    assert {"fd:parCombine", "dc:banded:scan", "grouping:key:parCombine"} <= set(out["ops"])
    assert out["shipped"] > 0
    assert all(DRIVERS | QUERY_TASKS <= set(worker) for worker in out["forked"])
    assert out["forked"] == out["after"]


def test_a_pool_forked_by_a_query_imports_a_check_driver_once():
    out = fresh(_QUERY_FIRST)
    assert {"nest:parCombine", "dc:banded:scan", "grouping:key:parCombine"} <= set(out["ops"])
    assert out["same"] == [True, True]  # the row session's answers, both times
    at_fork, first, second = (
        [set(worker) for worker in snapshot] for snapshot in out["seen"]
    )
    for forked, once, twice in zip(at_fork, first, second):
        assert QUERY_TASKS <= forked and not DRIVERS & forked
        # The task modules of check_dc and deduplicate; the ladder and
        # ``denial`` hold no task these two run.
        assert once - forked == {
            "repro.cleaning.dc_kernel", "repro.cleaning.dedup", "repro.cleaning.simjoin",
            "repro.cleaning.blocking", "repro.cleaning.kmeans",
        }
        assert twice == once


def test_the_service_pool_forks_with_every_driver_loaded():
    out = fresh(
        "import json, sys\n"
        "def repro_modules(_worker):\n"
        "    return sorted(m for m in sys.modules if m.startswith('repro.'))\n"
        "from repro.serving import CleanService\n"
        "service = CleanService(workers=2)\n"
        "seen = service.pool.run(repro_modules, [(0,), (1,)], parts=[0, 1])\n"
        "service.close()\n"
        "print(json.dumps(seen))"
    )
    assert all(DRIVERS | QUERY_TASKS <= set(worker) for worker in out)


def test_constructor_arguments_decide_the_import_set():
    out = fresh(
        "import json, sys\n"
        "from repro import CleanDB\n"
        "def extras():\n"
        "    return [m for m in ('repro.cleaning.incremental', 'repro.physical.vectorized',\n"
        "                        'repro.engine.parallel') if m in sys.modules]\n"
        "seen = []\n"
        "for kwargs in ({}, {'incremental': True}, {'execution': 'vectorized'}):\n"
        "    CleanDB(**kwargs)\n"
        "    seen.append(extras())\n"
        "print(json.dumps(seen))"
    )
    assert out == [
        [],
        ["repro.cleaning.incremental"],
        ["repro.cleaning.incremental", "repro.physical.vectorized"],
    ]


@pytest.mark.parametrize("package", PACKAGES)
def test_every_public_name_resolves(package):
    """With every submodule already imported (the order that lets the import
    system shadow a lazy name with its submodule), and through ``import *``;
    the ``TYPE_CHECKING`` block a type checker reads lists the same names."""
    pkg = importlib.import_module(package)
    for info in pkgutil.iter_modules(pkg.__path__, package + "."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)
    assert len(set(pkg.__all__)) == len(pkg.__all__) > 0
    star: dict = {}
    exec(f"from {package} import *", star)
    for name in pkg.__all__:
        value = getattr(pkg, name)
        assert not isinstance(value, types.ModuleType), f"{package}.{name} is a module"
        assert name in dir(pkg)
        assert star[name] is value
    with pytest.raises(AttributeError, match="no_such_name"):
        pkg.no_such_name
    typed = {
        alias.name
        for node in ast.parse(Path(pkg.__file__).read_text()).body
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING"
        for statement in node.body
        for alias in statement.names
    }
    assert typed == set(pkg.__all__) - {"__version__"}


def test_every_surface_resolves_in_a_fresh_interpreter():
    out = fresh(
        "import json\n"
        f"for package in {PACKAGES!r}:\n"
        "    exec(f'from {package} import *', {})\n"
        "from repro.monoid import normalize\n"
        "print(json.dumps({'normalize': callable(normalize)}))"
    )
    assert out == {"normalize": True}
