"""The cycle collector is paused for the span of one engine operation and is
otherwise as the host left it: counted and observed, never timed.

The rule is ``repro.engine.gcpause.collector_paused``; it is applied to
``CleanDB.execute``, ``CleanDB._run_check``, a worker's command loop and a
CLI launch of any command but ``serve``.
What must hold: the host's setting survives (return, exception, nesting, a
host that runs with the collector off); no collector pass of any generation
starts while an operation's body is running; overlapping operations cannot
keep the collector off for longer than the one that paused it; and a worker
— forked, possibly, in the middle of a paused driver operation — still
collects between commands.
"""

import contextlib
import gc
import os
import subprocess
import sys
import threading
import weakref
from pathlib import Path

import pytest

import repro
import repro.cleaning.denial as denial
from repro import CleanDB, cli
from repro.engine import FaultPlan, WorkerPool
from repro.engine.gcpause import collector_paused
from repro.errors import ParseError
from repro.sources import Schema, write_csv

ROWS = 5000
RULE = "t1.k = t2.k and t1.price < t2.price and t1.disc > t2.disc"
SQL = "SELECT x.k, count(x.v) AS n FROM t x WHERE x.price > 5 GROUP BY x.k"
UNIFIED = "SELECT * FROM t x FD(x.k, x.v) DEDUP(exact, LD, 0.5, x.city)"
OPERATIONS = {
    "check_fd": lambda db: db.check_fd("t", ["k"], ["v"]),
    "check_dc": lambda db: db.check_dc("t", RULE),
    "deduplicate": lambda db: db.deduplicate("t", ["name"], block_on="blk"),
    "execute": lambda db: db.execute(SQL).branch("query"),
    "execute:unified": lambda db: db.execute(UNIFIED).violations,
}


def table(n=ROWS):
    """Five rows to an FD key, four to a dedup block, at any size."""
    keys, blocks = n // 5, n // 4
    return [
        {"_rid": i, "k": i % keys, "v": i % 7, "price": float(i % 89), "disc": float(i % 13),
         "name": f"customer {i % 7}", "blk": i % blocks, "city": f"city {i % blocks}"}
        for i in range(n)
    ]


@pytest.fixture
def collector_on():
    """The suite runs with the collector on; a test that fails half-way must
    not hand the next one a disabled collector."""
    assert gc.isenabled()
    yield
    gc.enable()


# -- the rule ------------------------------------------------------------- #

def test_the_host_setting_is_restored_on_return_and_on_exception(collector_on):
    with collector_paused():
        assert not gc.isenabled()
    assert gc.isenabled()
    with pytest.raises(ValueError):
        with collector_paused():
            raise ValueError("inside")
    assert gc.isenabled()


def test_a_nested_scope_and_a_host_with_the_collector_off_never_enable_it(collector_on):
    with collector_paused():
        with collector_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()  # the inner scope found it off and left it off
    assert gc.isenabled()

    gc.disable()
    with CleanDB(num_nodes=2) as db:
        db.register_table("t", table(60))
        for name, operation in OPERATIONS.items():
            assert operation(db), name
            assert not gc.isenabled(), name
        with pytest.raises(ParseError):
            db.execute("SELECT nope FROM")
        assert not gc.isenabled()


# -- collector-quiet, counted --------------------------------------------- #

def _operation_bodies():
    """The code objects of the two paused driver entry points (the functions
    under the decorator; at a tree without the rule, the methods themselves)."""
    return {
        getattr(method, "__wrapped__", method).__code__
        for method in (CleanDB.execute, CleanDB._run_check)
    }


@contextlib.contextmanager
def passes_while_on_stack(codes):
    """Generations of the collector passes that *started* while one of
    ``codes`` was on the calling thread's stack."""
    seen = []

    def record(phase, info):
        if phase != "start":
            return
        frame = sys._getframe(1)
        while frame is not None:
            if frame.f_code in codes:
                seen.append(info["generation"])
                return
            frame = frame.f_back

    gc.callbacks.append(record)
    try:
        yield seen
    finally:
        gc.callbacks.remove(record)


@pytest.fixture
def passes_inside():
    """Passes that started while an operation's body was on the stack.  The
    one pass over what an operation returns starts after the pause is
    lifted, with the body already gone, and is not counted: that window is
    the design."""
    with passes_while_on_stack(_operation_bodies()) as seen:
        yield seen


@pytest.mark.parametrize("execution", ["row", "parallel"])
def test_no_collector_pass_starts_inside_an_operation(execution, collector_on, passes_inside):
    options = {"workers": 2} if execution == "parallel" else {}
    with CleanDB(num_nodes=4, execution=execution, **options) as db:
        db.register_table("t", table())
        for name, operation in OPERATIONS.items():
            out = operation(db)
            assert len(out) > 50, name  # each allocates far past a young threshold
            assert passes_inside == [], name
            assert gc.isenabled(), name
        if execution == "parallel":
            assert db.cluster.metrics.degraded_ops == 0
            assert any(op.name.endswith(":parCombine") for op in db.cluster.metrics.ops)


# -- a CLI launch --------------------------------------------------------- #

@pytest.fixture
def launch(tmp_path, capsys):
    """``main(["query", ...])`` in process over a 2 000-row CSV, returning
    the generations of the collector passes that started while the command
    (``run_query``, from dispatch to return) was on the stack: its load and
    query allocate far past a young threshold, so an unpaused launch
    collects many times."""
    path = tmp_path / "t.csv"
    write_csv(path, table(2000), Schema.of(k="int", v="int"))

    def run():
        with passes_while_on_stack({cli.run_query.__code__}) as seen:
            code = cli.main(["query", "--table", f"t={path}:csv:k:int,v:int",
                             "SELECT * FROM t x FD(x.k, x.v)"])
        assert code == 0 and capsys.readouterr().out
        return seen

    return run


def test_a_cli_launch_runs_no_collector_pass_from_dispatch_to_return(collector_on, launch):
    assert launch() == []
    assert gc.isenabled()
    gc.disable()
    assert launch() == []
    assert not gc.isenabled()  # a host that runs with the collector off keeps it off


def test_python_m_repro_freezes_the_heap_before_exit():
    """``atexit`` hooks run before the interpreter's final collection; by
    then the launch's heap is frozen, so that collection skips it."""
    done = subprocess.run(
        [sys.executable, "-c",
         "import atexit, gc, runpy\n"
         "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0))\n"
         "runpy.run_module('repro', run_name='__main__')",
         "formats"],
        env={**os.environ, "PYTHONPATH": str(Path(repro.__file__).resolve().parents[1])},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "frozen True"


def test_serve_runs_with_the_host_setting(collector_on, monkeypatch, tmp_path):
    entered = []
    monkeypatch.setattr(cli, "run_serve", lambda args: entered.append(gc.isenabled()) or 0)
    argv = ["serve", "--workload", str(tmp_path / "w.json")]
    assert cli.main(argv) == 0
    gc.disable()
    assert cli.main(argv) == 0
    assert entered == [True, False]


# -- overlap -------------------------------------------------------------- #

def test_overlapping_operations_cannot_starve_the_collector(collector_on, monkeypatch):
    """A paused stretch lasts no longer than the operation that began it: the
    first operation re-enables the collector when it ends, with the second
    still inside (a depth counter would wait for both, and under sustained
    overlap for ever).  The second merely loses the rest of its saving."""
    gates = {name: (threading.Event(), threading.Event()) for name in ("first", "second")}
    check_fd = denial.check_fd

    def parked(*args, **kwargs):
        inside, go = gates[threading.current_thread().name]
        inside.set()
        assert go.wait(30)
        return check_fd(*args, **kwargs)

    monkeypatch.setattr(denial, "check_fd", parked)
    with CleanDB(num_nodes=2) as db:
        db.register_table("t", table(60))
        threads = {
            name: threading.Thread(target=db.check_fd, args=("t", ["k"], ["v"]), name=name)
            for name in gates
        }
        try:
            for name, thread in threads.items():
                thread.start()
                assert gates[name][0].wait(30)
                assert not gc.isenabled()
            gates["first"][1].set()
            threads["first"].join(30)
            assert not threads["first"].is_alive() and threads["second"].is_alive()
            assert gc.isenabled()  # the window is open; "second" is still inside
        finally:
            for _inside, go in gates.values():
                go.set()
            for thread in threads.values():
                thread.join(30)
        assert not threads["second"].is_alive()
        assert gc.isenabled()  # "second" found it off on entry and left it as "first" set it


# -- workers -------------------------------------------------------------- #
# Module-level task functions (tasks must be importable in workers).

_WATCHED: list = []  # worker-side: weak references to the cycles a task left behind


class _Link:
    pass


def _collector_enabled(_part):
    return gc.isenabled()


def _leave_cycles(n):
    """Leave ``n`` unreachable two-object cycles behind — several young
    thresholds' worth, as a real task's garbage would be."""
    for _ in range(n):
        a, b = _Link(), _Link()
        a.other, b.other = b, a
        _WATCHED.append(weakref.ref(a))
    return gc.isenabled()


def _cycles_alive(_part):
    return sum(ref() is not None for ref in _WATCHED)


BOTH = [(0,), (1,)]


def _collects_between_commands(pool):
    """No task calls ``collect``: the cycles go in the window between two
    commands, while the worker waits on its queue with the collector on."""
    assert pool.run(_leave_cycles, [(2000,), (2000,)], parts=[0, 1]) == [False, False]
    for _ in range(3):
        assert pool.run(_collector_enabled, BOTH, parts=[0, 1]) == [False, False]
    assert pool.run(_cycles_alive, BOTH, parts=[0, 1]) == [0, 0]


def test_a_worker_command_runs_paused_and_the_worker_collects_between_commands(collector_on):
    with WorkerPool(2) as pool:
        _collects_between_commands(pool)


def test_a_pool_forked_inside_a_paused_operation_still_collects(collector_on):
    """A session's pool is created lazily, by whichever operation needs it
    first, so its workers are forked with the collector off."""
    with collector_paused():
        pool = WorkerPool(2)
    with pool:
        _collects_between_commands(pool)


def test_a_replacement_forked_during_recovery_still_collects(collector_on):
    plan = FaultPlan().kill_before(worker=0, nth=1)
    with WorkerPool(2, fault_plan=plan) as pool:
        with collector_paused():  # recovery runs inside the driver's operation
            _collects_between_commands(pool)
        assert pool.retries_total >= 1
