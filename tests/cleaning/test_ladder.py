"""The backend ladder, rung by rung (``cleaning/ladder.py``).

One table: every operation x non-row backend x {the precondition holds, it
fails, the driver raises ``WorkerTaskError``}, through ``CleanDB`` and
through a ``baselines`` system.  Each case asserts which drivers ran (spies
installed on the defining modules — the binding the ladder looks up per
call, and the one ``bench/layers.py`` wraps), that the answer is
``repr``-identical to the row backend's, and that ``degraded:<op>:<table>``
is recorded exactly once and only when the driver raised.
"""

import pytest

import repro.cleaning.dedup as dedup
import repro.cleaning.denial as denial
from fixtures import WORKERS
from repro import CleanDB
from repro.baselines import CleanDBSystem
from repro.cleaning.dc_kernel import parse_dc
from repro.errors import WorkerTaskError
from repro.physical import PhysicalConfig

NODES = 4
RULE = parse_dc("t1.a == t2.a and t1.price < t2.price and t1.b > t2.b")

#: op → (defining module, row driver, vectorized driver, parallel driver)
DRIVERS = {
    "fd": (denial, "check_fd", "check_fd_columnar", "check_fd_parallel"),
    "dc": (denial, "check_dc", "check_dc_columnar", "check_dc_parallel"),
    "dedup": (dedup, "deduplicate", "deduplicate_columnar", "deduplicate_parallel"),
}
BACKENDS = ("vectorized", "parallel")
CASES = ("holds", "fails", "raises")

#: op → its arguments, as both ``CleanDB`` and ``System`` spell them
ARGS = {
    "fd": ("check_fd", (["a"], ["b"]), {}),
    "dc": ("check_dc", (RULE,), {}),
    "dedup": ("deduplicate", (["name"],), {"block_on": "a", "theta": 0.7}),
}


def rows(backend, case):
    """60 uniform, picklable rows; when the precondition is to fail, rows
    the backend cannot take: ragged for vectorized, carrying a closure for
    parallel."""
    out = [
        {"_rid": i, "a": i % 5, "b": i % 3, "name": f"name {i % 7}", "price": float(i % 9)}
        for i in range(60)
    ]
    if case == "fails" and backend == "vectorized":
        out[1]["extra"] = 1
    if case == "fails" and backend == "parallel":
        out[0]["blob"] = lambda: None
    return out


class Spy:
    """Wrappers on all nine drivers: who was called, in order, what each
    returned — and a driver told to fail raises in place of running."""

    def __init__(self, monkeypatch):
        self.calls, self.results, self.failing = [], [], set()
        for module, *names in DRIVERS.values():
            for name in names:
                monkeypatch.setattr(module, name, self._wrap(name, getattr(module, name)))

    def _wrap(self, name, func):
        def spied(*args, **kwargs):
            self.calls.append(name)
            if name in self.failing:
                raise WorkerTaskError("injected", exc_type="RetriesExhausted")
            result = func(*args, **kwargs)
            self.results.append(result)
            return result

        return spied


@pytest.fixture
def spy(monkeypatch):
    return Spy(monkeypatch)


def expected_calls(op, backend, case):
    _, row, *fast = DRIVERS[op]
    fast = fast[BACKENDS.index(backend)]
    return {"holds": [fast], "fails": [row], "raises": [fast, row]}[case]


def degraded(cluster):
    return [o.name for o in cluster.metrics.ops if o.name.startswith("degraded:")]


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("op", DRIVERS)
def test_a_session_check_is_answered_by_the_first_rung_that_can(op, backend, case, spy):
    method, args, kwargs = ARGS[op]
    table = rows(backend, case)
    with CleanDB(num_nodes=NODES) as reference:
        reference.register_table("t", table)
        expected = getattr(reference, method)("t", *args, **kwargs)
    assert expected
    with CleanDB(num_nodes=NODES, execution=backend, workers=WORKERS) as db:
        db.register_table("t", table)
        spy.calls.clear()
        if case == "raises":
            spy.failing.add(expected_calls(op, backend, case)[0])
        out = getattr(db, method)("t", *args, **kwargs)
        assert spy.calls == expected_calls(op, backend, case)
        assert repr(out) == repr(expected)
        assert degraded(db.cluster) == ([f"degraded:{op}:t"] if case == "raises" else [])
        assert db.cluster.metrics.degraded_ops == (case == "raises")


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("op", DRIVERS)
def test_a_baseline_system_follows_the_same_ladder(op, backend, case, spy):
    method, args, kwargs = ARGS[op]
    table = rows(backend, case)
    assert getattr(CleanDBSystem(num_nodes=NODES), method)(table, *args, **kwargs).ok
    expected = spy.results[-1].collect()
    assert expected
    spy.calls.clear()
    if case == "raises":
        spy.failing.add(expected_calls(op, backend, case)[0])
    system = CleanDBSystem(num_nodes=NODES, execution=backend, workers=WORKERS)
    result = getattr(system, method)(table, *args, **kwargs)
    assert result.ok and result.output_count == len(expected)
    assert spy.calls == expected_calls(op, backend, case)
    answer = spy.results[-1]
    assert repr(answer.collect()) == repr(expected)
    name = "input" if op == "dedup" else "lineitem"
    assert degraded(answer.cluster) == ([f"degraded:{op}:{name}"] if case == "raises" else [])


@pytest.mark.parametrize("op", DRIVERS)
@pytest.mark.parametrize("backend", BACKENDS)
def test_a_plan_only_the_row_driver_has_runs_on_the_row_driver(op, backend, spy):
    """``sort`` grouping / a theta-join DC strategy: no maintained state and
    no other driver implements them, whatever backend is configured."""
    method, args, kwargs = ARGS[op]
    if op == "dc":
        kwargs = {**kwargs, "strategy": "matrix"}
    config = PhysicalConfig(grouping="sort")
    with CleanDB(
        num_nodes=NODES, config=config, execution=backend, workers=WORKERS, incremental=True
    ) as db:
        db.register_table("t", rows(backend, "holds"))
        spy.calls.clear()
        assert getattr(db, method)("t", *args, **kwargs)
        assert spy.calls == [DRIVERS[op][1]]
        assert not any(o.name.startswith("incremental:") for o in db.cluster.metrics.ops)
