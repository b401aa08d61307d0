"""The DEDUP pair template runs as one loop: the staged plan's twin.

``Select[rid_less(x, y) and P]`` over two plain Unnests of one group path
(§4.4's DEDUP comprehension) is run by ``Executor._rid_pairs``: one loop per
group that calls ``rid_less`` on the items and builds an environment only
for a pair it keeps.  Each case here runs the plan both ways — the loop,
and the staged ``unnest`` → ``unnest`` → ``select`` it replaced (the
template matcher switched off) — and compares the output partitions by
``repr``, every ledger entry, and the error or the op a budget overrun
raises at.  The cases are the edges of ``rid_less``: duplicate, missing
and ``None`` rids, empty and single-member groups, and group keys ``1`` /
``1.0`` / ``True``, which are one group.
"""

from __future__ import annotations

import pytest

import repro.physical.lower as lower
from repro.algebra import Nest, Reduce, Scan, Select, Unnest
from repro.engine import Cluster
from repro.engine.dataset import Dataset
from repro.errors import BudgetExceededError
from repro.monoid import BagMonoid, BinOp, Call, Proj, RecordCons, Var
from repro.physical import Executor
from repro.physical.functions import QUERY_BUILTINS

GROUPS = Nest(
    child=Scan("t", "c"),
    key=Proj(Var("c"), "k"),
    aggregates=(("p", BagMonoid(), Var("c")),),
    var="g",
)
RID_LESS = Call("rid_less", (Var("a"), Var("b")))
CLOSE = Call("close", (Var("a"), Var("b")))


def pairs(predicate, outer=False) -> Select:
    path = Proj(Var("g"), "p")
    first = Unnest(GROUPS, path, "a", outer=outer)
    return Select(Unnest(first, path, "b"), predicate)


def close(a, b) -> bool:
    return abs(a["v"] - b["v"]) <= 1


def outcome(rows, plan, staged, budget=float("inf")):
    """What one run leaves: its output partitions (or the error), and the
    ledger, floats by ``repr``.  ``staged`` switches the matcher off."""
    cluster = Cluster(4, budget=budget)
    functions = {"rid_less": QUERY_BUILTINS["rid_less"], "close": close}
    with pytest.MonkeyPatch.context() as patch:
        if staged:
            patch.setattr(lower, "rid_pairs", lambda op: None)
        executor = Executor(cluster, {"t": rows}, functions=functions)
        try:
            result = repr(executor.execute(plan).partitions)
        except (BudgetExceededError, TypeError) as exc:
            result = f"{type(exc).__name__}: {exc}"
    ops = [
        (op.name, repr(op.per_node_work), op.shuffled_records, repr(op.shuffle_cost))
        for op in cluster.metrics.ops
    ]
    return result, ops


def rows_with(rids, keys=None) -> list[dict]:
    keys = keys or [i % 3 for i in range(len(rids))]
    rows = []
    for i, (rid, key) in enumerate(zip(rids, keys)):
        row = {"k": key, "v": i % 4}
        if rid is not ...:
            row["_rid"] = rid
        rows.append(row)
    return rows


CASES = {
    "distinct rids": rows_with(list(range(12))),
    "duplicate rids": rows_with([0, 1, 1, 2, 0, 3, 3, 3, 4]),
    "missing rids": rows_with([..., 1, ..., 2, ..., ..., 7]),
    "None rids": rows_with([0, None, 2, 3, None, 5]),
    "empty table": [],
    "single-member groups": rows_with(list(range(5)), keys=list(range(5))),
    "1, 1.0 and True": rows_with(list(range(9)), keys=[1, 1.0, True, 2, 1, 2.0, True, 3, 1.0]),
}
PLANS = {
    "rid_less and P": pairs(BinOp("and", RID_LESS, CLOSE)),
    "rid_less alone": pairs(RID_LESS),
    "pairs as records": Reduce(
        pairs(BinOp("and", RID_LESS, CLOSE)),
        BagMonoid(),
        RecordCons((("p1", Var("a")), ("p2", Var("b")))),
    ),
}


@pytest.mark.parametrize("plan", sorted(PLANS))
@pytest.mark.parametrize("case", sorted(CASES))
def test_the_loop_is_the_staged_plan(case, plan):
    rows = CASES[case]
    expected = outcome(rows, PLANS[plan], True)
    assert outcome(rows, PLANS[plan], False) == expected
    if case in ("distinct rids", "1, 1.0 and True"):  # the domain is not vacuous
        assert "'_rid'" in expected[0]


@pytest.mark.parametrize("budget, op", [
    (25.0, "nest:aggregateByKey:merge"), (91.0, "unnest"), (92.0, "unnest"),
    (96.0, "select"), (112.0, None),
])
def test_a_budget_overrun_raises_at_the_same_op(budget, op):
    rows = CASES["distinct rids"]
    plan = PLANS["rid_less and P"]
    expected = outcome(rows, plan, True, budget=budget)
    assert outcome(rows, plan, False, budget=budget) == expected
    assert expected[0].endswith(f"during {op!r}") if op else "'_rid'" in expected[0]


@pytest.mark.parametrize(
    "plan",
    [
        pairs(BinOp("and", Call("rid_less", (Var("b"), Var("a"))), CLOSE)),
        pairs(BinOp("and", RID_LESS, CLOSE), outer=True),
        pairs(BinOp("or", RID_LESS, CLOSE)),
    ],
    ids=["arguments swapped", "outer unnest", "or"],
)
def test_other_shapes_stay_staged(plan):
    assert lower.rid_pairs(plan) is None


def test_the_residual_runs_on_rid_ordered_pairs_only(monkeypatch):
    """Work count: ``rid_less`` runs on every ordered item pair of a group,
    self-pairs included; the residual and the environment only on the
    pairs it keeps (``n * (n - 1) / 2`` per group of distinct rids); no
    ``flat_map`` runs.  The ledger still charges every ordered pair."""
    rows = rows_with(list(range(30)), keys=[i % 4 for i in range(30)])
    sizes = [len([r for r in rows if r["k"] == key]) for key in range(4)]
    calls = {"rid_less": 0, "close": 0, "flat_map": 0}

    def counted(name, func):
        def wrapper(*args):
            calls[name] += 1
            return func(*args)
        return wrapper

    flat_map = Dataset.flat_map
    monkeypatch.setattr(Dataset, "flat_map", lambda *a, **kw: counted("flat_map", flat_map)(*a, **kw))
    functions = {
        "rid_less": counted("rid_less", QUERY_BUILTINS["rid_less"]),
        "close": counted("close", lambda a, b: True),
    }
    cluster = Cluster(4)
    out = Executor(cluster, {"t": rows}, functions=functions).execute(
        pairs(BinOp("and", RID_LESS, CLOSE))
    )
    ordered = sum(n * n for n in sizes)
    kept = sum(n * (n - 1) // 2 for n in sizes)
    assert calls == {"rid_less": ordered, "close": kept, "flat_map": 0}
    assert out.count() == kept
    (select,) = [op for op in cluster.metrics.ops if op.name == "select"]
    assert sum(select.per_node_work) == ordered * cluster.cost_model.record_unit
