"""Hypothesis: the shared Nest fold is the unit/merge chain it replaced.

Every executor's Nest folds through ``monoids.nest_accumulator``: a bag or
list head is appended to its group's list in place, every other monoid
keeps ``merge(acc, unit(v))``.  The references below are the Nest bodies
it replaced, written out: the row executor's ``{name: merge(...)}``
comprehensions over ``aggregate_by_key`` / ``group_by_key`` (with ``funcs``
bound by keyword, as ``Executor._fn`` bound it), the vectorized executor's
per-column fold, and the parallel executor's combine / merge tasks.  Each
pair must agree on the ``repr`` of every output partition, on every
recorded op — name, per-node work, shuffled records, shuffle cost,
batches — and, under a budget, raise at the same op.

Heads fold bags, lists, sets, counts, sums, minima, maxima and averages of
values with ``None``s in them, so many folds fail (``None + 1``); a failing
fold must fail with the same exception.  The vectorized reference built
each unit just before its merge, the row reference every unit before any
merge; the shared fold does the latter, so on that backend only the type
of a failure is compared.  Keys mix ``1`` / ``1.0`` / ``True``, which are
one group and route together.
"""

from __future__ import annotations

import functools
import math
from typing import Any

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algebra.operators import Nest, Scan
from repro.engine import Cluster
from repro.engine.partitioner import stable_hash
from repro.errors import BudgetExceededError
from repro.monoid.expressions import Proj, Var, compiled
from repro.monoid.monoids import (
    AvgMonoid,
    BagMonoid,
    CountMonoid,
    ListMonoid,
    MaxMonoid,
    MinMonoid,
    SetMonoid,
    SumMonoid,
)
from repro.physical.functions import freeze
from repro.physical.lower import Executor, PhysicalConfig
from repro.physical.parallel_exec import ParallelExecutor
from repro.physical.vectorized import (
    Column,
    ColumnBatch,
    EnvBatch,
    EnvBatchResult,
    VectorizedExecutor,
    eval_column,
)

MONOIDS = {
    "bag": BagMonoid, "list": ListMonoid, "set": SetMonoid, "count": CountMonoid,
    "sum": SumMonoid, "min": MinMonoid, "max": MaxMonoid, "avg": AvgMonoid,
}
KEYS = st.sampled_from([1, 1.0, True, 0, None, "1"])
VALUES = st.one_of(st.integers(min_value=-3, max_value=3), st.none(), st.just(2.5))
TABLES = st.lists(st.fixed_dictionaries({"k": KEYS, "v": VALUES, "w": VALUES}), max_size=30)
AGGREGATES = st.lists(
    st.tuples(st.sampled_from(sorted(MONOIDS)), st.sampled_from(["v", "w"])),
    min_size=1, max_size=3,
)
NODES = st.integers(min_value=1, max_value=10)
BUDGETS = st.one_of(st.just(math.inf), st.floats(min_value=0.0, max_value=120.0))
PROPS = settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def nest_plan(aggregates: list[tuple[str, str]]) -> Nest:
    return Nest(
        child=Scan("t", "x"),
        key=Proj(Var("x"), "k"),
        aggregates=tuple(
            (f"a{i}", MONOIDS[kind](), Proj(Var("x"), attr))
            for i, (kind, attr) in enumerate(aggregates)
        ),
    )


# ---------------------------------------------------------------------- #
# The replaced bodies
# ---------------------------------------------------------------------- #

class ReferenceRow(Executor):
    def _fn(self, expr):
        return functools.partial(compiled(expr), funcs=self.functions)

    def _nest(self, op: Nest):
        child = self.execute(op.child)
        key = self._fn(op.key)
        aggs = [(name, monoid, self._fn(head)) for name, monoid, head in op.aggregates]
        keyed = child.map(lambda env: (freeze(key(env)), env), name="nest:keyBy")

        def agg_unit(env):
            return {name: monoid.unit(head(env)) for name, monoid, head in aggs}

        def merge_states(a, b):
            return {name: monoid.merge(a[name], b[name]) for name, monoid, _ in aggs}

        if self.config.grouping == "aggregate":
            def seq(acc, env):
                unit = agg_unit(env)
                return unit if acc is None else merge_states(acc, unit)

            grouped = keyed.aggregate_by_key(
                lambda: None, seq,
                lambda a, b: merge_states(a, b) if a and b else (a or b),
                name="nest:aggregateByKey",
            )
        else:
            raw = keyed.group_by_key(shuffle_kind=self.config.grouping, name="nest:groupByKey")

            def fold(kv):
                key, envs = kv
                state = None
                for env in envs:
                    unit = agg_unit(env)
                    state = unit if state is None else merge_states(state, unit)
                return (key, state or {})

            grouped = raw.map(fold, name="nest:fold")
        return grouped.map(lambda kv: {op.var: {"key": kv[0], **kv[1]}}, name="nest:emit")


class ReferenceVectorized(VectorizedExecutor):
    def _nest(self, op: Nest, nest_cache: dict) -> EnvBatchResult:
        child = self._child_batches(op.child, nest_cache)
        aggs = op.aggregates
        n = self.cluster.default_parallelism
        local = []
        for env in child:
            keys = [freeze(v) for v in eval_column(op.key, env, self.functions)]
            head_cols = [
                (name, monoid, eval_column(head, env, self.functions))
                for name, monoid, head in aggs
            ]
            combiners: dict[Any, dict[str, Any]] = {}
            for i, key in enumerate(keys):
                state = combiners.get(key)
                if state is None:
                    combiners[key] = {name: monoid.unit(col[i]) for name, monoid, col in head_cols}
                else:
                    for name, monoid, col in head_cols:
                        state[name] = monoid.merge(state[name], monoid.unit(col[i]))
            local.append(combiners)
        self._charge("nest:vecCombine", [len(p) for p in child])
        moved = sum(len(c) for c in local)
        shuffle_cost = self.cluster.cost_model.batch_shuffle_cost(moved)
        merged: list[dict[Any, dict[str, Any]]] = [{} for _ in range(n)]
        for combiners in local:
            for key, state in combiners.items():
                target = merged[stable_hash(key) % n]
                existing = target.get(key)
                if existing is None:
                    target[key] = state
                else:
                    for name, monoid, _ in aggs:
                        existing[name] = monoid.merge(existing[name], state[name])
        out = []
        for groups in merged:
            fields = {"key": list(groups)}
            for name, _, _ in aggs:
                fields[name] = [state[name] for state in groups.values()]
            columns = {name: Column(name, values) for name, values in fields.items()}
            out.append(EnvBatch.bind(op.var, ColumnBatch(columns, len(groups))))
        self._charge(
            "nest:vecMerge", [len(p) for p in merged],
            shuffled_records=moved, shuffle_cost=shuffle_cost,
        )
        return EnvBatchResult(out)


def reference_combine_task(envs, key_expr, aggregates, functions):
    key_of = compiled(key_expr)
    heads = [(name, monoid, compiled(head)) for name, monoid, head in aggregates]
    combiners: dict[Any, dict[str, Any]] = {}
    for env in envs:
        key = freeze(key_of(env, functions))
        unit = {name: monoid.unit(head_of(env, functions)) for name, monoid, head_of in heads}
        state = combiners.get(key)
        if state is None:
            combiners[key] = unit
        else:
            combiners[key] = {
                name: monoid.merge(state[name], unit[name]) for name, monoid, _ in aggregates
            }
    return list(combiners.items())


def reference_merge_task(part, aggregates, var, group_predicate, functions):
    merged: dict[Any, dict[str, Any]] = {}
    for key, state in part:
        existing = merged.get(key)
        if existing is None:
            merged[key] = state
        else:
            merged[key] = {
                name: monoid.merge(existing[name], state[name]) for name, monoid, _ in aggregates
            }
    return [{var: {"key": key, **state}} for key, state in merged.items()]


class ReferenceParallel(ParallelExecutor):
    def _nest(self, op: Nest):
        combined = self._execute(op.child).then(
            reference_combine_task, (op.key, op.aggregates, {}), "nest:parCombine", self._unit
        )
        return self._exchange(combined, "local", "nest:parMerge").then(
            reference_merge_task, (op.aggregates, op.var, None, {})
        )


# ---------------------------------------------------------------------- #
# The comparison
# ---------------------------------------------------------------------- #

def outcome(cluster: Cluster, rows, plan, grouping, execution, reference, exact=True):
    """What one side left behind: its output partitions, or the error it
    raised (a budget overrun, a failing merge, or the sort grouping's range
    partitioner on keys of mixed types), and the ledger, floats by
    ``repr``."""
    executor = Executor(cluster, {"t": rows}, PhysicalConfig(grouping=grouping, execution=execution))
    if reference:
        executor._vectorized = ReferenceVectorized(executor)
        executor._parallel = ReferenceParallel(executor)
        executor._nest = ReferenceRow._nest.__get__(executor)
        executor._fn = ReferenceRow._fn.__get__(executor)
    first = len(cluster.metrics.ops)
    try:
        result = repr(executor.execute(plan).partitions)
    except (BudgetExceededError, KeyError, TypeError) as exc:
        result = f"{type(exc).__name__}: {exc}" if exact else type(exc).__name__
    ops = [
        (op.name, repr(op.per_node_work), op.shuffled_records, repr(op.shuffle_cost), op.batches)
        for op in cluster.metrics.ops[first:]
    ]
    return result, ops


def both(make_cluster, rows, aggregates, grouping, execution):
    plan = nest_plan(aggregates)
    exact = execution != "vectorized"
    return [
        outcome(make_cluster(), rows, plan, grouping, execution, reference, exact)
        for reference in (True, False)
    ]


@PROPS
@given(
    rows=TABLES, aggregates=AGGREGATES, nodes=NODES, budget=BUDGETS,
    grouping=st.sampled_from(["aggregate", "sort", "hash"]),
    execution=st.sampled_from(["row", "vectorized"]),
)
def test_the_shared_fold_matches_the_chain(rows, aggregates, nodes, budget, grouping, execution):
    expected, actual = both(
        lambda: Cluster(nodes, budget=budget), rows, aggregates, grouping, execution
    )
    assert actual == expected


@pytest.fixture(scope="module")
def pool():
    from repro.engine.parallel import WorkerPool

    with WorkerPool(2) as pool:
        yield pool


@settings(max_examples=40, deadline=None, suppress_health_check=[
    HealthCheck.too_slow, HealthCheck.function_scoped_fixture,
])
@given(rows=TABLES, aggregates=AGGREGATES, nodes=st.integers(min_value=2, max_value=10),
       budget=BUDGETS)
def test_the_parallel_fold_matches_the_tasks_it_replaced(pool, rows, aggregates, nodes, budget):
    expected, actual = both(
        lambda: Cluster(nodes, budget=budget, pool=pool), rows, aggregates, "aggregate", "parallel"
    )
    assert actual == expected


def test_the_domain_is_not_vacuous():
    """The fixed table below folds without error on every executor, and
    the parallel executor claims its Nest (its ops end in ``:par``)."""
    rows = [{"k": k, "v": i, "w": i % 2} for i, k in enumerate([1, 1.0, True, 0, 1, 0, "1"] * 3)]
    aggregates = [("bag", "v"), ("set", "w"), ("sum", "v")]
    for execution in ("row", "vectorized"):
        expected, actual = both(lambda: Cluster(4), rows, aggregates, "aggregate", execution)
        assert actual == expected and not actual[0].startswith("TypeError")
    with Cluster(4, workers=2) as cluster:
        expected, actual = both(lambda: cluster, rows, aggregates, "aggregate", "parallel")
    assert actual == expected
    assert [op[0] for op in actual[1]][-2:] == ["nest:parMerge", "collect:par"]


def test_a_row_bag_nest_copies_no_list(monkeypatch):
    """Work count: the row fold appends a bag's heads in place and extends
    one state by another, so ``BagMonoid.merge`` is never called; the
    chain it replaced called it once per input after the first and once
    per combiner merge."""
    calls = []
    merge = BagMonoid.merge

    def counting(self, left, right):
        calls.append(1)
        return merge(self, left, right)

    monkeypatch.setattr(BagMonoid, "merge", counting)
    rows = [{"k": i % 3, "v": i, "w": None} for i in range(40)]
    for grouping in ("aggregate", "sort", "hash"):
        calls.clear()
        expected, actual = both(lambda: Cluster(4), rows, [("bag", "v")], grouping, "row")
        assert actual == expected
        assert len(calls) > 0  # all of them the reference's
        calls.clear()
        outcome(Cluster(4), rows, nest_plan([("bag", "v")]), grouping, "row", reference=False)
        assert calls == []
