"""Hypothesis: the driver-side FD fold is the combine → route → merge it replaced.

``check_fd(grouping="aggregate")`` and ``check_fd_columnar`` answer from one
partition-major pass (``fd_fold_partitions``) and charge the ledger from its
counts.  The references below are the operator compositions they replaced,
written out here: ``map → aggregate_by_key → flat_map`` for the row driver,
``fd_combine → exchange → fd_merge`` for the vectorized one, and ``map →
group_by_key → map → flat_map`` for the two baseline groupings.  Each pair
must agree on the ``repr`` of every output partition and on every recorded
op — name, per-node work, shuffled records, shuffle cost, batches — and,
under a budget, raise at the same op.

The domain mixes values that are equal but spelled apart (``1`` / ``1.0`` /
``True``, ``0`` / ``0.0`` / ``-0.0`` / ``False``, ``(1, "a")`` / ``(1.0,
"a")``): ``stable_hash`` routes every spelling of a key to one bucket
(``canonical_key``), so equal keys are one group whatever the layout, and
tables of fewer rows than nodes clamp the partition count below it.
"""

from __future__ import annotations

import math
from functools import partial

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cleaning.denial import (
    FDViolation,
    _key_func,
    check_fd,
    check_fd_columnar,
    fd_combine,
    fd_merge,
)
from repro.engine import Cluster
from repro.engine.shuffle import exchange
from repro.errors import BudgetExceededError
from repro.engine.partitioner import round_robin_split

DOMAIN = st.sampled_from([1, 1.0, True, 0, 0.0, -0.0, False, None, "1", (1, "a"), (1.0, "a")])
TABLES = st.lists(
    st.fixed_dictionaries({"a": DOMAIN, "b": DOMAIN}, optional={"c": DOMAIN}),
    max_size=40,
)


def a_of(record: dict):
    return record.get("a")


def a_c_of(record: dict):
    return (record.get("a"), record.get("c"))


SPECS = st.sampled_from([
    (["a"], ["b"]),
    (["b"], ["a"]),
    (["a", "c"], ["b"]),
    (["a"], ["b", "c"]),
    ([a_of], ["b"]),
    ([a_c_of], [a_of, "b"]),
])
NODES = st.sampled_from([1, 2, 3, 4, 7, 10])
BUDGETS = st.one_of(st.just(math.inf), st.floats(min_value=0.0, max_value=150.0))
PROPS = settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])


# ---------------------------------------------------------------------- #
# The replaced bodies
# ---------------------------------------------------------------------- #

def _absorb(state: tuple, value: tuple, keep_records: bool) -> tuple:
    rhs_value, record = value
    if rhs_value not in state[0]:
        state[0][rhs_value] = None
        if keep_records:
            state[1].append(record)
    return state


def _fold(state: tuple, other: tuple, keep_records: bool) -> tuple:
    for rhs_value in other[0]:
        if rhs_value not in state[0]:
            state[0][rhs_value] = None
    if keep_records:
        state[1].extend(other[1])
    return state


def _emit(group: tuple) -> list[FDViolation]:
    key, (rhs_seen, witnesses) = group
    if len(rhs_seen) <= 1:
        return []
    return [FDViolation(key, tuple(rhs_seen), tuple(witnesses))]


def _reduce(absorb, values: list) -> tuple:
    state: tuple = ({}, [])
    for value in values:
        state = absorb(state, value)
    return state


def reference_row(dataset, lhs, rhs, grouping, keep_records):
    lhs_func, rhs_func = _key_func(lhs), _key_func(rhs)
    keyed = dataset.map(lambda r: (lhs_func(r), (rhs_func(r), r)), name="fd:keyBy")
    absorb = partial(_absorb, keep_records=keep_records)
    if grouping == "aggregate":
        groups = keyed.aggregate_by_key(
            lambda: ({}, []), absorb, partial(_fold, keep_records=keep_records),
            name="fd:aggregate",
        )
    else:
        grouped = keyed.group_by_key(shuffle_kind=grouping, name="fd:groupByKey")
        groups = grouped.map(
            lambda kv: (kv[0], _reduce(absorb, kv[1])), name="fd:collapse"
        )
    return groups.flat_map(_emit, name="fd:violations")


def reference_columnar(cluster, records, lhs, rhs, keep_records):
    n = cluster.default_parallelism
    parts = round_robin_split(records, n)
    sizes = [len(p) for p in parts]
    cluster.record_batch_stage("scan:t:vec", sizes, extra_unit=cluster.cost_model.scan_unit("csv"))
    combined = [fd_combine(part, None, lhs, rhs, keep_records) for part in parts]
    cluster.record_batch_stage("fd:vecCombine", sizes)
    buckets, moved, _ = exchange(cluster, combined, n, kind="local")
    cluster.record_batch_stage(
        "fd:vecMerge",
        [len({key for key, _ in bucket}) for bucket in buckets],
        shuffled_records=moved,
        shuffle_cost=cluster.cost_model.batch_shuffle_cost(moved),
    )
    return [fd_merge(bucket) for bucket in buckets]


# ---------------------------------------------------------------------- #
# The comparison
# ---------------------------------------------------------------------- #

def outcome(nodes: int, budget: float, run) -> tuple:
    """What one side left behind: its output partitions (or the error it
    raised — a budget overrun, or the sort baseline's range partitioner
    on keys of mixed types) and the ordered ledger, floats by ``repr``."""
    cluster = Cluster(nodes, budget=budget)
    try:
        result = repr(run(cluster))
    except (BudgetExceededError, TypeError) as exc:
        result = f"{type(exc).__name__}: {exc}"
    ops = [
        (op.name, repr(op.per_node_work), op.shuffled_records, repr(op.shuffle_cost), op.batches)
        for op in cluster.metrics.ops
    ]
    return result, ops


def _row(lhs, rhs, grouping, keep_records, rows, fold):
    def run(cluster):
        dataset = cluster.parallelize(rows, fmt="csv", name="t")
        if fold:
            return check_fd(dataset, lhs, rhs, grouping, keep_records).partitions
        return reference_row(dataset, lhs, rhs, grouping, keep_records).partitions

    return run


@PROPS
@given(rows=TABLES, specs=SPECS, nodes=NODES, keep_records=st.booleans(), budget=BUDGETS)
def test_row_aggregate_fold_matches_aggregate_by_key(rows, specs, nodes, keep_records, budget):
    lhs, rhs = specs
    expected = outcome(nodes, budget, _row(lhs, rhs, "aggregate", keep_records, rows, False))
    actual = outcome(nodes, budget, _row(lhs, rhs, "aggregate", keep_records, rows, True))
    assert actual == expected


@PROPS
@given(rows=TABLES, specs=SPECS, nodes=NODES, keep_records=st.booleans(), budget=BUDGETS)
def test_vectorized_fold_matches_combine_exchange_merge(rows, specs, nodes, keep_records, budget):
    lhs, rhs = specs

    def fold(cluster):
        return check_fd_columnar(cluster, rows, lhs, rhs, "csv", keep_records, "t").partitions

    def reference(cluster):
        return reference_columnar(cluster, rows, lhs, rhs, keep_records)

    assert outcome(nodes, budget, fold) == outcome(nodes, budget, reference)


@pytest.mark.parametrize("grouping", ["sort", "hash"])
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(rows=TABLES, specs=SPECS, nodes=NODES, keep_records=st.booleans())
def test_baseline_groupings_are_unchanged(grouping, rows, specs, nodes, keep_records):
    lhs, rhs = specs
    expected = outcome(nodes, math.inf, _row(lhs, rhs, grouping, keep_records, rows, False))
    actual = outcome(nodes, math.inf, _row(lhs, rhs, grouping, keep_records, rows, True))
    assert actual == expected


def test_spellings_of_one_key_route_together():
    """``stable_hash`` sends ``1`` and ``1.0`` to one bucket at any node
    count, so the same two rows (one per partition) are one violating group
    on 10 nodes and on 4."""
    rows = [{"a": 1, "b": "x"}, {"a": 1.0, "b": "y"}]
    for nodes in (10, 4):
        cluster = Cluster(nodes)
        assert len(check_fd(cluster.parallelize(rows), ["a"], ["b"]).collect()) == 1
        run = partial(_row, ["a"], ["b"], "aggregate", True, rows)
        assert outcome(nodes, math.inf, run(True)) == outcome(nodes, math.inf, run(False))
