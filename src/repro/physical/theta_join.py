"""Theta-join strategies (§6, "Handling theta joins").

Three implementations of a join with an arbitrary (inequality) predicate:

* :func:`theta_join_cartesian` — Spark SQL's fallback: materialize the cross
  product, then filter.  The materialized pairs are charged as shuffled
  records, which is what makes the baseline blow the budget on rule ψ
  (Table 5).
* :func:`theta_join_minmax` — BigDansing's pruning: partition both sides,
  compute min/max of a band key per partition, and only cross-compare
  partitions whose ranges overlap.  Effective only when the partitioning
  aligns with the predicate's fields; on unaligned data every partition pair
  overlaps and the excessive shuffling makes it non-responsive (§8.3).
* :func:`theta_join_matrix` — CleanDB's statistics-aware operator (after
  Okcan & Riedewald): model the cross product as an |L|×|R| matrix, use
  input-cardinality statistics to cut it into one near-equal-area rectangle
  per node, and stream comparisons inside each rectangle.  Shuffle is only
  the row/column chunks each node needs; work is balanced by construction.
"""

from __future__ import annotations

import math
from typing import Any, Callable

from ..engine.cluster import Cluster
from ..engine.dataset import Dataset

Predicate = Callable[[Any, Any], bool]


def theta_join_cartesian(
    left: Dataset, right: Dataset, predicate: Predicate
) -> Dataset:
    """Cross product followed by a filter — the relational-optimizer plan."""
    cluster = left.cluster
    product = left.cartesian(right, name="thetaJoin:cartesian")
    pairs = product.count()
    cluster.charge_comparisons(pairs)
    # Every materialized pair runs the predicate: nothing is pruned, so
    # verified == candidates (pruning ratio 1.0) — the baseline the banded
    # DC kernel's examined-pair counter is compared against.
    cluster.charge_verified(pairs)
    return product.filter(lambda lr: predicate(lr[0], lr[1]), name="thetaJoin:filter")


def theta_join_minmax(
    left: Dataset,
    right: Dataset,
    predicate: Predicate,
    band_key: Callable[[Any], float],
) -> Dataset:
    """BigDansing-style min-max partition pruning.

    ``band_key`` extracts the numeric attribute whose per-partition [min,max]
    ranges decide whether two partitions can possibly join.  Partitions are
    taken as-is (BigDansing does not re-sort on the band key), so on shuffled
    data the ranges of every partition span nearly the whole domain and
    nothing is pruned.
    """
    cluster = left.cluster
    unit = cluster.cost_model.record_unit
    left_parts = [p for p in left.partitions if p]
    right_parts = [p for p in right.partitions if p]

    def bounds(part: list[Any]) -> tuple[float, float]:
        keys = [band_key(r) for r in part]
        return (min(keys), max(keys))

    left_bounds = [bounds(p) for p in left_parts]
    right_bounds = [bounds(p) for p in right_parts]
    # Statistics pass: one scan of each side.
    stats_work = [(left.count() + right.count()) * unit / max(1, cluster.num_nodes)] * cluster.num_nodes
    cluster.record_op("thetaJoin:minmax:stats", stats_work)

    # Conservative band pruning for `<`-style predicates: a pair of
    # partitions can only be skipped when the left side's smallest key
    # already exceeds the right side's largest.  This only bites when
    # partitions are range-aligned with the band attribute — on shuffled
    # data every range overlaps and nothing is pruned (the §8.3 failure
    # mode).
    surviving = [
        (lpart, rpart)
        for (l_lo, _), lpart in zip(left_bounds, left_parts)
        for (_, r_hi), rpart in zip(right_bounds, right_parts)
        if not l_lo > r_hi
    ]
    # Both partitions of a surviving pair are co-located for its comparison
    # task: they are shuffled to the node that runs it (the "excessive data
    # shuffling" of §8.3).  The op is priced from partition sizes alone and
    # charged *before* any pair runs, so an over-budget join fails fast.
    comparisons = sum(len(lpart) * len(rpart) for lpart, rpart in surviving)
    shuffled = sum(len(lpart) + len(rpart) for lpart, rpart in surviving)
    per_node_work = [0.0] * cluster.num_nodes
    for task, (lpart, rpart) in enumerate(surviving):
        per_node_work[task % cluster.num_nodes] += len(lpart) * len(rpart) * unit
    cluster.charge_comparisons(comparisons)
    cluster.charge_verified(comparisons)  # every surviving pair runs the UDF
    shuffle_cost = (
        shuffled * cluster.cost_model.shuffle_unit * cluster.cost_model.hash_shuffle_factor
    )
    cluster.record_op(
        "thetaJoin:minmax",
        per_node_work,
        shuffled_records=shuffled,
        shuffle_cost=shuffle_cost,
    )
    matches = [(l, r) for lpart, rpart in surviving for l in lpart for r in rpart if predicate(l, r)]
    return _from_matches(cluster, matches)


def theta_join_matrix(
    left: Dataset,
    right: Dataset,
    predicate: Predicate,
    pair_work: Callable[[Any, Any], float] | None = None,
) -> Dataset:
    """CleanDB's statistics-aware matrix theta join.

    The |L|×|R| comparison matrix is cut into ``num_nodes`` near-equal-area
    rectangles (an r×c grid with r*c == num_nodes chosen to minimize chunk
    perimeter, i.e. replication).  Each node receives one rectangle's row and
    column chunks and streams the predicate over them.
    """
    cluster = left.cluster
    left_rows = left.collect()
    right_rows = right.collect()
    n, m = len(left_rows), len(right_rows)
    if n == 0 or m == 0:
        return cluster.empty_dataset()

    # Statistics pass over both inputs (cardinalities / histograms).
    unit = cluster.cost_model.record_unit
    stats_work = [(n + m) * unit / cluster.num_nodes] * cluster.num_nodes
    cluster.record_op("thetaJoin:matrix:stats", stats_work)

    rows_grid, cols_grid = _best_grid(cluster.num_nodes, n, m)
    row_chunks = _chunk(left_rows, rows_grid)
    col_chunks = _chunk(right_rows, cols_grid)

    work_unit = cluster.cost_model.compare_unit
    per_node_work = [0.0] * cluster.num_nodes
    shuffled = 0
    matches: list[Any] = []
    comparisons = 0
    node = 0
    for row_chunk in row_chunks:
        for col_chunk in col_chunks:
            shuffled += len(row_chunk) + len(col_chunk)
            for l in row_chunk:
                for r in col_chunk:
                    comparisons += 1
                    cost = pair_work(l, r) if pair_work else work_unit
                    per_node_work[node % cluster.num_nodes] += cost
                    if predicate(l, r):
                        matches.append((l, r))
            node += 1
    cluster.charge_comparisons(comparisons)
    cluster.charge_verified(comparisons)  # all-pairs: nothing pruned
    shuffle_cost = shuffled * cluster.cost_model.shuffle_unit
    cluster.record_op(
        "thetaJoin:matrix",
        per_node_work,
        shuffled_records=shuffled,
        shuffle_cost=shuffle_cost,
    )
    return _from_matches(cluster, matches)


def _best_grid(num_nodes: int, n: int, m: int) -> tuple[int, int]:
    """The r×c factorization of ``num_nodes`` minimizing replication.

    Replication is proportional to ``n*c + m*r`` (each row chunk is sent to
    ``c`` nodes and vice versa); the best grid follows the input aspect
    ratio.
    """
    best = (1, num_nodes)
    best_cost = math.inf
    for r in range(1, num_nodes + 1):
        if num_nodes % r:
            continue
        c = num_nodes // r
        cost = n * c + m * r
        if cost < best_cost:
            best_cost = cost
            best = (r, c)
    return best


def _chunk(items: list[Any], parts: int) -> list[list[Any]]:
    parts = max(1, min(parts, len(items)))
    size = math.ceil(len(items) / parts)
    return [items[i : i + size] for i in range(0, len(items), size)]


def _from_matches(cluster: Cluster, matches: list[Any]) -> Dataset:
    parts: list[list[Any]] = [[] for _ in range(cluster.default_parallelism)]
    for i, match in enumerate(matches):
        parts[i % len(parts)].append(match)
    return Dataset(cluster, parts, op="thetaJoin:matches")
