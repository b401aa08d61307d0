"""Partitioned datasets with an RDD-like API.

:class:`Dataset` is the substrate CleanDB's row plans and both baselines
run on (the row FD check charges its operators from one fold's counts).
It mirrors the Spark operators Table 2 of the paper targets (``map``,
``filter``, ``flatMap``, ``aggregateByKey``, ``mapPartitions``, joins)
while charging the simulated cost model, so that plan-shape differences
(pre-aggregation vs. full shuffle, matrix theta joins vs. cartesian
products) show up as simulated-time differences.

Operations are eager: each call materializes its result partitions and
records one metrics entry on the owning cluster.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Iterable, Iterator

from .cluster import Cluster
from .shuffle import exchange, merge_combiners, route_combiners

Record = Any
KeyedRecord = tuple[Any, Any]


class Dataset:
    """An immutable, partitioned collection bound to a :class:`Cluster`.

    Every dataset keeps the operation that produced it (``op``) and the
    datasets it was derived from (``parents``).
    """

    def __init__(
        self,
        cluster: Cluster,
        partitions: list[list[Record]],
        op: str = "source",
        parents: tuple["Dataset", ...] = (),
    ):
        self.cluster = cluster
        self.partitions = partitions if partitions else [[]]
        self.op = op
        self.parents = parents

    def _derive(self, partitions: list[list[Record]], op: str, *parents: "Dataset") -> "Dataset":
        return Dataset(self.cluster, partitions, op=op, parents=(self, *parents))

    # ------------------------------------------------------------------ #
    # Introspection / actions
    # ------------------------------------------------------------------ #
    @property
    def num_partitions(self) -> int:
        return len(self.partitions)

    def collect(self) -> list[Record]:
        """Materialize every record on the driver."""
        out: list[Record] = []
        for part in self.partitions:
            out.extend(part)
        return out

    def count(self) -> int:
        return sum(len(p) for p in self.partitions)

    def take(self, n: int) -> list[Record]:
        out: list[Record] = []
        for part in self.partitions:
            for record in part:
                out.append(record)
                if len(out) == n:
                    return out
        return out

    def first(self) -> Record:
        taken = self.take(1)
        if not taken:
            raise ValueError("first() on an empty dataset")
        return taken[0]

    def __iter__(self) -> Iterator[Record]:
        for part in self.partitions:
            yield from part

    # ------------------------------------------------------------------ #
    # Narrow transformations (no shuffle)
    # ------------------------------------------------------------------ #
    def _narrow(
        self,
        name: str,
        transform: Callable[[list[Record]], list[Record]],
        work_per_record: float | None = None,
    ) -> "Dataset":
        unit = (
            self.cluster.cost_model.record_unit
            if work_per_record is None
            else work_per_record
        )
        new_parts = [transform(p) for p in self.partitions]
        per_part = [len(p) * unit for p in self.partitions]
        self.cluster.record_op(name, self.cluster.spread_over_nodes(per_part))
        return self._derive(new_parts, name)

    def map(
        self,
        func: Callable[[Record], Any],
        name: str = "map",
        work_per_record: float | None = None,
    ) -> "Dataset":
        """``work_per_record`` overrides the charged CPU cost (default 1
        record unit) — e.g. a single-column projection is cheaper, a
        string-splitting transform slightly dearer, than a plain pass."""
        return self._narrow(
            name, lambda part: [func(r) for r in part], work_per_record
        )

    def filter(self, pred: Callable[[Record], bool], name: str = "filter") -> "Dataset":
        return self._narrow(name, lambda part: [r for r in part if pred(r)])

    def flat_map(
        self, func: Callable[[Record], Iterable[Any]], name: str = "flatMap"
    ) -> "Dataset":
        def expand(part: list[Record]) -> list[Record]:
            out: list[Record] = []
            for record in part:
                out.extend(func(record))
            return out

        return self._narrow(name, expand)

    def map_partitions(
        self,
        func: Callable[[list[Record]], Iterable[Any]],
        name: str = "mapPartitions",
        work_per_record: float | None = None,
    ) -> "Dataset":
        return self._narrow(name, lambda part: list(func(part)), work_per_record)

    def keys(self) -> "Dataset":
        return self.map(lambda kv: kv[0], name="keys")

    def values(self) -> "Dataset":
        return self.map(lambda kv: kv[1], name="values")

    def union(self, other: "Dataset") -> "Dataset":
        if other.cluster is not self.cluster:
            raise ValueError("cannot union datasets from different clusters")
        self.cluster.record_op("union", [0.0] * self.cluster.num_nodes)
        return self._derive(self.partitions + other.partitions, "union", other)

    def sample(self, fraction: float, seed: int = 7) -> "Dataset":
        rng = random.Random(seed)
        return self._narrow(
            "sample", lambda part: [r for r in part if rng.random() < fraction]
        )

    def zip_with_index(self) -> "Dataset":
        new_parts: list[list[Record]] = []
        index = 0
        for part in self.partitions:
            new_part = []
            for record in part:
                new_part.append((record, index))
                index += 1
            new_parts.append(new_part)
        per_part = [len(p) * self.cluster.cost_model.record_unit for p in self.partitions]
        self.cluster.record_op("zipWithIndex", self.cluster.spread_over_nodes(per_part))
        return self._derive(new_parts, "zipWithIndex")

    # ------------------------------------------------------------------ #
    # Wide transformations (shuffle)
    # ------------------------------------------------------------------ #
    def group_by_key(
        self,
        num_partitions: int | None = None,
        shuffle_kind: str = "sort",
        name: str = "groupByKey",
    ) -> "Dataset":
        """Full-shuffle grouping of a keyed dataset into ``(key, [values])``.

        This is the skew-*sensitive* strategy: every record crosses the
        network and a hot key lands on one node.  ``shuffle_kind`` selects
        sort-based (Spark SQL) or hash-based (BigDansing) routing.
        """
        n = num_partitions or self.cluster.default_parallelism
        new_parts, moved, cost = exchange(self.cluster, self.partitions, n, kind=shuffle_kind)
        grouped_parts: list[list[KeyedRecord]] = []
        per_part_work: list[float] = []
        unit = self.cluster.cost_model.record_unit
        for part in new_parts:
            groups: dict[Any, list[Any]] = {}
            for key, value in part:
                groups.setdefault(key, []).append(value)
            grouped_parts.append(list(groups.items()))
            per_part_work.append(len(part) * unit)
        self.cluster.record_op(
            f"{name}({shuffle_kind})",
            self.cluster.spread_over_nodes(per_part_work),
            shuffled_records=moved,
            shuffle_cost=cost,
        )
        return self._derive(grouped_parts, f"{name}({shuffle_kind})")

    def aggregate_by_key(
        self,
        zero_factory: Callable[[], Any],
        seq_op: Callable[[Any, Any], Any],
        comb_op: Callable[[Any, Any], Any],
        num_partitions: int | None = None,
        name: str = "aggregateByKey",
    ) -> "Dataset":
        """Skew-resilient grouping: combine locally, shuffle only combiners.

        This is the CleanDB strategy from Table 2/§6: each node pre-merges
        its records per key, so only one combiner per (partition, key) pair
        crosses the network and hot keys arrive pre-reduced.
        """
        n = num_partitions or self.cluster.default_parallelism
        cost, spread = self.cluster.cost_model, self.cluster.spread_over_nodes
        local: list[dict[Any, Any]] = []
        for part in self.partitions:
            combiners: dict[Any, Any] = {}
            for key, value in part:
                acc = combiners[key] if key in combiners else zero_factory()
                combiners[key] = seq_op(acc, value)
            local.append(combiners)
        unit = cost.record_unit
        self.cluster.record_op(f"{name}:combine", spread([len(p) * unit for p in self.partitions]))

        buckets = route_combiners(local, n)  # the "local" exchange
        merged_parts = [list(merge_combiners(b, comb_op).items()) for b in buckets]
        moved = sum(map(len, buckets))
        self.cluster.record_op(
            f"{name}:merge",
            spread([len(b) * unit for b in buckets]),
            shuffled_records=moved,
            shuffle_cost=moved * cost.shuffle_unit * cost.combiner_shuffle_factor,
        )
        return self._derive(merged_parts, name)

    def distinct(self, num_partitions: int | None = None) -> "Dataset":
        keyed = self.map(lambda r: (r, None), name="distinct:key")
        deduped = keyed.aggregate_by_key(
            lambda: None, lambda acc, v: None, lambda a, b: None,
            num_partitions, name="distinct",
        )
        return deduped.keys()

    # ------------------------------------------------------------------ #
    # Joins
    # ------------------------------------------------------------------ #
    def _cogroup_partitions(
        self, other: "Dataset", num_partitions: int | None, shuffle_kind: str
    ) -> tuple[list[list[tuple[Any, tuple[list, list]]]], int, float]:
        n = num_partitions or self.cluster.default_parallelism
        left_parts, moved_l, cost_l = exchange(
            self.cluster, self.partitions, n, kind=shuffle_kind
        )
        right_parts, moved_r, cost_r = exchange(
            self.cluster, other.partitions, n, kind=shuffle_kind
        )
        cogrouped: list[list[tuple[Any, tuple[list, list]]]] = []
        for left, right in zip(left_parts, right_parts):
            table: dict[Any, tuple[list, list]] = {}
            for key, value in left:
                table.setdefault(key, ([], []))[0].append(value)
            for key, value in right:
                table.setdefault(key, ([], []))[1].append(value)
            cogrouped.append(list(table.items()))
        return cogrouped, moved_l + moved_r, cost_l + cost_r

    def _join_like(
        self,
        other: "Dataset",
        emit: Callable[[Any, list, list], Iterable[Any]],
        name: str,
        num_partitions: int | None = None,
        shuffle_kind: str = "hash",
    ) -> "Dataset":
        cogrouped, moved, cost = self._cogroup_partitions(
            other, num_partitions, shuffle_kind
        )
        unit = self.cluster.cost_model.record_unit
        out_parts: list[list[Any]] = []
        per_part: list[float] = []
        for part in cogrouped:
            out: list[Any] = []
            work = 0.0
            for key, (lefts, rights) in part:
                produced = list(emit(key, lefts, rights))
                out.extend(produced)
                work += max(len(lefts) + len(rights), len(produced)) * unit
            out_parts.append(out)
            per_part.append(work)
        self.cluster.record_op(
            name,
            self.cluster.spread_over_nodes(per_part),
            shuffled_records=moved,
            shuffle_cost=cost,
        )
        return self._derive(out_parts, name, other)

    def join(self, other: "Dataset", num_partitions: int | None = None) -> "Dataset":
        """Inner equi-join of two keyed datasets: ``(key, (l, r))``."""

        def emit(key: Any, lefts: list, rights: list) -> Iterator[Any]:
            for l in lefts:
                for r in rights:
                    yield (key, (l, r))

        return self._join_like(other, emit, "join", num_partitions)

    def left_outer_join(
        self, other: "Dataset", num_partitions: int | None = None
    ) -> "Dataset":
        def emit(key: Any, lefts: list, rights: list) -> Iterator[Any]:
            for l in lefts:
                if rights:
                    for r in rights:
                        yield (key, (l, r))
                else:
                    yield (key, (l, None))

        return self._join_like(other, emit, "leftOuterJoin", num_partitions)

    def cartesian(self, other: "Dataset", name: str = "cartesian") -> "Dataset":
        """Cross product — deliberately expensive (n*m work).

        This is the Spark SQL fallback for theta joins (§6); large inputs
        blow the budget, reproducing the paper's non-terminating baselines.
        """
        left = self.collect()
        right = other.collect()
        n = self.cluster.default_parallelism
        pairs_total = len(left) * len(right)
        # The product is computed in row-blocks spread round-robin over nodes.
        out_parts: list[list[Any]] = [[] for _ in range(n)]
        per_part = [0.0] * n
        unit = self.cluster.cost_model.record_unit
        # A cartesian product *materializes* every pair; the written pairs
        # are charged as shuffle/IO volume, which is what makes Spark SQL's
        # cartesian-based theta joins non-viable (§8.3, Table 5).
        shuffle_cost = pairs_total * self.cluster.cost_model.shuffle_unit
        # Charge the op *before* materializing so oversized products fail
        # fast instead of exhausting memory.
        per_node_estimate = [
            pairs_total * unit / self.cluster.num_nodes
        ] * self.cluster.num_nodes
        self.cluster.record_op(
            name,
            per_node_estimate,
            shuffled_records=pairs_total,
            shuffle_cost=shuffle_cost,
        )
        for i, l in enumerate(left):
            target = i % n
            for r in right:
                out_parts[target].append((l, r))
            per_part[target] += len(right) * unit
        return self._derive(out_parts, name, other)
