"""Denial constraints and functional dependencies (§3.1, §4.4, §8.3).

A functional dependency ``LHS → RHS`` is checked without a self-join by
grouping on the (possibly computed) left-hand side and flagging groups whose
right-hand side is not unique — the comprehension of §4.4::

    groups := for (d <- data) yield filter(lhs(d)),
    for (g <- groups, g.count > 1) yield bag g

General denial constraints ``∀ t1,t2 ¬(p1 ∧ ... ∧ pn)`` with inequality
predicates are checked with a theta self-join whose strategy is the
physical-level knob of §6: ``banded`` (the partition-aware plan of
:mod:`repro.cleaning.dc_kernel` — hash-partitioned equality prefix plus a
sort-banded range scan), ``matrix`` (the statistics-aware all-pairs
operator), ``cartesian`` (Spark SQL), or ``minmax`` (BigDansing).  Like FD
checking and dedup, the banded kernel runs on all three physical backends:
:func:`check_dc` (row), :func:`check_dc_parallel` (real worker processes),
and :func:`check_dc_columnar` (column batches with selection vectors) —
with byte-identical violation output.

Predicate semantics (null-safe three-valued comparison, stable row-id
pair dedupe) live in :mod:`repro.cleaning.dc_kernel`; the classes are
re-exported here for backwards compatibility.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from ..engine.cluster import Cluster
from ..engine.dataset import Dataset
from ..engine.parallel import ShipLog, is_picklable, rows_statically_shippable
from ..engine.partitioner import stable_hash
from ..engine.shuffle import exchange_resident
from ..physical.theta_join import self_theta_join
from ..sources.columnar import ColumnBatch, batch_partitions, round_robin_split
from .dc_kernel import (
    RID,
    DCRecord,
    DCStats,
    DenialConstraint,
    SingleFilter,
    TuplePredicate,
    build_dc_index,
    left_filter,
    record_extractor,
    null_safe_compare,
    plan_dc_entries,
    scan_partition,
)

AttrSpec = str | Callable[[dict], Any]


def _attr_func(spec: AttrSpec) -> Callable[[dict], Any]:
    if callable(spec):
        return spec
    return lambda record, _a=spec: record.get(_a)


def _key_func(specs: Sequence[AttrSpec]) -> Callable[[dict], Any]:
    funcs = [_attr_func(s) for s in specs]
    if len(funcs) == 1:
        return funcs[0]
    return lambda record: tuple(f(record) for f in funcs)


@dataclass(frozen=True)
class FDViolation:
    """One violated FD group: the LHS key and the conflicting RHS values."""

    key: Any
    rhs_values: tuple
    records: tuple = ()

    @property
    def count(self) -> int:
        return len(self.rhs_values)


def check_fd(
    dataset: Dataset,
    lhs: Sequence[AttrSpec],
    rhs: Sequence[AttrSpec],
    grouping: str = "aggregate",
    keep_records: bool = True,
) -> Dataset:
    """Detect FD violations by grouping on LHS (no self-join).

    ``grouping`` picks the physical strategy: ``"aggregate"`` (CleanDB local
    pre-aggregation, skew-resilient), ``"sort"`` (Spark SQL sort shuffle), or
    ``"hash"`` (BigDansing hash shuffle).  Returns a dataset of
    :class:`FDViolation`.
    """
    lhs_func = _key_func(lhs)
    rhs_func = _key_func(rhs)

    if grouping == "aggregate":
        # CleanDB path: combine (distinct RHS set, witness records) locally,
        # shuffle only combiners — the GROUP_CONCAT-like aggregate of §8.3.
        keyed = dataset.map(
            lambda r: (lhs_func(r), (rhs_func(r), r)), name="fd:keyBy"
        )

        def seq(acc: tuple[dict, list], value: tuple[Any, dict]) -> tuple[dict, list]:
            rhs_seen, records = acc
            rhs_value, record = value
            if rhs_value not in rhs_seen:
                rhs_seen[rhs_value] = None
                if keep_records:
                    records.append(record)
            return (rhs_seen, records)

        def comb(a: tuple[dict, list], b: tuple[dict, list]) -> tuple[dict, list]:
            rhs_seen, records = a
            for rhs_value in b[0]:
                if rhs_value not in rhs_seen:
                    rhs_seen[rhs_value] = None
            if keep_records:
                records.extend(b[1])
            return (rhs_seen, records)

        groups = keyed.aggregate_by_key(
            lambda: ({}, []), seq, comb, name="fd:aggregate"
        )
    elif grouping in ("sort", "hash"):
        keyed = dataset.map(
            lambda r: (lhs_func(r), (rhs_func(r), r)), name="fd:keyBy"
        )
        grouped = keyed.group_by_key(shuffle_kind=grouping, name="fd:groupByKey")

        def collapse(kv: tuple[Any, list]) -> tuple[Any, tuple[dict, list]]:
            key, values = kv
            rhs_seen: dict = {}
            records: list = []
            for rhs_value, record in values:
                if rhs_value not in rhs_seen:
                    rhs_seen[rhs_value] = None
                    if keep_records:
                        records.append(record)
            return (key, (rhs_seen, records))

        groups = grouped.map(collapse, name="fd:collapse")
    else:
        raise ValueError(f"unknown grouping strategy {grouping!r}")

    def to_violation(kv: tuple[Any, tuple[dict, list]]) -> list[FDViolation]:
        key, (rhs_seen, records) = kv
        if len(rhs_seen) > 1:
            return [FDViolation(key, tuple(rhs_seen), tuple(records))]
        return []

    return groups.flat_map(to_violation, name="fd:violations")


def check_fd_columnar(
    cluster: Cluster,
    records: Sequence[dict],
    lhs: Sequence[AttrSpec],
    rhs: Sequence[AttrSpec],
    fmt: str = "memory",
    keep_records: bool = True,
    batch_size: int = 1024,
) -> Dataset:
    """Vectorized FD check: the column-batch fast path of :func:`check_fd`.

    Each partition is columnarized once; LHS/RHS keys are read straight from
    the attribute columns (one column fetch per attribute instead of one
    dict lookup per row), the distinct-RHS combine runs over key/value
    columns, and witness records are rebuilt *only* for violating groups
    (late materialization).  Results match ``check_fd(grouping="aggregate")``
    group-for-group; only the cost profile differs.

    Falls back to the row path transparently when the records are not
    uniform dict rows (the same precondition the vectorized query backend
    checks).
    """
    records = records if isinstance(records, list) else list(records)
    batches = batch_partitions(records, cluster.default_parallelism)
    if batches is None:  # heterogeneous rows: use the row-at-a-time path
        ds = cluster.parallelize(records, fmt=fmt, name="lineitem")
        return check_fd(ds, list(lhs), list(rhs), keep_records=keep_records)

    def _charge(name: str, per_part_rows: list[float], **kwargs: Any) -> None:
        cluster.record_batch_stage(name, per_part_rows, batch_size=batch_size, **kwargs)

    _charge(
        "scan:lineitem:vec",
        [float(len(b)) for b in batches],
        extra_unit=cluster.cost_model.scan_unit(fmt),
    )

    # Map side: distinct-RHS combine over key columns, witnesses as row ids.
    local: list[dict[Any, dict[Any, int | None]]] = []
    for batch in batches:
        lhs_col = _spec_column(batch, lhs)
        rhs_col = _spec_column(batch, rhs)
        combiners: dict[Any, dict[Any, int | None]] = {}
        for i, key in enumerate(lhs_col):
            rhs_seen = combiners.setdefault(key, {})
            if rhs_col[i] not in rhs_seen:
                rhs_seen[rhs_col[i]] = i if keep_records else None
        local.append(combiners)
    _charge("fd:vecCombine", [float(len(b)) for b in batches])

    # Shuffle one combiner per (partition, key); merge and emit violations.
    n = cluster.default_parallelism
    moved = sum(len(c) for c in local)
    shuffle_cost = cluster.cost_model.batch_shuffle_cost(moved)
    # Merge state per key: (rhs first-seen dict, witness refs).  Witnesses
    # stay in combiner-arrival order — partition-major, per-partition
    # first-seen — exactly the order the row path's ``comb`` concatenates
    # them in (a key spanning partitions with interleaved RHS values would
    # otherwise come out rhs-major and break byte parity with ``check_fd``).
    merged: list[dict[Any, tuple[dict, list[tuple[int, int]]]]] = [
        {} for _ in range(n)
    ]
    for part_idx, combiners in enumerate(local):
        for key, rhs_seen in combiners.items():
            target = merged[stable_hash(key) % n]
            state = target.get(key)
            if state is None:
                state = ({}, [])
                target[key] = state
            rhs_merged, witnesses = state
            for rhs_value, row in rhs_seen.items():
                if rhs_value not in rhs_merged:
                    rhs_merged[rhs_value] = None
                if row is not None:
                    witnesses.append((part_idx, row))

    out_parts: list[list[FDViolation]] = []
    for groups in merged:
        out: list[FDViolation] = []
        for key, (rhs_merged, refs) in groups.items():
            if len(rhs_merged) > 1:
                witnesses = tuple(batches[p].row(i) for p, i in refs)
                out.append(FDViolation(key, tuple(rhs_merged), witnesses))
        out_parts.append(out)
    _charge(
        "fd:vecMerge",
        [float(len(g)) for g in merged],
        shuffled_records=moved,
        shuffle_cost=shuffle_cost,
    )
    return Dataset(cluster, out_parts, op="fd:vectorized")


def _fd_combine_task(
    records: list[dict],
    lhs: list[AttrSpec],
    rhs: list[AttrSpec],
    keep_records: bool,
) -> list[tuple[Any, tuple[dict, list]]]:
    """Worker task: the map-side combine of ``check_fd(grouping="aggregate")``.

    One combiner per key, in first-seen order; the (distinct-RHS dict,
    witness list) state and its update order mirror the row path's
    ``seq`` exactly so downstream output is byte-identical.
    """
    lhs_func = _key_func(lhs)
    rhs_func = _key_func(rhs)
    combiners: dict[Any, tuple[dict, list]] = {}
    for record in records:
        key = lhs_func(record)
        state = combiners.get(key)
        if state is None:
            state = ({}, [])
            combiners[key] = state
        rhs_seen, witnesses = state
        rhs_value = rhs_func(record)
        if rhs_value not in rhs_seen:
            rhs_seen[rhs_value] = None
            if keep_records:
                witnesses.append(record)
    return list(combiners.items())


def _fd_merge_task(
    part: list[tuple[Any, tuple[dict, list]]], keep_records: bool
) -> list[FDViolation]:
    """Worker task: merge shuffled combiners and emit this partition's
    violations, mirroring the row path's ``comb`` + ``to_violation``."""
    merged: dict[Any, tuple[dict, list]] = {}
    for key, (rhs_seen_b, witnesses_b) in part:
        state = merged.get(key)
        if state is None:
            merged[key] = (rhs_seen_b, witnesses_b)
            continue
        rhs_seen, witnesses = state
        for rhs_value in rhs_seen_b:
            if rhs_value not in rhs_seen:
                rhs_seen[rhs_value] = None
        if keep_records:
            witnesses.extend(witnesses_b)
    out: list[FDViolation] = []
    for key, (rhs_seen, witnesses) in merged.items():
        if len(rhs_seen) > 1:
            out.append(FDViolation(key, tuple(rhs_seen), tuple(witnesses)))
    return out


def check_fd_parallel(
    cluster: Cluster,
    records: Sequence[dict],
    lhs: Sequence[AttrSpec],
    rhs: Sequence[AttrSpec],
    fmt: str = "memory",
    keep_records: bool = True,
    pinned: tuple[str, int] | None = None,
) -> Dataset:
    """Multi-process FD check: :func:`check_fd` over real worker processes.

    Execution is handle-based: the input partitions live in the worker
    pool's partition store (reusing the facade's pin when ``pinned`` names
    one, pinning once otherwise), the per-partition combine references them
    by :class:`~repro.engine.parallel.StoreRef`, the combiners move through
    the *resident* exchange as opaque blobs, and only the final violation
    lists come back to the driver.  Output is **byte-identical** — same
    violations, same order — to ``check_fd(cluster.parallelize(records,
    ...), lhs, rhs)``; the metrics additionally carry the measured pool
    wall-clock and bytes shipped.

    Falls back to the serial row path when the attribute specs or records
    cannot cross a process boundary (e.g. lambda specs).
    """
    from ..physical.parallel_exec import pin_is_warm, resident_input

    records = records if isinstance(records, list) else list(records)
    lhs, rhs = list(lhs), list(rhs)
    # A warm pin proves shippability; a cold table is judged by the static
    # type-walk over a sampled prefix.  An exotic row outside the sample
    # still takes the documented fallback — the pin fails with a
    # degradable error and the facade routes to the serial path.
    shippable = is_picklable((tuple(lhs), tuple(rhs))) and (
        pin_is_warm(cluster, records, pinned)
        or rows_statically_shippable(records)
    )
    if not shippable:
        ds = cluster.parallelize(records, fmt=fmt, name="lineitem")
        return check_fd(ds, lhs, rhs, keep_records=keep_records)

    n = cluster.default_parallelism
    unit = cluster.cost_model.record_unit
    pool = cluster.pool
    log = ShipLog(pool)
    refs, owned = resident_input(cluster, records, pinned, name="fd:input")
    combined_name = ("fd:combined", pool.next_version())
    exchanged_name = ("fd:exchanged", pool.next_version())
    try:
        scan_unit = cluster.cost_model.scan_unit(fmt)
        cluster.record_op(
            "scan:lineitem:par",
            cluster.spread_over_nodes(
                [max(r.count, 0) * (unit + scan_unit) for r in refs]
            ),
            **log.take(),
        )

        combined = pool.run(
            _fd_combine_task,
            [(ref, lhs, rhs, keep_records) for ref in refs],
            store_as=combined_name,
        )
        cluster.record_op(
            "fd:parCombine",
            cluster.spread_over_nodes([max(r.count, 0) * unit for r in refs]),
            **log.take(),
        )

        exchanged, moved, cost = exchange_resident(
            cluster, pool, combined, n, kind="local", store_as=exchanged_name
        )
        out_parts = pool.run(
            _fd_merge_task, [(ref, keep_records) for ref in exchanged]
        )
        cluster.record_op(
            "fd:parMerge",
            cluster.spread_over_nodes([max(r.count, 0) * unit for r in exchanged]),
            shuffled_records=moved,
            shuffle_cost=cost,
            **log.take(),
        )
    finally:
        # Evict intermediates on every path — a failing task (or budget
        # abort) must not leave state resident in the workers.
        pool.evict(*combined_name)
        pool.evict(*exchanged_name)
        if owned:
            pool.evict(refs[0].name, refs[0].version)
    return Dataset(cluster, out_parts, op="fd:parallel")


def _spec_column(batch: ColumnBatch, specs: Sequence[AttrSpec]) -> list[Any]:
    """Evaluate attribute specs column-at-a-time over one batch.

    String specs read the column directly; callable specs (computed
    attributes like ``prefix(phone)``) apply over a rebuilt row stream —
    still one dispatch per batch.
    """
    cols: list[list[Any]] = []
    for spec in specs:
        if callable(spec):
            cols.append([spec(batch.row(i)) for i in range(len(batch))])
        elif spec in batch.columns:
            cols.append(batch.column(spec))
        else:
            cols.append([None] * len(batch))
    if len(cols) == 1:
        return cols[0]
    return [tuple(vals) for vals in zip(*cols)]


# TuplePredicate / SingleFilter / DenialConstraint are defined in
# ``dc_kernel`` (null-safe three-valued comparison, stable row-id pair
# dedupe) and re-exported above; ``_OPS`` lives on as
# ``dc_kernel.null_safe_compare``.

#: Strategies :func:`check_dc` accepts; ``banded`` is the planned kernel.
DC_STRATEGIES = ("banded", "matrix", "cartesian", "minmax")


def check_dc(
    dataset: Dataset,
    constraint: DenialConstraint,
    strategy: str = "banded",
) -> Dataset:
    """Find tuple pairs violating a general denial constraint.

    ``banded`` (the default) plans the constraint with
    :func:`~repro.cleaning.dc_kernel.plan_dc_entries`: equality predicates
    become a hash-partitioned equi-prefix, the most selective ordered
    predicate a sort-banded range scan, and only the surviving candidate
    pairs are verified — the examined/universe counts flow into the
    ``verified`` / ``comparisons`` metrics like the similarity kernel's
    pruning counters.

    For the ``matrix`` (CleanDB's all-pairs operator) and ``cartesian``
    (Spark SQL) strategies, the single-tuple filters are pushed below the
    join (both systems have a relational optimizer that performs selection
    pushdown).  BigDansing's ``minmax`` strategy treats the whole rule as
    one black-box UDF applied to tuple pairs (§2/§8.3), so nothing is
    pushed and both join sides are the full input — the source of its
    "excessive data shuffling".  Returns a dataset of violating
    ``(t1, t2)`` pairs.
    """
    if strategy == "banded":
        return check_dc_banded(dataset, constraint)

    def pushed_predicate(t1: dict, t2: dict) -> bool:
        if t1 is t2:
            return False
        return all(p.holds(t1, t2) for p in constraint.predicates)

    def udf_predicate(t1: dict, t2: dict) -> bool:
        return constraint.violated_by(t1, t2)

    if strategy == "minmax":
        band_attr = (
            constraint.predicates[0].left_attr if constraint.predicates else None
        )

        def band(r: dict) -> Any:
            # Null band values sort as 0 for the min/max pruning ranges;
            # the UDF's own null-safe predicates keep the answer exact.
            value = r.get(band_attr) if band_attr else None
            return 0 if value is None else value

        return self_theta_join_pair(dataset, dataset, udf_predicate, "minmax", band)

    if constraint.left_filters:
        left = dataset.filter(
            lambda r: all(f.holds(r) for f in constraint.left_filters),
            name="dc:leftFilter",
        )
    else:
        left = dataset
    if strategy == "matrix":
        return self_theta_join_pair(left, dataset, pushed_predicate, "matrix")
    if strategy == "cartesian":
        return self_theta_join_pair(left, dataset, pushed_predicate, "cartesian")
    raise ValueError(f"unknown DC strategy {strategy!r}")


def _dc_rids(parts: Sequence[Sequence[dict]]) -> list[list[Any]]:
    """Stable row ids per partition: ``_rid`` when present, else the
    partition-major position (exactly what ``ensure_rids`` would assign,
    without copying every record)."""
    rid_parts: list[list[Any]] = []
    position = 0
    for part in parts:
        rids: list[Any] = []
        for record in part:
            rid = record.get(RID)
            rids.append(position if rid is None else rid)
            position += 1
        rid_parts.append(rids)
    return rid_parts


def _index_group_sizes(index: dict) -> list[int]:
    """Member counts of the banded index's groups (the cached statistic the
    index-build op is priced from)."""
    return [len(members) for _, members in index.values()]


def _record_dc_index_op(
    cluster: Cluster,
    group_sizes: Sequence[int],
    n_records: int,
    left_count: int,
    **transport: Any,
) -> None:
    """Charge the banded index build (one op, shared by all backends).

    Each right record is routed once (hash on the equality prefix / range
    on the band attribute) and sorted within its group — ``group_sizes``
    are the index groups' member counts.  The exchange carries *extracted
    comparison vectors* (rid + the predicate attributes), not whole row
    objects — extraction runs before the shuffle on every backend — so it
    is priced like the compact column-block exchanges
    (``batch_shuffle_cost``).  Pricing the three backends through this one
    helper keeps their cost model from drifting apart.  ``transport``
    carries the parallel backend's measured wall/bytes counters.
    """
    cost = cluster.cost_model
    sort_work = sum(
        size * max(1.0, math.log2(size or 1)) * cost.sort_cpu_unit
        for size in group_sizes
    )
    shuffled = n_records + left_count
    cluster.record_op(
        "dc:banded:index",
        [sort_work / cluster.num_nodes] * cluster.num_nodes,
        shuffled_records=shuffled,
        shuffle_cost=cost.batch_shuffle_cost(shuffled, kind="sort"),
        **transport,
    )


def check_dc_banded(dataset: Dataset, constraint: DenialConstraint) -> Dataset:
    """Row-path execution of the planned (banded) DC kernel.

    One extraction pass per partition, a driver-side grouped sort (the
    equi-prefix hash + band sort), then a per-partition banded probe whose
    examined-pair work is spread over nodes by partition placement.
    Charges ``comparisons`` with the logical pair universe (filtered left
    × full right — what the pushed-down cartesian plan examines) and
    ``verified`` with the pairs the banded scan actually touched.
    """
    cluster = dataset.cluster
    cost = cluster.cost_model
    parts = dataset.partitions
    rid_parts = _dc_rids(parts)
    n_records = sum(len(p) for p in parts)
    unit = cost.record_unit

    extract = record_extractor(constraint)
    entries_parts: list[list[DCRecord]] = [
        list(map(extract, rids, part)) for rids, part in zip(rid_parts, parts)
    ]
    flat = [e for part in entries_parts for e in part]
    plan = plan_dc_entries(constraint, flat)
    # Statistics + extraction pass: one scan of the input (the same
    # "global data statistics" effort the matrix join charges).
    cluster.record_op(
        "dc:banded:stats",
        cluster.spread_over_nodes([len(p) * unit for p in parts]),
    )

    index = build_dc_index(flat, plan)
    passes = left_filter(constraint)
    left_parts = [list(filter(passes, part)) for part in entries_parts]
    left_count = sum(len(p) for p in left_parts)

    _record_dc_index_op(cluster, _index_group_sizes(index), n_records, left_count)

    stats = DCStats()
    stats.candidates = left_count * n_records
    out_parts: list[list[tuple[dict, dict]]] = []
    per_part_work: list[float] = []
    for part in left_parts:
        work_before = stats.work
        pairs = scan_partition(part, index, plan, stats, cost.compare_unit)
        out_parts.append([(a.payload, b.payload) for a, b in pairs])
        per_part_work.append(stats.work - work_before)
    cluster.charge_comparisons(stats.candidates)
    cluster.charge_verified(stats.examined)
    cluster.record_op("dc:banded:scan", cluster.spread_over_nodes(per_part_work))
    return Dataset(cluster, out_parts, op="dc:banded")


def check_dc_parallel(
    cluster: Cluster,
    records: Sequence[dict],
    constraint: DenialConstraint,
    fmt: str = "memory",
    pinned: tuple[str, int] | None = None,
) -> Dataset:
    """Multi-process banded DC check over real worker processes.

    Execution is handle-based.  The input lives in the worker pool's
    partition store (the facade's pin when ``pinned`` names one); the
    extraction pass runs as one worker task per partition
    (:func:`~repro.physical.parallel_exec._dc_extract_task`) whose
    comparison-vector output both *stays worker-resident* and streams back
    once for the driver-side index build (identical to the row path's,
    since the entry stream is partition-major); the index is broadcast to
    each worker once; and the banded probe references entries and index by
    handle.  On a pinned table the extraction output, plan, and index
    broadcast are cached against ``(table, version, constraint)`` — a warm
    re-run ships only the probe tasks' argument tuples and the violating
    pair references, which is where the >= 5x bytes-shipped win of the
    fig5 bench comes from.  Output is **byte-identical** — same pairs,
    same order — to ``check_dc(cluster.parallelize(records, ...),
    constraint, strategy="banded")``; metrics additionally carry the
    measured pool wall-clock and bytes shipped.

    Falls back to the serial banded row path when the constraint or the
    records cannot cross a process boundary.
    """
    from ..physical.parallel_exec import pin_is_warm, resident_input

    records = records if isinstance(records, list) else list(records)
    # Warm pins prove shippability; cold tables get the static type-walk.
    shippable = is_picklable(constraint) and (
        pin_is_warm(cluster, records, pinned)
        or rows_statically_shippable(records)
    )
    if not shippable:
        ds = cluster.parallelize(records, fmt=fmt, name="lineitem")
        return check_dc_banded(ds, constraint)

    cost = cluster.cost_model
    n = cluster.default_parallelism
    unit = cost.record_unit
    # Driver-side layout mirror: the driver holds the records, so violating
    # rows materialize here from (partition, row) references — no row data
    # returns from the workers.
    parts = round_robin_split(records, n)
    pool = cluster.pool
    log = ShipLog(pool)
    refs, owned = resident_input(
        cluster, records, pinned, name="dc:input", parts=parts
    )
    scan_unit = cost.scan_unit(fmt)
    cluster.record_op(
        "scan:lineitem:par",
        cluster.spread_over_nodes([len(p) * (unit + scan_unit) for p in parts]),
        **log.take(),
    )

    n_records = len(records)
    # Key the derived cache by the constraint *itself* (frozen dataclass,
    # equality-hashed) — repr() is not content-based for arbitrary predicate
    # values.  A constraint with unhashable values simply never caches.
    try:
        hash(constraint)
        cache_key = (
            ("dc", pinned[0], pinned[1], constraint) if pinned is not None else None
        )
    except TypeError:
        cache_key = None
    state = pool.derived(cache_key) if cache_key is not None else None
    ad_hoc_names: list[tuple[str, int]] = []
    try:
        out_parts, totals = _dc_parallel_stages(
            cluster, pool, log, state, cache_key, constraint, parts, refs,
            n_records, unit, cost, ad_hoc_names,
        )
    finally:
        # Evict call-scoped state on every path — a failing probe task (or
        # budget abort) must not leave entries or a per-worker index copy
        # resident; cached derived state for pinned tables stays.
        for name, version in ad_hoc_names:
            pool.evict(name, version)
        if owned:
            pool.evict(refs[0].name, refs[0].version)
    cluster.charge_comparisons(totals.candidates)
    cluster.charge_verified(totals.examined)
    return Dataset(cluster, out_parts, op="dc:parallel")


def _dc_parallel_stages(
    cluster: Cluster,
    pool: Any,
    log: ShipLog,
    state: dict | None,
    cache_key: tuple | None,
    constraint: DenialConstraint,
    parts: list[list[dict]],
    refs: list,
    n_records: int,
    unit: float,
    cost: Any,
    ad_hoc_names: list[tuple[str, int]],
) -> tuple[list[list[tuple[dict, dict]]], DCStats]:
    """The extract → index → probe pipeline of :func:`check_dc_parallel`
    (split out so the caller can guarantee eviction on every exit path).
    Appends any call-scoped store names it creates to ``ad_hoc_names``."""
    from ..physical.parallel_exec import (
        _dc_extract_task,
        _dc_scan_task,
        partition_offsets,
    )

    if state is None:
        offsets = partition_offsets([len(p) for p in parts])
        entries_name = ("dc:entries", pool.next_version())
        index_name = ("dc:index", pool.next_version())
        # Registered for eviction *before* the fallible stages run: if one
        # extraction task fails, its successful siblings' stored partitions
        # must still be evicted (evicting a never-stored name is a no-op).
        ad_hoc_names.extend([entries_name, index_name])
        extracted = pool.run(
            _dc_extract_task,
            [
                (ref, constraint, offsets[part_idx], part_idx)
                for part_idx, ref in enumerate(refs)
            ],
            store_as=entries_name,
            returning=True,
        )
        cluster.record_op(
            "dc:banded:stats",
            cluster.spread_over_nodes([len(p) * unit for p in parts]),
            **log.take(),
        )
        flat = [e for _, entries in extracted for e in entries]
        plan = plan_dc_entries(constraint, flat)
        index = build_dc_index(flat, plan)
        index_ref = pool.broadcast(index_name[0], index_name[1], index)
        state = {
            "entry_refs": [ref for ref, _ in extracted],
            "index_ref": index_ref,
            "plan": plan,
            "index_sizes": _index_group_sizes(index),
            "left_count": sum(map(left_filter(constraint), flat)),
            "store_names": [entries_name, index_name],
        }
        if cache_key is not None:
            # Ownership transfers to the derived cache: the caller must not
            # evict what later warm runs will reference.
            pool.register_derived(cache_key, state)
            del ad_hoc_names[:]
    else:
        # Warm store: extraction and index build are skipped, but the ops
        # still charge their simulated cost — the simulated clock must not
        # depend on cache temperature, only the measured columns may.
        cluster.record_op(
            "dc:banded:stats",
            cluster.spread_over_nodes([len(p) * unit for p in parts]),
            **log.take(),
        )
    left_count = state["left_count"]

    _record_dc_index_op(
        cluster, state["index_sizes"], n_records, left_count, **log.take()
    )

    results = pool.run(
        _dc_scan_task,
        [
            (entry_ref, state["index_ref"], state["plan"], cost.compare_unit, constraint)
            for entry_ref in state["entry_refs"]
        ],
    )
    # Workers return (partition, row) reference pairs; the driver holds the
    # records, so violating rows materialize here — same dicts, same order
    # as the row path.
    out_parts = [
        [(parts[p1][i1], parts[p2][i2]) for (p1, i1), (p2, i2) in pairs]
        for pairs, _ in results
    ]
    totals = DCStats()
    totals.candidates = left_count * n_records
    for _, stats in results:
        totals.examined += stats[0]
        totals.pairs += stats[1]
        totals.work += stats[2]
    cluster.record_op(
        "dc:banded:scan",
        cluster.spread_over_nodes([stats[2] for _, stats in results]),
        **log.take(),
    )
    return out_parts, totals


def check_dc_columnar(
    cluster: Cluster,
    records: Sequence[dict],
    constraint: DenialConstraint,
    fmt: str = "memory",
    batch_size: int = 1024,
) -> Dataset:
    """Vectorized banded DC check: the column-batch fast path.

    The single-tuple filters run column-at-a-time over ``ColumnBatch``
    selection vectors (:func:`~repro.physical.vectorized.dc_filter_batch`
    — no row dicts are built), comparison vectors are read straight from
    the attribute columns, and violating pairs late-materialize rows only
    on emission.  Violation output matches :func:`check_dc_banded` over
    the same round-robin layout byte-for-byte.

    Falls back to the banded row path when the records are not uniform
    dict rows (the vectorized backend's usual precondition).
    """
    from ..physical.vectorized import dc_extract_batch, dc_filter_batch

    records = records if isinstance(records, list) else list(records)
    batches = batch_partitions(records, cluster.default_parallelism)
    if batches is None:  # heterogeneous rows: row-at-a-time fallback
        ds = cluster.parallelize(records, fmt=fmt, name="lineitem")
        return check_dc_banded(ds, constraint)

    cost = cluster.cost_model

    def _charge(name: str, per_part_rows: list[float], **kwargs: Any) -> None:
        cluster.record_batch_stage(name, per_part_rows, batch_size=batch_size, **kwargs)

    _charge(
        "scan:lineitem:vec",
        [float(len(b)) for b in batches],
        extra_unit=cost.scan_unit(fmt),
    )

    # Stable row ids, partition-major (mirrors the row path's _dc_rids).
    has_rids = bool(records) and RID in records[0]
    rid_cols: list[list[Any]] = []
    next_rid = 0
    for batch in batches:
        if has_rids:
            rid_cols.append(batch.column(RID))
        else:
            rid_cols.append(list(range(next_rid, next_rid + len(batch))))
            next_rid += len(batch)

    entries_parts = [
        dc_extract_batch(batch, constraint, rids, part_idx)
        for part_idx, (batch, rids) in enumerate(zip(batches, rid_cols))
    ]
    _charge("dc:banded:stats:vec", [float(len(b)) for b in batches])

    flat = [e for part in entries_parts for e in part]
    plan = plan_dc_entries(constraint, flat)
    index = build_dc_index(flat, plan)

    # Left side: selection-vector filtering, then entry lookup by the
    # surviving physical row indices (selection preserves order).
    left_parts: list[list[DCRecord]] = []
    for part_idx, batch in enumerate(batches):
        filtered = dc_filter_batch(batch, constraint)
        selection = (
            filtered.selection
            if filtered.selection is not None
            else range(filtered.physical_rows)
        )
        entries = entries_parts[part_idx]
        left_parts.append([entries[i] for i in selection])
    _charge("dc:leftFilter:vec", [float(len(b)) for b in batches])

    left_count = sum(len(p) for p in left_parts)
    n_records = len(records)
    _record_dc_index_op(cluster, _index_group_sizes(index), n_records, left_count)

    stats = DCStats()
    stats.candidates = left_count * n_records
    rows = round_robin_split(records, cluster.default_parallelism)
    out_parts: list[list[tuple[dict, dict]]] = []
    per_part_work: list[float] = []
    for part in left_parts:
        work_before = stats.work
        pairs = scan_partition(part, index, plan, stats, cost.compare_unit)
        # Late materialization: the batches hold the round-robin layout of
        # ``records``, so a (partition, row) reference names a source dict —
        # the row path's own output objects; no row is rebuilt from columns.
        out = [
            (rows[a.payload[0]][a.payload[1]], rows[b.payload[0]][b.payload[1]])
            for a, b in pairs
        ]
        out_parts.append(out)
        per_part_work.append(stats.work - work_before)
    cluster.charge_comparisons(stats.candidates)
    cluster.charge_verified(stats.examined)
    cluster.record_op("dc:banded:scan", cluster.spread_over_nodes(per_part_work))
    return Dataset(cluster, out_parts, op="dc:vectorized")


def self_theta_join_pair(
    left: Dataset,
    right: Dataset,
    predicate: Callable[[dict, dict], bool],
    strategy: str,
    band_key: Callable[[dict], float] | None = None,
) -> Dataset:
    """Theta join of a (possibly filtered) left side against the full input."""
    from ..physical.theta_join import (
        theta_join_cartesian,
        theta_join_matrix,
        theta_join_minmax,
    )

    if strategy == "matrix":
        return theta_join_matrix(left, right, predicate)
    if strategy == "cartesian":
        return theta_join_cartesian(left, right, predicate)
    if strategy == "minmax":
        if band_key is None:
            raise ValueError("minmax strategy requires a band key")
        return theta_join_minmax(left, right, predicate, band_key)
    raise ValueError(f"unknown theta-join strategy {strategy!r}")


# ``self_theta_join`` is deliberately re-exported from
# ``repro.physical.theta_join``: it is the strategy dispatcher behind
# ``check_dc``'s matrix/cartesian/minmax plans, and the cleaning layer is
# its public surface.  The import-star smoke test
# (``tests/cleaning/test_denial.py``) asserts every name listed here
# resolves on the module, so a stale entry fails fast instead of breaking
# ``from repro.cleaning.denial import *`` at a call site.
__all__ = [
    "FDViolation",
    "check_fd",
    "check_fd_columnar",
    "check_fd_parallel",
    "TuplePredicate",
    "SingleFilter",
    "DenialConstraint",
    "DC_STRATEGIES",
    "check_dc",
    "check_dc_banded",
    "check_dc_columnar",
    "check_dc_parallel",
    "self_theta_join",
    "self_theta_join_pair",
    "null_safe_compare",
]
