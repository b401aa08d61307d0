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
operator), ``cartesian`` (Spark SQL), or ``minmax`` (BigDansing).

Each operation's logic exists once, as a *kernel* that knows nothing of
clusters, prices or processes — :func:`fd_fold_partitions` (its halves
:func:`fd_combine` / :func:`fd_merge` run in workers) here,
:mod:`~repro.cleaning.dc_kernel` for DCs.  A *driver* per backend moves
partitions through it and prices the counts that come out:
:func:`check_fd` / :func:`check_dc` (row prices), ``check_*_columnar``
(the round-robin layout, batch prices),
``check_*_parallel`` (worker tasks over pinned partitions, row prices plus
measured transport) — with byte-identical violation output; which one a
caller's ``execution`` gets, and what answers when it cannot, is the rule
of :mod:`~repro.cleaning.ladder`.  docs/ARCHITECTURE.md has the full table.

Predicate semantics (null-safe three-valued comparison, stable row-id
pair dedupe) live in :mod:`repro.cleaning.dc_kernel`; the classes are
re-exported here for backwards compatibility.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Iterable, NamedTuple, Sequence

from ..engine.cluster import Cluster
from ..engine.dataset import Dataset
from ..engine.partitioner import HashPartitioner, round_robin_split
from ..engine.shuffle import exchange_resident
from ..physical.theta_join import theta_join_cartesian, theta_join_matrix, theta_join_minmax
from .dc_kernel import (
    DCPlan,
    DCRecord,
    DCStats,
    DenialConstraint,
    SingleFilter,
    TuplePredicate,
    build_dc_index,
    extract_partition,
    extract_task,
    left_filter,
    null_safe_compare,
    plan_dc_entries,
    scan_partition,
    scan_task,
)
from .rowid import partition_offsets, row_indices

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


# ---------------------------------------------------------------------- #
# FD kernel: combine one partition, merge one exchanged bucket, or both at once
# ---------------------------------------------------------------------- #

#: One key's state: ``(distinct RHS values in first-seen order, witnesses)``,
#: the values as dict keys.  Witnesses are opaque to the kernel — record
#: dicts on the driver, row indices into the driver's table in workers.
FDState = tuple[dict, list]


def fd_combine(
    records: Sequence[dict],
    rows: Sequence[int] | None,
    lhs: Sequence[AttrSpec],
    rhs: Sequence[AttrSpec],
    keep_records: bool,
) -> list[tuple[Any, FDState]]:
    """Map side: one combiner per LHS key of a partition, in first-seen
    key order; a new RHS value is recorded with its first bearer as
    witness.  Witnesses are the records themselves, or — given ``rows``,
    the partition's :func:`~repro.cleaning.rowid.row_indices`, i.e. as a
    worker task whose caller holds the records — their row indices, so no
    row rides the exchange."""
    lhs_func = _key_func(lhs)
    rhs_func = _key_func(rhs)
    combiners: dict[Any, FDState] = {}
    for position, record in enumerate(records):
        key = lhs_func(record)
        state = combiners.get(key)
        if state is None:
            state = combiners[key] = ({}, [])
        rhs_value = rhs_func(record)
        if rhs_value not in state[0]:
            state[0][rhs_value] = None
            if keep_records:
                state[1].append(record if rows is None else rows[position])
    return list(combiners.items())


def fd_merge(bucket: Iterable[tuple[Any, FDState]]) -> list[FDViolation]:
    """Reduce side: merge one exchanged bucket's combiners (they arrive
    input-partition-major) and emit its violations — the keys left with
    more than one RHS value — in first-arrival key order.  The input is
    only read: each key merges into a fresh state."""
    merged: dict[Any, FDState] = {}
    for key, (rhs_seen, witnesses) in bucket:
        seen = merged.setdefault(key, ({}, []))
        seen[0].update(rhs_seen)
        seen[1].extend(witnesses)
    return _violations(merged)


def _violations(groups: dict[Any, FDState]) -> list[FDViolation]:
    """The groups left with more than one RHS value, in insertion order."""
    return [
        FDViolation(key, tuple(rhs_seen), tuple(witnesses))
        for key, (rhs_seen, witnesses) in groups.items()
        if len(rhs_seen) > 1
    ]


def fd_fold_partitions(
    parts: Sequence[Sequence[dict]],
    n: int,
    lhs: Sequence[AttrSpec],
    rhs: Sequence[AttrSpec],
    keep_records: bool,
) -> tuple[list[list[FDViolation]], list[int], list[int]]:
    """:func:`fd_combine` → ``exchange`` into ``n`` buckets → :func:`fd_merge`
    in one partition-major pass on the driver.  Returns, per bucket, the
    same violations, the combiners routed there (one per key and partition)
    and the groups merged there.  A group is ``(bucket, key)``; its RHS
    values map to the last partition that witnessed them, since each
    partition's first bearer of a value is a witness of the merge."""
    lhs_func = _key_func(lhs)
    rhs_func = _key_func(rhs)
    route = HashPartitioner(n).partition
    buckets: list[dict[Any, FDState]] = [{} for _ in range(n)]
    combiners = [0] * n
    for p, part in enumerate(parts):
        local: dict[Any, FDState] = {}
        for record in part:
            key = lhs_func(record)
            state = local.get(key)
            if state is None:
                target = route(key)
                combiners[target] += 1
                state = local[key] = buckets[target].setdefault(key, ({}, []))
            rhs_value = rhs_func(record)
            if state[0].get(rhs_value, -1) != p:
                state[0][rhs_value] = p
                if keep_records:
                    state[1].append(record)
    return list(map(_violations, buckets)), combiners, list(map(len, buckets))


def _violation_fields(violations: list[FDViolation]) -> list[tuple]:
    """Reduce-side tail: violations as plain tuples, which pickle at a third
    of a dataclass's cost; the driver rebuilds them around its own rows."""
    return [(v.key, v.rhs_values, v.records) for v in violations]


# ---------------------------------------------------------------------- #
# FD drivers
# ---------------------------------------------------------------------- #

def check_fd(
    dataset: Dataset,
    lhs: Sequence[AttrSpec],
    rhs: Sequence[AttrSpec],
    grouping: str = "aggregate",
    keep_records: bool = True,
) -> Dataset:
    """Detect FD violations by grouping on LHS (no self-join).

    ``grouping`` picks the physical strategy: ``"aggregate"`` (CleanDB local
    pre-aggregation, skew-resilient — only combiners shuffle, the
    GROUP_CONCAT-like aggregate of §8.3), ``"sort"`` (Spark SQL sort
    shuffle), or ``"hash"`` (BigDansing hash shuffle).  The baselines run
    as ``Dataset`` operators; ``aggregate`` is one :func:`fd_fold_partitions`
    pass charged the ``map`` → ``aggregateByKey`` → ``flatMap`` ledger from
    its counts.  Returns a dataset of :class:`FDViolation`.
    """
    if grouping not in ("aggregate", "sort", "hash"):
        raise ValueError(f"unknown grouping strategy {grouping!r}")
    cluster, parts = dataset.cluster, dataset.partitions
    if grouping == "aggregate":
        n, cost = cluster.default_parallelism, cluster.cost_model
        spread = cluster.spread_over_nodes
        out, combiners, groups = fd_fold_partitions(parts, n, lhs, rhs, keep_records)
        sizes = spread([len(p) * cost.record_unit for p in parts])
        cluster.record_op("fd:keyBy", sizes)
        cluster.record_op("fd:aggregate:combine", sizes)
        moved = sum(combiners)
        merge = spread([c * cost.record_unit for c in combiners])
        shuffle_cost = moved * cost.shuffle_unit * cost.combiner_shuffle_factor
        cluster.record_op("fd:aggregate:merge", merge, moved, shuffle_cost)
        cluster.record_op("fd:violations", spread([g * cost.record_unit for g in groups]))
        return Dataset(cluster, out, op="fd:violations", parents=(dataset,))

    lhs_func = _key_func(lhs)
    rhs_func = _key_func(rhs)
    keyed = dataset.map(lambda r: (lhs_func(r), (rhs_func(r), r)), name="fd:keyBy")

    def collapse(kv: tuple[Any, list]) -> tuple[Any, FDState]:
        firsts: dict[Any, dict] = {}  # each RHS value's first bearer
        for rhs_value, record in kv[1]:
            firsts.setdefault(rhs_value, record)
        return kv[0], (firsts, list(firsts.values()) if keep_records else [])

    grouped = keyed.group_by_key(shuffle_kind=grouping, name="fd:groupByKey")
    groups = grouped.map(collapse, name="fd:collapse")
    return groups.flat_map(lambda group: fd_merge([group]), name="fd:violations")


def check_fd_columnar(
    cluster: Cluster,
    records: Sequence[dict],
    lhs: Sequence[AttrSpec],
    rhs: Sequence[AttrSpec],
    fmt: str = "memory",
    keep_records: bool = True,
    name: str = "lineitem",
) -> Dataset:
    """FD check at batch prices: the ``execution="vectorized"`` driver.

    :func:`fd_fold_partitions` over the round-robin layout of ``records``,
    each stage charged as a vectorized one (``record_batch_stage``) from
    its counts.  Results match ``check_fd(grouping="aggregate")``
    violation-for-violation; only the cost profile differs.
    """
    n = cluster.default_parallelism
    charge = cluster.record_batch_stage
    parts = round_robin_split(records, n)
    sizes = [len(p) for p in parts]
    charge(f"scan:{name}:vec", sizes, extra_unit=cluster.cost_model.scan_unit(fmt))
    out, combiners, groups = fd_fold_partitions(parts, n, lhs, rhs, keep_records)
    charge("fd:vecCombine", sizes)
    moved = sum(combiners)
    charge("fd:vecMerge", groups, moved, cluster.cost_model.batch_shuffle_cost(moved))
    return Dataset(cluster, out, op="fd:vectorized")


def check_fd_parallel(
    cluster: Cluster,
    records: Sequence[dict],
    lhs: Sequence[AttrSpec],
    rhs: Sequence[AttrSpec],
    fmt: str = "memory",
    keep_records: bool = True,
    pinned: tuple[str, int] | None = None,
    name: str = "lineitem",
) -> Dataset:
    """Multi-process FD check: the kernel as the two sides of one resident
    exchange (see :func:`~repro.physical.parallel_exec.resident_stages`).
    :func:`fd_combine` runs over the pinned partitions with row-index
    witnesses and routes its combiners in the same task; :func:`fd_merge`
    runs on the merged blobs where they land.  Only keys, RHS values and
    row indices cross a process boundary: the driver resolves each
    violation's to its own rows with one C-level ``map``.  Output is
    **byte-identical** — same violations, same order — to ``check_fd``
    over ``cluster.parallelize(records, ...)``; the metrics additionally
    carry the measured pool wall-clock and bytes shipped.
    """
    from ..physical.parallel_exec import resident_stages

    lhs, rhs = list(lhs), list(rhs)
    n = cluster.default_parallelism
    unit = cluster.cost_model.record_unit
    with resident_stages(cluster, records, pinned, "fd", name, fmt) as stages:
        inputs = [(ref, row_indices(ref.part, len(stages.refs), ref.count)) for ref in stages.refs]
        found, moved, cost, _, merged = exchange_resident(
            cluster, stages.pool, inputs, n, kind="local",
            before=[(fd_combine, (lhs, rhs, keep_records))],
            after=[(fd_merge, ()), (_violation_fields, ())],
        )
        stages.charge("fd:parCombine", [max(r.count, 0) * unit for r in stages.refs])
        stages.charge("fd:parMerge", [row[1] * unit for row in merged], moved, cost)
    row = records.__getitem__
    out = [[FDViolation(k, seen, tuple(map(row, at))) for k, seen, at in part] for part in found]
    return Dataset(cluster, out, op="fd:parallel")


# ---------------------------------------------------------------------- #
# DC: one builder, then the drivers (the kernel is :mod:`repro.cleaning.dc_kernel`)
# ---------------------------------------------------------------------- #

class DCState(NamedTuple):
    """Everything a banded check needs from a table short of the probe.

    ``index`` is :func:`~repro.cleaning.dc_kernel.build_dc_index`'s
    ``{equality key: (band values | None, band-sorted members)}``; its
    members and ``left_parts``' entries are ``entries``' own objects."""

    plan: DCPlan
    entries: list[list[DCRecord]]
    index: dict[tuple, tuple[list | None, list[DCRecord]]]
    left_parts: list[list[DCRecord]]
    group_sizes: list[int]
    left_count: int


def build_dc_state(
    constraint: DenialConstraint,
    parts: Sequence[Sequence[dict]] = (),
    refs: bool = False,
    entries: list[list[DCRecord]] | None = None,
) -> DCState:
    """The one place extract → plan → index is composed: every driver, the
    maintained state and :func:`find_violations` build through it.

    Extracts each partition of a round-robin layout (payloads are the
    records, or with ``refs`` their row indices in the table), plans over
    the partition-major entry stream, indexes it and filters the left
    side.  ``entries`` extracted elsewhere — by worker tasks, or kept by a
    maintained state — skip the extraction."""
    if entries is None:
        offsets, stride = partition_offsets([len(part) for part in parts]), len(parts)
        entries = [
            extract_partition(part, constraint, start, refs and row_indices(i, stride, len(part)))
            for i, (part, start) in enumerate(zip(parts, offsets))
        ]
    flat = [e for part in entries for e in part]
    plan = plan_dc_entries(constraint, flat)
    index = build_dc_index(flat, plan)
    passes = left_filter(constraint)
    left_parts = [list(filter(passes, part)) for part in entries]
    sizes = [len(members) for _, members in index.values()]
    return DCState(plan, entries, index, left_parts, sizes, sum(map(len, left_parts)))


def find_violations(
    records: Sequence[dict], constraint: DenialConstraint
) -> list[tuple[dict, dict]]:
    """Cluster-free banded DC check over plain records (repair/oracle use):
    the builder over one partition plus one scan.  Records without a
    ``_rid`` are numbered by position; the ``(t1, t2)`` record pairs follow
    the engine paths' null-safe, exactly-once semantics."""
    state = build_dc_state(constraint, [records])
    pairs = scan_partition(state.left_parts[0], state.index, state.plan, DCStats())
    return [(a.payload, b.payload) for a, b in pairs]


#: Strategies :func:`check_dc` accepts; ``banded`` is the planned kernel.
DC_STRATEGIES = ("banded", "matrix", "cartesian", "minmax")


def check_dc(
    dataset: Dataset,
    constraint: DenialConstraint,
    strategy: str = "banded",
    derived: Callable[..., Any] | None = None,
) -> Dataset:
    """Find tuple pairs violating a general denial constraint.

    ``banded`` (the default) plans the constraint with
    :func:`~repro.cleaning.dc_kernel.plan_dc_entries`: equality predicates
    become a hash-partitioned equi-prefix, the most selective ordered
    predicate a sort-banded range scan, and only the surviving candidate
    pairs are verified — the examined/universe counts flow into the
    ``verified`` / ``comparisons`` metrics like the similarity kernel's
    pruning counters.  ``derived`` is :func:`_dc_banded`'s.

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
        return _dc_banded(dataset.cluster, dataset.partitions, constraint, derived=derived)

    def pushed_predicate(t1: dict, t2: dict) -> bool:
        if t1 is t2:
            return False
        return all(p.holds(t1, t2) for p in constraint.predicates)

    if strategy == "minmax":
        band_attr = (
            constraint.predicates[0].left_attr if constraint.predicates else None
        )

        def band(r: dict) -> Any:
            # Null band values sort as 0 for the min/max pruning ranges;
            # the UDF's own null-safe predicates keep the answer exact.
            value = r.get(band_attr) if band_attr else None
            return 0 if value is None else value

        return theta_join_minmax(dataset, dataset, constraint.violated_by, band)

    if constraint.left_filters:
        left = dataset.filter(
            lambda r: all(f.holds(r) for f in constraint.left_filters),
            name="dc:leftFilter",
        )
    else:
        left = dataset
    if strategy == "matrix":
        return theta_join_matrix(left, dataset, pushed_predicate)
    if strategy == "cartesian":
        return theta_join_cartesian(left, dataset, pushed_predicate)
    raise ValueError(f"unknown DC strategy {strategy!r}")


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


def _dc_banded(
    cluster: Cluster,
    parts: Sequence[Sequence[dict]],
    constraint: DenialConstraint,
    batched: bool = False,
    op: str = "dc:banded",
    derived: Callable[..., Any] | None = None,
) -> Dataset:
    """The planned (banded) DC kernel over driver-held partitions — the
    one body behind the row and the columnar driver.

    One extraction pass per partition, a driver-side grouped sort (the
    equi-prefix hash + band sort), then a per-partition banded probe whose
    examined-pair work is spread over nodes by partition placement.
    Charges ``comparisons`` with the logical pair universe (filtered left
    × full right — what the pushed-down cartesian plan examines) and
    ``verified`` with the pairs the banded scan actually touched.
    ``derived`` is a session's ``TableStore.derived`` bound to the table
    ``parts`` lays out: the :func:`build_dc_state` it holds is reused
    while that table stands.  The probe and every charge run on each call
    — the simulated clock does not depend on cache temperature.

    ``batched`` is the pricing argument: off charges extraction at row
    prices (``dc:banded:stats``; the left filter rides along like a
    pushed-down selection), on charges extraction and left filter as
    vectorized stages.  Index build and scan cost the same either way.
    """
    cost = cluster.cost_model
    sizes = [len(p) for p in parts]
    build = partial(build_dc_state, constraint, parts)
    state = derived(("dc", constraint), build) if derived else build()
    left_count = state.left_count
    # Statistics + extraction pass: one scan of the input (the same
    # "global data statistics" effort the matrix join charges).
    if not batched:
        cluster.record_op(
            "dc:banded:stats",
            cluster.spread_over_nodes([size * cost.record_unit for size in sizes]),
        )
    else:
        cluster.record_batch_stage("dc:banded:stats:vec", sizes)
        cluster.record_batch_stage("dc:leftFilter:vec", sizes)
    _record_dc_index_op(cluster, state.group_sizes, sum(sizes), left_count)

    stats = DCStats()
    stats.candidates = left_count * sum(sizes)
    out_parts: list[list[tuple[dict, dict]]] = []
    per_part_work: list[float] = []
    for part in state.left_parts:
        work_before = stats.work
        pairs = scan_partition(part, state.index, state.plan, stats, cost.compare_unit)
        out_parts.append([(a.payload, b.payload) for a, b in pairs])
        per_part_work.append(stats.work - work_before)
    cluster.charge_comparisons(stats.candidates)
    cluster.charge_verified(stats.examined)
    cluster.record_op("dc:banded:scan", cluster.spread_over_nodes(per_part_work))
    return Dataset(cluster, out_parts, op=op)


def check_dc_columnar(
    cluster: Cluster,
    records: Sequence[dict],
    constraint: DenialConstraint,
    fmt: str = "memory",
    name: str = "lineitem",
    derived: Callable[..., Any] | None = None,
) -> Dataset:
    """Banded DC check at batch prices: the ``execution="vectorized"``
    driver.  The row driver's kernel pass over the round-robin layout of
    ``records`` (so violating pairs are the source dicts, in the row
    driver's order), with scan, extraction and left filter charged as
    vectorized stages.
    """
    parts = round_robin_split(records, cluster.default_parallelism)
    cluster.record_batch_stage(
        f"scan:{name}:vec",
        [len(p) for p in parts],
        extra_unit=cluster.cost_model.scan_unit(fmt),
    )
    return _dc_banded(cluster, parts, constraint, True, "dc:vectorized", derived)


def check_dc_parallel(
    cluster: Cluster,
    records: Sequence[dict],
    constraint: DenialConstraint,
    fmt: str = "memory",
    pinned: tuple[str, int] | None = None,
    name: str = "lineitem",
) -> Dataset:
    """Multi-process banded DC check: the kernel as worker tasks.

    Handle-based (see :func:`~repro.physical.parallel_exec.
    resident_stages`).  The extraction pass runs as one
    :func:`~repro.cleaning.dc_kernel.extract_task` per pinned partition:
    its comparison vectors, with row-index payloads, stream back once for
    the driver-side :func:`build_dc_state` (identical to the row path's,
    since the entry stream is partition-major) while the left-filtered
    ones *stay worker-resident*; the index is broadcast to each worker
    once; the banded probe (:func:`~repro.cleaning.dc_kernel.scan_task`)
    references both by handle.  On a pinned table all of it is cached
    against ``(table, version, constraint)`` — a warm re-run ships only the
    probe tasks' argument tuples and gets one flat list of row indices back
    per task, resolved with one C-level ``map``; this is where the >= 5x
    bytes-shipped win of the fig5 bench comes from.  Output is
    **byte-identical** — same pairs, same order — to
    ``check_dc(cluster.parallelize(records, ...), constraint)``; metrics
    additionally carry the measured pool wall-clock and bytes shipped.
    """
    from ..core.shippable import is_hashable
    from ..physical.parallel_exec import resident_stages

    cost = cluster.cost_model
    # Keyed by the constraint *itself* (frozen dataclass, equality-hashed):
    # repr() is not content-based for arbitrary predicate values.
    key = ("dc", *pinned, constraint) if pinned and is_hashable(constraint) else None
    with resident_stages(cluster, records, pinned, "dc", name, fmt) as stages:
        pool, refs = stages.pool, stages.refs
        sizes = [max(ref.count, 0) for ref in refs]
        stats_work = [size * cost.record_unit for size in sizes]
        state = pool.derived(key) if key else None
        if state is None:
            entries_name, index_name = stages.temp("dc:entries"), stages.temp("dc:index")
            offsets, stride = partition_offsets(sizes), len(sizes)
            extracted = pool.run(extract_task, [
                (ref, constraint, offsets[i], row_indices(i, stride, sizes[i]))
                for i, ref in enumerate(refs)
            ], store_as=entries_name)
            stages.charge("dc:banded:stats", stats_work)
            built = build_dc_state(constraint, entries=[entries for _, entries in extracted])
            state = {
                "left_refs": [ref for ref, _ in extracted], "plan": built.plan,
                "index_ref": pool.broadcast(*index_name, built.index),
                "index_sizes": built.group_sizes, "left_count": built.left_count,
                "store_names": [entries_name, index_name],
            }
            if key:  # the cache owns them now: later warm runs reference them
                pool.register_derived(key, state)
                stages.temps.clear()
        else:
            # Warm: extraction and index build are skipped, their simulated
            # cost is not — the simulated clock ignores cache temperature.
            stages.charge("dc:banded:stats", stats_work)
        _record_dc_index_op(
            cluster, state["index_sizes"], len(records), state["left_count"],
            **stages.log.take(),
        )
        index_ref, plan = state["index_ref"], state["plan"]
        results = pool.run(
            scan_task, [(ref, index_ref, plan, cost.compare_unit) for ref in state["left_refs"]]
        )
        stages.charge("dc:banded:scan", [work for _, (_, _, work) in results])
    # Same dicts, same order as the row path: each reply's flat row indices
    # resolved by one C-level map, consecutive rows paired up again.
    row = records.__getitem__
    out_parts = [list(zip(rows, rows)) for rows in (map(row, flat) for flat, _ in results)]
    cluster.charge_comparisons(state["left_count"] * len(records))
    cluster.charge_verified(sum(examined for _, (examined, _, _) in results))
    return Dataset(cluster, out_parts, op="dc:parallel")


# The import-star smoke test (``tests/cleaning/test_denial.py``) asserts
# every name listed here resolves on the module, so a stale entry fails fast
# instead of breaking ``from repro.cleaning.denial import *`` at a call site.
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
    "check_dc_columnar",
    "check_dc_parallel",
    "find_violations",
    "null_safe_compare",
]
