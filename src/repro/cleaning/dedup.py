"""Duplicate elimination (§3.1, §4.4 DEDUP, §8.3).

Deduplication is a similarity self-join refined by blocking: records are
grouped (exact key, token filtering, or k-means), then compared pairwise
*within* each block.  The comprehension of §4.4::

    groups := for (d <- data) yield filter(d.terms, algo),
    for (g <- groups, p1 <- g.partition, p2 <- g.partition,
         similar(metric, p1.atts, p2.atts, θ)) yield bag(p1, p2)

All three physical paths — the row executor, the multi-process worker tasks
of :func:`deduplicate_parallel`, and the columnar fast path of
:func:`deduplicate_columnar` — verify their candidate pairs through the
shared :class:`~repro.cleaning.simjoin.SimJoin` kernel, which precomputes
per-record comparison state once, applies length/count filtering and DP
banding before the metric runs, and (for overlapping token/k-means blocks)
verifies each pair exactly once in its owning block.  Pass
``filters=NO_FILTERS`` to reproduce the naive unfiltered loop; the output
pair set is identical either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count as _counter
from typing import Any, Callable, Sequence

from ..engine.cluster import Cluster
from ..engine.dataset import Dataset
from ..engine.parallel import ShipLog, is_picklable, rows_statically_shippable
from ..engine.partitioner import stable_hash
from ..engine.shuffle import exchange_resident
from ..sources.columnar import batch_partitions, round_robin_split
from .blocking import key_blocks, make_blocks
from .simjoin import (
    FilterConfig,
    JoinStats,
    PreparedRecord,
    SimJoin,
    resolve_filters,
)

RID = "_rid"

BlockSpec = str | Sequence[str] | Callable[[dict], Any] | None

_MISSING = object()  # sentinel: attribute absent from the batch entirely


@dataclass(frozen=True)
class DuplicatePair:
    """A detected duplicate: two record ids plus the records themselves."""

    left_id: int
    right_id: int
    left: dict
    right: dict


def ensure_rids(dataset: Dataset) -> Dataset:
    """Attach a stable record id under ``_rid`` if absent."""
    sample = dataset.take(1)
    if sample and isinstance(sample[0], dict) and RID in sample[0]:
        return dataset
    indexed = dataset.zip_with_index()
    return indexed.map(
        lambda pair: {**pair[0], RID: pair[1]}, name="dedup:assignRid"
    )


def deduplicate(
    dataset: Dataset,
    attributes: Sequence[str],
    metric: str = "LD",
    theta: float = 0.8,
    block_on: BlockSpec = None,
    op: str | None = None,
    op_params: dict | None = None,
    grouping: str = "aggregate",
    filters: FilterConfig | None = None,
) -> Dataset:
    """Find pairs of records that refer to the same real-world entity.

    Parameters mirror CleanM's ``DEDUP(<op>[, <metric>, <theta>][, <attrs>])``:

    ``attributes``
        The fields whose (average) similarity decides a match.
    ``block_on``
        Exact-key blocking: an attribute name, a sequence of attribute
        names, or a key function; records in different blocks are never
        compared.  This is the "same journal and title" blocking of the
        DBLP experiment.
    ``op``
        Alternatively, a pruning op (``"token_filtering"``, ``"kmeans"``,
        ``"length_filtering"``) applied to the concatenated ``attributes``.
    ``grouping``
        Physical grouping strategy (``aggregate`` / ``sort`` / ``hash``).
    ``filters``
        Candidate-pruning toggles for the similarity kernel (defaults on;
        ``NO_FILTERS`` reproduces the naive all-pairs verification).

    Returns a dataset of :class:`DuplicatePair` with each unordered pair
    reported once.
    """
    if not attributes:
        raise ValueError("deduplicate needs at least one comparison attribute")
    if block_on is not None and op is not None:
        raise ValueError("pass either block_on or op, not both")

    with_ids = ensure_rids(dataset)
    if block_on is not None:
        blocks = key_blocks(with_ids, _block_key_func(block_on), grouping=grouping)
    elif op is not None:
        term = _concat_terms(attributes)
        blocks = make_blocks(op, with_ids, term, grouping=grouping, **(op_params or {}))
    else:
        # Default: exact blocking on the comparison attributes themselves.
        blocks = key_blocks(
            with_ids, default_block_key(attributes), grouping=grouping
        )

    return pairwise_within_blocks(blocks, attributes, metric, theta, filters=filters)


def pairwise_within_blocks(
    blocks: Dataset,
    attributes: Sequence[str],
    metric: str,
    theta: float,
    filters: FilterConfig | None = None,
) -> Dataset:
    """Similarity self-join inside each block via the shared kernel.

    Every candidate pair charges one comparison (plus a fixed filter unit
    of work); only pairs surviving the filters charge a verified comparison
    and work proportional to the compared string lengths — this is the
    "Similarity" phase of Fig. 3.
    """
    cluster = blocks.cluster
    cost = cluster.cost_model
    join = SimJoin(
        attributes,
        metric=metric,
        theta=theta,
        filters=filters,
        compare_unit=cost.compare_unit,
        filter_unit=cost.filter_unit,
    )

    # Prepare each distinct record object once, however many blocks it
    # appears in (token blocking shares the same dict across groups).
    prepared: dict[int, PreparedRecord] = {}
    fallback_rid = _counter()

    def prep(record: dict) -> PreparedRecord:
        ref = id(record)
        ready = prepared.get(ref)
        if ready is None:
            rid = record.get(RID, _MISSING)
            if rid is _MISSING:
                # No stable id: a per-object half-integer id.  Never equal
                # to a real integer ``_rid`` (so a mixed dataset cannot
                # alias a fallback record to a real one and silently drop
                # its pairs), yet still totally ordered against them.
                rid = next(fallback_rid) + 0.5
            ready = join.prepare(rid, record)
            prepared[ref] = ready
        return ready

    parts: list[list[tuple[Any, list[PreparedRecord]]]] = [
        [(key, [prep(r) for r in records]) for key, records in part]
        for part in blocks.partitions
    ]
    pair_parts, per_part_work = join.join_grouped_partitions(parts)
    out_parts = [
        [_to_pair(a, b) for a, b in part_pairs] for part_pairs in pair_parts
    ]
    cluster.charge_comparisons(join.stats.candidates)
    cluster.charge_verified(join.stats.verified)
    cluster.record_op(
        "similarity:dedup", cluster.spread_over_nodes(per_part_work)
    )
    return Dataset(cluster, out_parts)


def _to_pair(a: PreparedRecord, b: PreparedRecord) -> DuplicatePair:
    """Kernel output (already rid-ordered) to the public pair form."""
    return DuplicatePair(a.rid, b.rid, a.payload, b.payload)


def _concat_terms(attributes: Sequence[str]) -> Callable[[dict], str]:
    return lambda record: " ".join(str(record.get(a, "")) for a in attributes)


def default_block_key(attributes: Sequence[str]) -> Callable[[dict], Any]:
    """The blocking key used when no explicit spec is given: the
    stringified comparison attributes themselves.  Shared with the
    incremental dedup state so both block identically."""
    attrs = list(attributes)
    return lambda r, _attrs=attrs: tuple(str(r.get(a, "")) for a in _attrs)


def _block_key_func(block_on: BlockSpec) -> Callable[[dict], Any]:
    """Normalize a blocking spec into a record → key function."""
    if callable(block_on):
        return block_on
    if isinstance(block_on, str):
        return lambda r, _a=block_on: r.get(_a)
    attrs = list(block_on or ())
    return lambda r, _attrs=attrs: tuple(r.get(a) for a in _attrs)


def _dedup_rid_task(records: list[dict], start: int) -> list[dict]:
    """Worker task: assign stable ``_rid``s to one resident partition.

    ``start`` is the partition's offset in the partition-major numbering —
    exactly what ``ensure_rids``'s zip_with_index produces after the same
    round-robin placement.  The numbered partition replaces the raw one in
    the store; the raw rows never return to the driver.
    """
    return [{**r, RID: start + i} for i, r in enumerate(records)]


def _dedup_block_task(
    records: list[dict], block_on: BlockSpec, attributes: list[str]
) -> list[tuple[Any, list[dict]]]:
    """Worker task: exact-key blocking of one partition (map-side combine).

    Groups in first-seen key order with records in partition order — the
    same local state ``key_blocks``'s ``aggregate_by_key`` builds.
    """
    if block_on is None:
        key_func = default_block_key(attributes)
    else:
        key_func = _block_key_func(block_on)
    groups: dict[Any, list[dict]] = {}
    for record in records:
        groups.setdefault(key_func(record), []).append(record)
    return list(groups.items())


def _dedup_pairs_task(
    part: list[tuple[Any, list[dict]]],
    attributes: list[str],
    metric: str,
    theta: float,
    compare_unit: float,
    filter_unit: float,
    filters: FilterConfig | None,
) -> tuple[list[DuplicatePair], "JoinStats"]:
    """Worker task: merge shuffled blocks, then kernel-verified similarity.

    Runs the same :class:`SimJoin` verification as the row path; with
    exact-key blocking every unordered pair lives inside exactly one block
    (each record has one key), so per-block verification is equivalent to
    the row path's global pass and the output stays byte-identical.
    Returns (pairs, partition JoinStats).
    """
    merged: dict[Any, list[dict]] = {}
    for key, records in part:
        existing = merged.get(key)
        if existing is None:
            merged[key] = records
        else:
            existing.extend(records)
    join = SimJoin(
        attributes,
        metric=metric,
        theta=theta,
        filters=filters,
        compare_unit=compare_unit,
        filter_unit=filter_unit,
    )
    out: list[DuplicatePair] = []
    fallback_rid = _counter()
    for members in merged.values():
        ready: list[PreparedRecord] = []
        for record in members:
            rid = record.get(RID, _MISSING)
            if rid is _MISSING:
                # Half-integer fallback: collision-proof against real
                # integer rids but still comparable (see pairwise prep).
                rid = next(fallback_rid) + 0.5
            ready.append(join.prepare(rid, record))
        out.extend(_to_pair(a, b) for a, b in join.join_members(ready))
    return out, join.stats


def _count_block_records(part: list[tuple[Any, list[dict]]]) -> int:
    """Worker task: record count of one exchanged block partition — prices
    the merge stage (and lets a budget abort fire there) *before* the
    CPU-heavy similarity phase dispatches, without shipping the blocks."""
    return sum(len(records) for _, records in part)


def deduplicate_parallel(
    cluster: Cluster,
    records: Sequence[dict],
    attributes: Sequence[str],
    metric: str = "LD",
    theta: float = 0.8,
    block_on: BlockSpec = None,
    fmt: str = "memory",
    filters: FilterConfig | None = None,
    pinned: tuple[str, int] | None = None,
) -> Dataset:
    """Multi-process exact-key deduplication over real worker processes.

    Execution is handle-based: the input lives in the worker pool's
    partition store (reusing the facade's pin when ``pinned`` names one),
    rid assignment and the blocking combine run against handles and keep
    their outputs worker-resident, blocks move through the *resident*
    exchange as opaque blobs, and the CPU-heavy pairwise similarity phase
    runs as one kernel task per merged partition — this is where multiple
    processes genuinely pay off, since string similarity dominates the
    workload.  Only the final :class:`DuplicatePair` lists come back to
    the driver.  Output is **byte-identical** — same pairs, same order —
    to :func:`deduplicate` with the same exact-key ``block_on`` and
    ``filters`` over ``cluster.parallelize(records, ...)``.

    Falls back to the serial row path when the blocking spec or records
    cannot cross a process boundary (lambdas, unpicklable rows).
    """
    from ..physical.parallel_exec import (
        partition_offsets,
        pin_is_warm,
        resident_input,
    )

    if not attributes:
        raise ValueError("deduplicate needs at least one comparison attribute")
    records = records if isinstance(records, list) else list(records)
    # A warm pin proves shippability outright; a cold table is judged by
    # the static type-walk over a sampled prefix.  An exotic row outside
    # the sample still takes the documented fallback: the pin fails with a
    # degradable error and the facade routes to the serial path.
    shippable = is_picklable(block_on) and (
        pin_is_warm(cluster, records, pinned)
        or rows_statically_shippable(records)
    )
    if not shippable:
        ds = cluster.parallelize(records, fmt=fmt, name="input")
        return deduplicate(
            ds, list(attributes), metric=metric, theta=theta, block_on=block_on,
            filters=filters,
        )

    n = cluster.default_parallelism
    unit = cluster.cost_model.record_unit
    pool = cluster.pool
    log = ShipLog(pool)
    refs, owned = resident_input(cluster, records, pinned, name="dedup:input")
    raw_pin = (refs[0].name, refs[0].version)
    temp_names: list[tuple[str, int]] = []
    try:
        scan_unit = cluster.cost_model.scan_unit(fmt)
        cluster.record_op(
            "scan:input:par",
            cluster.spread_over_nodes(
                [max(r.count, 0) * (unit + scan_unit) for r in refs]
            ),
            **log.take(),
        )

        # Stable ids if the source has none: partition-major sequential
        # numbering assigned in-worker (the raw rows never come back),
        # exactly what ``ensure_rids``'s zip_with_index produces after the
        # same round-robin placement.
        has_rids = (
            bool(records) and isinstance(records[0], dict) and RID in records[0]
        )
        if not has_rids:
            offsets = partition_offsets([ref.count for ref in refs])
            rid_name = ("dedup:rids", pool.next_version())
            temp_names.append(rid_name)  # registered first: a partially
            # failing stage must still have its stored siblings evicted
            refs = pool.run(
                _dedup_rid_task,
                [(ref, offsets[i]) for i, ref in enumerate(refs)],
                store_as=rid_name,
            )
            cluster.record_op(
                "dedup:assignRid:par",
                cluster.spread_over_nodes([max(r.count, 0) * unit for r in refs]),
                **log.take(),
            )

        blocked_name = ("dedup:blocked", pool.next_version())
        temp_names.append(blocked_name)
        blocked = pool.run(
            _dedup_block_task,
            [(ref, block_on, list(attributes)) for ref in refs],
            store_as=blocked_name,
        )
        cluster.record_op(
            "grouping:key:parCombine",
            cluster.spread_over_nodes([max(r.count, 0) * unit for r in refs]),
            **log.take(),
        )

        exchanged_name = ("dedup:exchanged", pool.next_version())
        temp_names.append(exchanged_name)
        exchanged, moved, cost = exchange_resident(
            cluster, pool, blocked, n, kind="local", store_as=exchanged_name
        )
        # Price (and budget-check) the merge stage *before* dispatching the
        # expensive similarity phase; the record counts come from a cheap
        # handle-based counting round, not from shipping the blocks back.
        merged_counts = pool.run(_count_block_records, [(ref,) for ref in exchanged])
        cluster.record_op(
            "grouping:key:parMerge",
            cluster.spread_over_nodes([c * unit for c in merged_counts]),
            shuffled_records=moved,
            shuffle_cost=cost,
            **log.take(),
        )

        compare_unit = cluster.cost_model.compare_unit
        filter_unit = cluster.cost_model.filter_unit
        results = pool.run(
            _dedup_pairs_task,
            [
                (
                    ref,
                    list(attributes),
                    metric,
                    theta,
                    compare_unit,
                    filter_unit,
                    resolve_filters(filters),
                )
                for ref in exchanged
            ],
        )
        out_parts = [pairs for pairs, _ in results]
        totals = JoinStats()
        for _, stats in results:
            totals.merge(stats)
        cluster.charge_comparisons(totals.candidates)
        cluster.charge_verified(totals.verified)
        cluster.record_op(
            "similarity:dedup",
            cluster.spread_over_nodes([stats.work for _, stats in results]),
            **log.take(),
        )
    finally:
        # Evict intermediates on every path — a failing task (or budget
        # abort) must not leave table-sized state resident in the workers.
        for name, version in temp_names:
            pool.evict(name, version)
        if owned:
            pool.evict(*raw_pin)
    return Dataset(cluster, out_parts, op="dedup:parallel")


def deduplicate_columnar(
    cluster: Cluster,
    records: Sequence[dict],
    attributes: Sequence[str],
    metric: str = "LD",
    theta: float = 0.8,
    block_on: BlockSpec = None,
    fmt: str = "memory",
    batch_size: int = 1024,
    filters: FilterConfig | None = None,
) -> Dataset:
    """Vectorized exact-key deduplication: the column-batch fast path.

    The scan and the blocking phase run over column batches: block keys come
    straight from attribute columns (one fetch per attribute per batch), and
    blocks hold *row references* instead of record dicts until the pairwise
    phase.  The similarity phase prepares kernel records straight from the
    attribute columns and materializes full rows only for reported pairs
    (late materialization).  Candidate/verified counts, similarity maths,
    and the output pairs match :func:`deduplicate` with ``block_on``
    exact-key blocking and the same ``filters``.

    Falls back to the row path when records are not uniform dict rows or
    when ``block_on`` needs full rows and the data cannot be columnarized.
    """
    if not attributes:
        raise ValueError("deduplicate needs at least one comparison attribute")
    records = records if isinstance(records, list) else list(records)
    batches = batch_partitions(records, cluster.default_parallelism)
    if batches is None:  # heterogeneous rows: row-at-a-time fallback
        ds = cluster.parallelize(records, fmt=fmt, name="input")
        return deduplicate(
            ds, list(attributes), metric=metric, theta=theta, block_on=block_on,
            filters=filters,
        )

    def _charge(name: str, per_part_rows: list[float], **kwargs: Any) -> None:
        cluster.record_batch_stage(name, per_part_rows, batch_size=batch_size, **kwargs)

    _charge(
        "scan:input:vec",
        [float(len(b)) for b in batches],
        extra_unit=cluster.cost_model.scan_unit(fmt),
    )

    # Assign stable row ids column-wise if the source has none (mirrors
    # ensure_rids: partition-by-partition sequential numbering).
    has_rids = bool(records) and RID in records[0]
    rid_cols: list[list[Any]] = []
    next_rid = 0
    for batch in batches:
        if has_rids:
            rid_cols.append(batch.column(RID))
        else:
            rid_cols.append(list(range(next_rid, next_rid + len(batch))))
            next_rid += len(batch)

    # Blocking: group row references by key, combine-style (local groups,
    # then one shuffled group object per (partition, key) pair).
    local: list[dict[Any, list[int]]] = []
    for batch in batches:
        keys = _block_key_column(batch, block_on, attributes)
        groups: dict[Any, list[int]] = {}
        for i, key in enumerate(keys):
            groups.setdefault(key, []).append(i)
        local.append(groups)
    _charge("grouping:key:vec", [float(len(b)) for b in batches])

    n = cluster.default_parallelism
    moved = sum(len(g) for g in local)
    shuffle_cost = cluster.cost_model.batch_shuffle_cost(moved)
    merged: list[dict[Any, list[tuple[int, int]]]] = [{} for _ in range(n)]
    for part_idx, groups in enumerate(local):
        for key, rows in groups.items():
            target = merged[stable_hash(key) % n]
            target.setdefault(key, []).extend((part_idx, i) for i in rows)
    _charge(
        "grouping:key:vecMerge",
        [float(sum(len(rows) for rows in g.values())) for g in merged],
        shuffled_records=moved,
        shuffle_cost=shuffle_cost,
    )

    # Pairwise similarity within blocks, reading attribute columns directly.
    cost = cluster.cost_model
    join = SimJoin(
        attributes,
        metric=metric,
        theta=theta,
        filters=filters,
        compare_unit=cost.compare_unit,
        filter_unit=cost.filter_unit,
    )
    attr_cols = [
        {
            a: [str(v) for v in batch.column(a)]
            if a in batch.columns
            else [""] * len(batch)
            for a in attributes
        }
        for batch in batches
    ]
    prepared: dict[tuple[int, int], PreparedRecord] = {}
    # Late materialization: the batches hold the round-robin layout of
    # ``records``, so a reported (partition, row) reference names a source
    # dict; a table without rids stamps each reported row once per call.
    source = round_robin_split(records, n)
    stamped: dict[tuple[int, int], dict] = {}

    def source_row(ready: PreparedRecord) -> dict:
        p, i = ready.payload
        if has_rids:
            return source[p][i]
        row = stamped.get(ready.payload)
        if row is None:
            row = stamped[ready.payload] = {**source[p][i], RID: ready.rid}
        return row

    def prep(ref: tuple[int, int]) -> PreparedRecord:
        ready = prepared.get(ref)
        if ready is None:
            pa, ia = ref
            terms = tuple(attr_cols[pa][a][ia] for a in attributes)
            ready = join.prepare_terms(rid_cols[pa][ia], terms, payload=ref)
            prepared[ref] = ready
        return ready

    out_parts: list[list[DuplicatePair]] = []
    per_part_work: list[float] = []
    stats = join.stats
    for groups in merged:
        work_before = stats.work
        out: list[DuplicatePair] = []
        for rows in groups.values():
            ready = [prep(ref) for ref in rows]
            for a, b in join.join_members(ready):
                out.append(DuplicatePair(a.rid, b.rid, source_row(a), source_row(b)))
        per_part_work.append(stats.work - work_before)
        out_parts.append(out)
    cluster.charge_comparisons(stats.candidates)
    cluster.charge_verified(stats.verified)
    cluster.record_op("similarity:dedup", cluster.spread_over_nodes(per_part_work))
    return Dataset(cluster, out_parts, op="dedup:vectorized")


def _block_key_column(batch: Any, key_spec: BlockSpec, attributes: Sequence[str]) -> list[Any]:
    """Block keys for one batch, column-wise where the spec allows."""
    if callable(key_spec):
        return [key_spec(batch.row(i)) for i in range(len(batch))]
    if isinstance(key_spec, str):
        if key_spec in batch.columns:
            return batch.column(key_spec)
        return [None] * len(batch)
    attrs = list(key_spec or attributes)
    cols = [
        batch.column(a) if a in batch.columns else [_MISSING] * len(batch)
        for a in attrs
    ]
    if key_spec is None:
        # Default blocking stringifies the comparison attributes, matching
        # the row path's ``str(r.get(a, ""))`` key function.
        return [
            tuple("" if v is _MISSING else str(v) for v in vals)
            for vals in zip(*cols)
        ]
    return [
        tuple(None if v is _MISSING else v for v in vals) for vals in zip(*cols)
    ]
