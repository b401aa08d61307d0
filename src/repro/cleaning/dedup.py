"""Duplicate elimination (§3.1, §4.4 DEDUP, §8.3).

Deduplication is a similarity self-join refined by blocking: records are
grouped (exact key, token filtering, or k-means), then compared pairwise
*within* each block.  The comprehension of §4.4::

    groups := for (d <- data) yield filter(d.terms, algo),
    for (g <- groups, p1 <- g.partition, p2 <- g.partition,
         similar(metric, p1.atts, p2.atts, θ)) yield bag(p1, p2)

Like :mod:`repro.cleaning.denial`, the module is a *kernel* that knows
nothing of clusters, prices or processes — :func:`block` (one partition's
map-side blocking combine), :func:`merge_blocks` (one exchanged bucket) and
:func:`block_pairs` (verify every in-block pair) — under one *driver* per
backend: :func:`deduplicate` (``Dataset`` operators at row prices, and the
only driver for the overlapping token / k-means blockers),
:func:`deduplicate_columnar` (the round-robin layout at batch prices),
:func:`deduplicate_parallel` (worker tasks over pinned partitions), with
byte-identical pair output; :mod:`~repro.cleaning.ladder` decides which one
a caller's ``execution`` gets.  docs/ARCHITECTURE.md has the full table.

Every path verifies its candidate pairs through the shared similarity
kernel, which precomputes per-record comparison state once, applies
length/count filtering and DP banding before the metric runs, and (for
overlapping blocks) verifies each pair exactly once in its owning block.
Pass ``filters=NO_FILTERS`` to reproduce the naive unfiltered loop; the
output pair set is identical either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import count as _counter
from operator import iadd
from typing import Any, Callable, Sequence

from ..engine.cluster import Cluster
from ..engine.dataset import Dataset
from ..engine.partitioner import round_robin_split
from ..engine.shuffle import exchange, exchange_resident, merge_combiners
from .blocking import concat_terms, key_blocks, make_blocks
from .rowid import RID, has_rids, number_rows, partition_offsets, stamp
from .simjoin import BagCache, FilterConfig, JoinStats, PreparedRecord, SimJoin, resolve_filters

BlockSpec = str | Sequence[str] | Callable[[dict], Any] | None


@dataclass(frozen=True)
class DuplicatePair:
    """A detected duplicate: two record ids plus the records themselves."""

    left_id: int
    right_id: int
    left: dict
    right: dict


# ---------------------------------------------------------------------- #
# Blocking kernel: block one partition, pair one exchanged bucket
# ---------------------------------------------------------------------- #

def block_key_func(
    block_on: BlockSpec, attributes: Sequence[str]
) -> Callable[[dict], Any]:
    """Normalize a blocking spec into a record → key function.  ``None``
    blocks on the stringified comparison attributes themselves."""
    if callable(block_on):
        return block_on
    if isinstance(block_on, str):
        return lambda r, _a=block_on: r.get(_a)
    attrs = list(attributes if block_on is None else block_on)
    if block_on is None:
        return lambda r, _attrs=attrs: tuple(str(r.get(a, "")) for a in _attrs)
    return lambda r, _attrs=attrs: tuple(r.get(a) for a in _attrs)


def block(
    records: Sequence[dict], block_on: BlockSpec, attributes: Sequence[str]
) -> list[tuple[Any, list[dict]]]:
    """Map side: exact-key blocks of one partition, in first-seen key order
    with records in partition order — the local state ``key_blocks``'s
    ``aggregate_by_key`` builds.  Takes the blocking *spec*: it runs as a
    worker task, and a key function is a closure that does not pickle."""
    key_func = block_key_func(block_on, attributes)
    groups: dict[Any, list[dict]] = {}
    for record in records:
        groups.setdefault(key_func(record), []).append(record)
    return list(groups.items())


def preparer(join: SimJoin) -> Callable[[dict], PreparedRecord]:
    """``prep(record)`` for one join: each distinct record object prepared
    once, however many blocks it appears in (token blocking shares the same
    dict across groups)."""
    prepared: dict[int, PreparedRecord] = {}
    fallback_rid = _counter()

    def prep(record: dict) -> PreparedRecord:
        ready = prepared.get(id(record))
        if ready is None:
            rid = record.get(RID)
            if rid is None:
                # No stable id: a per-object half-integer id.  Never equal
                # to a real integer ``_rid`` (so a mixed dataset cannot
                # alias a fallback record to a real one and silently drop
                # its pairs), yet still totally ordered against them.
                rid = next(fallback_rid) + 0.5
            ready = prepared[id(record)] = join.prepare(rid, record)
        return ready

    return prep


def merge_blocks(bucket: Sequence[tuple[Any, list[dict]]]) -> dict[Any, list[dict]]:
    """Reduce side: one exchanged bucket's blocks (they arrive
    input-partition-major) merged into each key's first block in place."""
    return merge_combiners(bucket, iadd)


def block_pairs(blocks: dict[Any, list[dict]], join: SimJoin) -> list[DuplicatePair]:
    """Verify every in-block pair of merged ``blocks`` through ``join``
    (which accumulates the counters); the blocks are only read.

    With exact-key blocking every unordered pair lives inside exactly one
    block (each record has one key), so per-block verification is
    equivalent to the row driver's global pass and the output stays
    byte-identical.
    """
    prep = preparer(join)
    out: list[DuplicatePair] = []
    for members in blocks.values():
        ready = [prep(record) for record in members]
        out.extend(_to_pair(a, b) for a, b in join.join_members(ready))
    return out


def _to_pair(a: PreparedRecord, b: PreparedRecord) -> DuplicatePair:
    """Kernel output (already rid-ordered) to the public pair form."""
    return DuplicatePair(a.rid, b.rid, a.payload, b.payload)


def _pairs_task(
    blocks: dict[Any, list[dict]], bags: BagCache | None, join_args: tuple
) -> tuple[list[DuplicatePair], JoinStats]:
    """Worker task: :func:`block_pairs` under a join built in the worker
    from :class:`SimJoin`'s arguments (only the metric's *name* ships),
    reading the resident q-gram ``bags``.  Returns (pairs, JoinStats)."""
    join = SimJoin(*join_args)
    join.bags = bags
    return block_pairs(blocks, join), join.stats


def _merged_blocks(bucket: list[tuple[Any, list[dict]]]) -> Any:
    """Reduce-side step: :func:`merge_blocks`, reported by its *record*
    count — prices the merge stage (and lets a budget abort fire there)
    before the similarity phase dispatches, without shipping blocks."""
    from ..engine.worker import Staged  # a worker step: the pool's modules are loaded

    merged = merge_blocks(bucket)
    return Staged(merged, sum(map(len, merged.values())))


# ---------------------------------------------------------------------- #
# Drivers
# ---------------------------------------------------------------------- #

def ensure_rids(dataset: Dataset) -> Dataset:
    """Attach a stable record id under ``_rid`` if the dataset has none —
    the engine's ``zip_with_index`` numbering, i.e. the partition-major
    positions of :mod:`repro.cleaning.rowid`."""
    if has_rids(dataset.take(1)):
        return dataset
    return dataset.zip_with_index().map(
        lambda pair: stamp(*pair), name="dedup:assignRid"
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
    derived: Callable[..., Any] | None = None,
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
    ``derived``
        See :func:`similarity_join`.

    Returns a dataset of :class:`DuplicatePair` with each unordered pair
    reported once.
    """
    if not attributes:
        raise ValueError("deduplicate needs at least one comparison attribute")
    if block_on is not None and op is not None:
        raise ValueError("pass either block_on or op, not both")

    with_ids = ensure_rids(dataset)
    if op is not None:
        blocks = make_blocks(
            op, with_ids, concat_terms(attributes), grouping=grouping, metric=metric,
            **(op_params or {}),
        )
    else:
        blocks = key_blocks(
            with_ids, block_key_func(block_on, attributes), grouping=grouping
        )

    return pairwise_within_blocks(blocks, attributes, metric, theta, filters, derived)


def similarity_join(
    cluster: Cluster, attributes: Sequence[str], metric: str, theta: float,
    filters: FilterConfig | None, derived: Callable[..., Any] | None,
) -> SimJoin:
    """The driver-side verifier at ``cluster``'s prices.  Given ``derived``
    (a session's ``TableStore.derived`` bound to the table), a join that
    count-filters reads its q-gram bags from the table's ``("bags", q)``
    :class:`BagCache`, kept with no patch rule (a write drops it).  Records,
    blocks and verdicts are built, and every pair verified and charged, per
    call: only tokenizing is saved."""
    cost = cluster.cost_model
    join = SimJoin(attributes, metric, theta, filters, cost.compare_unit, cost.filter_unit)
    if derived is not None and join.bounded and join.filters.count_filter:
        q = join.filters.q
        join.bags = derived(("bags", q), partial(BagCache, q))
    return join


def pairwise_within_blocks(
    blocks: Dataset,
    attributes: Sequence[str],
    metric: str,
    theta: float,
    filters: FilterConfig | None = None,
    derived: Callable[..., Any] | None = None,
) -> Dataset:
    """Similarity self-join inside each block via the shared kernel.

    Every candidate pair charges one comparison (plus a fixed filter unit
    of work); only pairs surviving the filters charge a verified comparison
    and work proportional to the compared string lengths — this is the
    "Similarity" phase of Fig. 3.  ``derived`` is :func:`similarity_join`'s.
    """
    cluster = blocks.cluster
    join = similarity_join(cluster, attributes, metric, theta, filters, derived)
    prep = preparer(join)
    parts: list[list[tuple[Any, list[PreparedRecord]]]] = [
        [(key, [prep(r) for r in records]) for key, records in part]
        for part in blocks.partitions
    ]
    pair_parts, per_part_work = join.join_grouped_partitions(parts)
    out_parts = [
        [_to_pair(a, b) for a, b in part_pairs] for part_pairs in pair_parts
    ]
    _charge_similarity(cluster, join.stats, per_part_work)
    return Dataset(cluster, out_parts)


def _charge_similarity(
    cluster: Cluster, stats: JoinStats, per_part_work: Sequence[float], **transport: Any
) -> None:
    """The similarity phase's ledger entry, shared by every driver."""
    cluster.charge_comparisons(stats.candidates)
    cluster.charge_verified(stats.verified)
    cluster.record_op(
        "similarity:dedup", cluster.spread_over_nodes(per_part_work), **transport
    )


def deduplicate_columnar(
    cluster: Cluster,
    records: Sequence[dict],
    attributes: Sequence[str],
    metric: str = "LD",
    theta: float = 0.8,
    block_on: BlockSpec = None,
    fmt: str = "memory",
    filters: FilterConfig | None = None,
    name: str = "input",
    derived: Callable[..., Any] | None = None,
) -> Dataset:
    """Exact-key deduplication at batch prices: the
    ``execution="vectorized"`` driver.

    Runs the blocking kernel over the round-robin layout of ``records`` and
    charges scan, blocking and block merge as vectorized stages
    (``record_batch_stage``) from the counts the kernel produces —
    partition sizes, (partition, key) blocks moved, records per merge
    bucket; the similarity phase is priced by the join's own counters, as
    on every driver.  Counts and output pairs match :func:`deduplicate`
    with exact-key blocking and the same ``filters``.
    """
    if not attributes:
        raise ValueError("deduplicate needs at least one comparison attribute")
    n = cluster.default_parallelism
    cost = cluster.cost_model
    charge = cluster.record_batch_stage
    parts = round_robin_split(records, n)
    sizes = [len(p) for p in parts]
    charge(f"scan:{name}:vec", sizes, extra_unit=cost.scan_unit(fmt))
    if not has_rids(records):
        offsets = partition_offsets(sizes)
        parts = [number_rows(part, start) for part, start in zip(parts, offsets)]
    blocked = [block(part, block_on, attributes) for part in parts]
    charge("grouping:key:vec", sizes)
    # One block per (partition, key) moves; ``exchange`` only routes here —
    # the move is priced as a column-block shuffle, not a row one.
    buckets, moved, _ = exchange(cluster, blocked, n, kind="local")
    charge(
        "grouping:key:vecMerge",
        [sum(len(members) for _, members in bucket) for bucket in buckets],
        shuffled_records=moved,
        shuffle_cost=cost.batch_shuffle_cost(moved),
    )
    join = similarity_join(cluster, attributes, metric, theta, filters, derived)
    out_parts: list[list[DuplicatePair]] = []
    per_part_work: list[float] = []
    for bucket in buckets:
        work_before = join.stats.work
        out_parts.append(block_pairs(merge_blocks(bucket), join))
        per_part_work.append(join.stats.work - work_before)
    _charge_similarity(cluster, join.stats, per_part_work)
    return Dataset(cluster, out_parts, op="dedup:vectorized")


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
    name: str = "input",
) -> Dataset:
    """Multi-process exact-key deduplication: the kernel as worker tasks.

    Handle-based (see :func:`~repro.physical.parallel_exec.
    resident_stages`).  Cold, one exchange: rid assignment, :func:`block`
    and the map-side routing run as one task per pinned partition, and each
    bucket's blocks are merged where they land and stay worker-resident,
    reporting their record counts.  The CPU-heavy similarity phase then
    runs as one :func:`block_pairs` task per merged partition — where
    multiple processes genuinely pay off, since string similarity dominates
    the workload.  On a pinned table the blocks and the exchange's counts
    are cached against ``(table, version, block spec, attributes)``, with
    one :class:`BagCache` per ``q`` broadcast to the workers: a warm call is
    that one dispatch over resident blocks and q-gram bags, still verifying
    every pair and charging every op.  Only :class:`DuplicatePair` lists
    come back.  Output is **byte-identical** — same pairs, same order — to
    :func:`deduplicate` with the same exact-key ``block_on`` and
    ``filters`` over ``cluster.parallelize(records, ...)``.
    """
    from ..core.shippable import is_hashable
    from ..physical.parallel_exec import resident_stages

    if not attributes:
        raise ValueError("deduplicate needs at least one comparison attribute")
    attributes, filters = list(attributes), resolve_filters(filters)
    cost = cluster.cost_model
    spec = tuple(block_on) if isinstance(block_on, list) else block_on
    key = ("dedup", *pinned, spec, tuple(attributes)) if pinned and is_hashable(spec) else None
    with resident_stages(cluster, records, pinned, "dedup", name, fmt) as stages:
        pool, refs = stages.pool, stages.refs
        sizes = [max(r.count, 0) * cost.record_unit for r in refs]
        numbered = not has_rids(records)
        state = pool.derived(key) if key else None
        if state is None:
            inputs: list[Any] = refs
            before = [(block, (block_on, attributes))]
            if numbered:
                # Numbered in-worker: the raw rows never come back.
                inputs = list(zip(refs, partition_offsets([ref.count for ref in refs])))
                before.insert(0, (number_rows, ()))
            blocks_name = stages.temp("dedup:blocks")
            blocks, moved, shuffle_cost, _, merged = exchange_resident(
                cluster, pool, inputs, cluster.default_parallelism, kind="local",
                store_as=blocks_name, before=before, after=[(_merged_blocks, ())],
            )
            merge = ([row[2] * cost.record_unit for row in merged], moved, shuffle_cost)
            state = {"blocks": blocks, "merge": merge, "bags": {}, "store_names": [blocks_name]}
            if key:  # as check_dc_parallel's: the cache owns the blocks now
                pool.register_derived(key, state)
                stages.temps.clear()
        if numbered:
            stages.charge("dedup:assignRid:par", sizes)
        stages.charge("grouping:key:parCombine", sizes)
        # The merge stage is priced (and budget-checked) *before* the
        # expensive similarity phase dispatches.
        stages.charge("grouping:key:parMerge", *state["merge"])
        q = filters.q if key and filters.count_filter else None
        if q is not None and q not in state["bags"]:
            state["store_names"].append(bags_name := (f"dedup:bags:{q}", pool.next_version()))
            state["bags"][q] = pool.broadcast(*bags_name, BagCache(q))
        join_args = (attributes, metric, theta, filters, cost.compare_unit, cost.filter_unit)
        bags = state["bags"].get(q)
        results = pool.run(_pairs_task, [(ref, bags, join_args) for ref in state["blocks"]])
        totals = JoinStats()
        for _, stats in results:
            totals.merge(stats)
        _charge_similarity(
            cluster, totals, [stats.work for _, stats in results],
            **stages.log.take(),
        )
    return Dataset(cluster, [pairs for pairs, _ in results], op="dedup:parallel")
