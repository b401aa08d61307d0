"""The shuffle layer: redistributes keyed records across partitions.

All wide dependencies in the engine funnel through :func:`exchange`, which is
where records cross node boundaries and where the shuffle cost of each
strategy is computed:

* ``"hash"``  — hash partitioning, charged at the hash-shuffle factor
  (models BigDansing's hash-based shuffle, §8.3);
* ``"sort"``  — range partitioning from a key sample, charged at the
  sort-shuffle factor (models Spark SQL's sort-based shuffle);
* ``"local"`` — hash partitioning of *pre-aggregated combiners*; the caller
  has already shrunk the data map-side, so far fewer records move (models
  CleanDB's ``aggregateByKey``).

:func:`exchange` is the driver-side form the :class:`~repro.engine.
dataset.Dataset` operators use (the row and vectorized FD drivers route
nothing: they charge the exchange the counts of
:func:`~repro.cleaning.denial.fd_fold_partitions` describe).  A
``"local"`` exchange of combiner dicts on the driver (``aggregate_by_key``,
the executors' Nest folds) is :func:`route_combiners` then
:func:`merge_combiners` per bucket, its caller charging the counts.
:func:`exchange_resident` is the handle-based form the parallel fast paths
use: input partitions are referenced by :class:`~repro.engine.worker.
StoreRef`, map-side workers pickle each target's bucket into an *opaque
blob* at the tail of whatever stage produced the keyed records, the driver
forwards the blobs to the target workers without ever unpickling a row,
and the merged target partitions head the downstream stage there.  Both
produce byte-identical output: target partition *p* receives input
partition *i*'s records before partition *i+1*'s, each in original order.
"""

from __future__ import annotations

import math
import pickle
from typing import TYPE_CHECKING, Any, Callable, Sequence

from .cluster import Cluster
from .partitioner import Partitioner, make_partitioner

if TYPE_CHECKING:
    from .parallel import WorkerPool

KeyedRecord = tuple[Any, Any]

# How many keys the range partitioner samples before cutting boundaries.
_RANGE_SAMPLE_SIZE = 1024


def exchange(
    cluster: Cluster,
    partitions: list[list[KeyedRecord]],
    num_partitions: int,
    kind: str = "hash",
) -> tuple[list[list[KeyedRecord]], int, float]:
    """A hash-/range-partitioned exchange of keyed records, on the driver.

    Map side: every input partition is routed into per-target buckets by the
    strategy's partitioner.  Reduce side: each target's buckets are
    concatenated in input-partition order, preserving intra-partition order
    — the determinism contract :func:`exchange_resident` reproduces.

    Returns ``(new_partitions, records_moved, shuffle_cost)``; the caller
    records the op metrics (it usually folds in reduce-side work first).
    """
    total = sum(len(p) for p in partitions)
    partitioner, factor = _select_partitioner(cluster, partitions, num_partitions, kind)
    out: list[list[KeyedRecord]] = [[] for _ in range(num_partitions)]
    for part in partitions:  # input-partition order: the determinism contract
        for target, bucket in enumerate(_route_partition(part, partitioner, num_partitions)):
            if bucket:
                out[target].extend(bucket)

    cost = total * cluster.cost_model.shuffle_unit * factor
    if kind == "sort" and total > 1:
        # The sort itself costs n·log n CPU on top of the data movement.
        cost += total * math.log2(total) * cluster.cost_model.sort_cpu_unit
    return out, total, cost


def route_combiners(local: Sequence[dict], n: int) -> list[list[KeyedRecord]]:
    """The ``"local"`` exchange's routing of per-partition combiner dicts,
    counted by the caller: each combiner to its ``HashPartitioner`` bucket,
    in input-partition order (:func:`exchange`'s determinism contract)."""
    route = make_partitioner("hash", n).partition
    buckets: list[list[KeyedRecord]] = [[] for _ in range(n)]
    for combiners in local:
        for item in combiners.items():
            buckets[route(item[0])].append(item)
    return buckets


def merge_combiners(bucket: Sequence[KeyedRecord], combine: Callable) -> dict[Any, Any]:
    """The reduce side of a combiner exchange: one bucket's combiners folded
    per key in arrival order, ``combine(merged, other)`` returning the
    merged one (which it may have updated in place)."""
    merged: dict[Any, Any] = {}
    for key, state in bucket:
        merged[key] = combine(merged[key], state) if key in merged else state
    return merged


def exchange_resident(
    cluster: Cluster,
    pool: WorkerPool,
    refs: Sequence[Any],
    num_partitions: int,
    kind: str = "hash",
    store_as: tuple[str, int] | None = None,
    before: Sequence[tuple[Callable, tuple]] = (),
    after: Sequence[tuple[Callable, tuple]] = (),
) -> tuple[list[Any], int, float, list[tuple[int, ...]], list[tuple[int, ...]]]:
    """Exchange worker-resident keyed partitions without driver
    materialization — two dispatches, whatever runs on either side.

    Map side: one task per input (``refs``: handles, or tuples of the head
    step's partition arguments) runs the ``before`` chain and, as its tail,
    routes the keyed result into per-target buckets, each pickled into one
    opaque blob.  The driver forwards every target's blobs — in
    input-partition order, the determinism contract — to the target
    partition's worker, whose task unpickles and concatenates them and runs
    the ``after`` chain on the result.  Rows cross the process boundary
    exactly twice as bytes (worker → driver → worker) and are never
    re-pickled into later task args.  The reduce side's output stays
    worker-resident under ``store_as``; without it the values come back to
    the driver (a final stage).  Only ``"hash"`` and ``"local"`` routing are
    supported — range routing needs a key sample, which would defeat the
    point of keeping the data out of the driver.

    Returns ``(out, records_moved, shuffle_cost, map_counts, reduce_counts)``
    — the first three as :func:`exchange` does (``out`` handles or values),
    then :meth:`~repro.engine.parallel.WorkerPool.run_stage`'s counts for
    either dispatch: ``reduce_counts[t][1]`` is target *t*'s merged record
    count, ``[2:]`` the counts after each ``after`` step.
    """
    if kind == "sort":
        raise ValueError("exchange_resident supports 'hash'/'local' routing only")
    partitioner, factor = _select_partitioner(cluster, [], num_partitions, kind)
    routed, map_counts = pool.run_stage(
        [*before, (_route_to_blobs, (partitioner, num_partitions))], refs
    )
    out, reduce_counts = pool.run_stage(
        [(_merge_blob_buckets, ()), *after],
        [([buckets[target] for buckets in routed],) for target in range(num_partitions)],
        store_as=store_as,
        parts=list(range(num_partitions)),
    )
    total = sum(row[-2] for row in map_counts)  # the records entering the route
    cost = total * cluster.cost_model.shuffle_unit * factor
    return out, total, cost, map_counts, reduce_counts


def _select_partitioner(
    cluster: Cluster,
    partitions: list[list[KeyedRecord]],
    num_partitions: int,
    kind: str,
) -> tuple[Partitioner, float]:
    """The routing strategy and cost factor for one exchange ``kind``."""
    if kind == "sort":
        sample = _sample_keys(partitions, _RANGE_SAMPLE_SIZE)
        return (
            make_partitioner("range", num_partitions, sample),
            cluster.cost_model.sort_shuffle_factor,
        )
    if kind == "hash":
        return (
            make_partitioner("hash", num_partitions),
            cluster.cost_model.hash_shuffle_factor,
        )
    if kind == "local":
        # Combiners were already merged map-side; fewer objects move, but
        # each is heavier than a raw record (key + aggregate state).
        return (
            make_partitioner("hash", num_partitions),
            cluster.cost_model.combiner_shuffle_factor,
        )
    raise ValueError(f"unknown shuffle kind: {kind!r}")


def _route_partition(
    part: list[KeyedRecord], partitioner: Partitioner, num_partitions: int
) -> list[list[KeyedRecord]]:
    """Map-side routing of one partition into dense per-target buckets."""
    buckets: list[list[KeyedRecord]] = [[] for _ in range(num_partitions)]
    for key, value in part:
        buckets[partitioner.partition(key)].append((key, value))
    return buckets


def _route_to_blobs(
    part: list[KeyedRecord], partitioner: Partitioner, num_partitions: int
) -> list[bytes | None]:
    """Map side of the resident exchange: route one partition, then pickle
    each target's bucket into one opaque blob (``None`` for empty buckets,
    so nothing ships for targets that receive no records)."""
    buckets = _route_partition(part, partitioner, num_partitions)
    return [pickle.dumps(bucket) if bucket else None for bucket in buckets]


def _merge_blob_buckets(blobs: list[bytes | None]) -> list[KeyedRecord]:
    """Reduce side of the resident exchange: unpickle and concatenate one
    target's blobs in input-partition order."""
    out: list[KeyedRecord] = []
    for blob in blobs:
        if blob is not None:
            out.extend(pickle.loads(blob))
    return out


def _sample_keys(partitions: list[list[KeyedRecord]], limit: int) -> list[Any]:
    """Deterministically sample up to ``limit`` keys (every k-th record)."""
    total = sum(len(p) for p in partitions)
    if total == 0:
        return []
    step = max(1, total // limit)
    sample: list[Any] = []
    index = 0
    for part in partitions:
        for key, _ in part:
            if index % step == 0:
                sample.append(key)
            index += 1
    return sample
