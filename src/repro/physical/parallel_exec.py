"""Multi-process parallel execution: the worker-pool physical backend.

The row-path executor (``repro.physical.lower``) interprets every plan on
the driver process; the vectorized backend (``repro.physical.vectorized``)
changes the *representation* but still runs single-process.  This module
keeps the row representation — per-row environment dictionaries, evaluated
by the same compiled expressions — and changes *where* the work runs **and
where the data lives**: each source table is pinned into the worker
processes' partition store once, every narrow stage (scan binding, filters,
head projection, map-side combines) dispatches :class:`~repro.engine.
parallel.StoreRef` handles instead of row payloads, stage outputs stay
worker-resident, and every wide dependency goes through the resident
:func:`~repro.engine.shuffle.exchange_resident` (map-side routing in
workers, opaque-blob forwarding through the driver, reduce-side merge in
workers).  The driver materializes row data exactly once — when the final
result is collected.

Because workers execute the row path's own per-partition logic in the row
path's own partition layout, results are identical to ``execution="row"`` —
the three-way parity suite (``tests/integration/test_backend_parity.py``)
enforces it.  Simulated cost is charged at row-path rates (the work is the
same work); what changes is the *measured* side: every stage records the
real wall-clock seconds, bytes shipped, and payload count of its pool
dispatch (``OpMetrics.wall_seconds`` / ``bytes_shipped`` / ``ship_count``).

Plan support is partial and checked per subtree, exactly like the
vectorized seam: a subtree is claimed only when every expression, function,
monoid, and source record it needs is **picklable** (tasks must cross a
process boundary).  Theta joins, outer joins, unnests, multi-key groupings,
non-``aggregate`` grouping strategies, and plans calling per-query closures
fall back to the row path above their supported subplans.
"""

from __future__ import annotations

import contextlib
import itertools
from typing import TYPE_CHECKING, Any, Callable, Iterator, Sequence

from ..algebra.operators import (
    TRUE,
    AlgebraOp,
    Join,
    Nest,
    Reduce,
    Scan,
    Select,
    SharedScanDAG,
)
from ..engine.dataset import Dataset
from ..engine.parallel import (
    ShipLog,
    StoreRef,
    WorkerTaskError,
    is_module_level_callable,
    is_picklable,
    rows_statically_shippable,
)
from ..engine.shuffle import exchange_resident
from ..errors import PlanningError, SchemaError
from ..monoid.expressions import Call, Expr, compiled
from ..sources.columnar import round_robin_split

# Safe at module load: lower's own module-level imports do not reach back
# here (it imports this module lazily inside Executor._parallel_executor),
# and sharing its helpers keeps Reduce/key semantics from drifting.
from .lower import _freeze, _is_collection

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from .lower import Executor

#: Store-name prefix for one executor run's worker-resident intermediates
#: (bound scans, filtered/keyed/exchanged/merged partitions).  Each
#: executor appends a process-unique suffix (see ``_EXEC_SEQ``) and each
#: stage gets its own version; the executor's whole name is evicted when
#: its run finishes so only pinned tables survive across runs.  The suffix
#: matters under concurrency: evicting a *shared* temp name would discard
#: another in-flight query's intermediates mid-stage.
TEMP_STORE = "tmp:exec"

_EXEC_SEQ = itertools.count(1)


# ---------------------------------------------------------------------- #
# Worker-side task functions.
#
# Every task is a module-level function taking only picklable arguments, so
# it can ship to a worker under any multiprocessing start method; partition
# data arrives by StoreRef handle, resolved worker-side.  Each task mirrors
# the corresponding row-path per-partition logic exactly — same iteration
# order, same compiled expressions (compiled here, in the worker, from the
# Expr the task receives) — which is what makes the backend result-identical
# to ``execution="row"``.
# ---------------------------------------------------------------------- #

def _bind_task(records: list[Any], var: str) -> list[dict]:
    """Scan: bind each source record to the scan variable."""
    return [{var: record} for record in records]


def _filter_task(envs: list[dict], predicate: Expr, functions: dict) -> list[dict]:
    pred = compiled(predicate)
    return [env for env in envs if pred(env, functions)]


def _keyed_task(
    envs: list[dict], key_exprs: tuple[Expr, ...], functions: dict
) -> list[tuple[Any, dict]]:
    """Join map side: pair each environment with its frozen key tuple."""
    keys = [compiled(k) for k in key_exprs]
    return [
        (
            tuple(_freeze(k(env, functions)) for k in keys),
            env,
        )
        for env in envs
    ]


def _join_probe_task(
    left_keyed: list[tuple[Any, dict]],
    right_keyed: list[tuple[Any, dict]],
    predicate: Expr | None,
    functions: dict,
) -> list[dict]:
    """Join reduce side: build a hash table per partition and probe it."""
    pred = None if predicate is None else compiled(predicate)
    table: dict[Any, list[dict]] = {}
    for key, env in right_keyed:
        table.setdefault(key, []).append(env)
    out: list[dict] = []
    for key, left_env in left_keyed:
        for right_env in table.get(key, ()):
            merged = {**left_env, **right_env}
            if pred is None or pred(merged, functions):
                out.append(merged)
    return out


def _nest_combine_task(
    envs: list[dict],
    key_expr: Expr,
    aggregates: tuple,
    functions: dict,
) -> list[tuple[Any, dict[str, Any]]]:
    """Nest map side: fold one combiner state per key over a partition."""
    key_of = compiled(key_expr)
    heads = [(name, monoid, compiled(head)) for name, monoid, head in aggregates]
    combiners: dict[Any, dict[str, Any]] = {}
    for env in envs:
        key = _freeze(key_of(env, functions))
        unit = {
            name: monoid.unit(head_of(env, functions))
            for name, monoid, head_of in heads
        }
        state = combiners.get(key)
        if state is None:
            combiners[key] = unit
        else:
            combiners[key] = {
                name: monoid.merge(state[name], unit[name])
                for name, monoid, _ in aggregates
            }
    return list(combiners.items())


def _nest_merge_task(
    part: list[tuple[Any, dict[str, Any]]],
    aggregates: tuple,
    var: str,
    group_predicate: Expr | None,
    functions: dict,
) -> list[dict]:
    """Nest reduce side: merge shuffled combiners, emit group records."""
    merged: dict[Any, dict[str, Any]] = {}
    for key, state in part:
        existing = merged.get(key)
        if existing is None:
            merged[key] = state
        else:
            merged[key] = {
                name: monoid.merge(existing[name], state[name])
                for name, monoid, _ in aggregates
            }
    pred = None if group_predicate is None else compiled(group_predicate)
    out: list[dict] = []
    for key, state in merged.items():
        env = {var: {"key": key, **state}}
        if pred is None or pred(env, functions):
            out.append(env)
    return out


def _head_task(
    envs: list[dict], predicate: Expr | None, head: Expr, functions: dict
) -> list[Any]:
    """Reduce map side: optional filter plus head projection, one dispatch."""
    if predicate is not None:
        pred = compiled(predicate)
        envs = [env for env in envs if pred(env, functions)]
    head_of = compiled(head)
    return [head_of(env, functions) for env in envs]


def _fold_task(values: list[Any], monoid: Any) -> Any:
    """Reduce: fold one partition's head values into a partial state."""
    return monoid.fold(values)


def _distinct_local_task(values: list[Any]) -> list[tuple[Any, None]]:
    """Distinct map side: per-partition dedupe, keyed for the exchange."""
    seen: dict[Any, None] = {}
    for value in values:
        seen.setdefault(value, None)
    return [(value, None) for value in seen]


def _distinct_merge_task(part: list[tuple[Any, None]]) -> list[Any]:
    """Distinct reduce side: first-seen order per target partition."""
    seen: dict[Any, None] = {}
    for value, _ in part:
        seen.setdefault(value, None)
    return list(seen)


def _append_patch_task(existing: list, delta_rows: list) -> list:
    """Worker task: extend one resident partition with appended rows.

    Returns a fresh list (stored under the table's *new* version) so the
    old version's partition object is never mutated — a stale handle must
    keep failing, not silently see the delta.
    """
    return list(existing) + list(delta_rows)


def _update_patch_task(existing: list, updates: list) -> list:
    """Worker task: apply ``(position, row)`` replacements to a copy of one
    resident partition, stored under the table's new version."""
    out = list(existing)
    for pos, row in updates:
        out[pos] = row
    return out


def _rekey_task(existing: list) -> list:
    """Worker task: re-store an untouched partition under the new version.

    The rows never move — the worker aliases the same resident list object
    under the new key, so an untouched partition costs one handle-sized
    command, not a row shipment.
    """
    return existing


def pin_is_warm(
    cluster: Any, records: list[Any], pinned: tuple[str, int] | None
) -> bool:
    """Whether ``pinned`` resolves to resident handles covering ``records``.

    A warm pin also proves the rows are picklable (they crossed the
    process boundary when pinned), letting callers skip the O(table)
    driver-side shippability probe on every warm call.
    """
    if pinned is None:
        return False
    refs = cluster.pool.pinned(*pinned)
    return refs is not None and sum(max(r.count, 0) for r in refs) == len(records)


def resident_input(
    cluster: Any,
    records: list[Any],
    pinned: tuple[str, int] | None = None,
    name: str = "input:par",
    parts: list[list[Any]] | None = None,
) -> tuple[list[StoreRef], bool]:
    """Handles to ``records`` as worker-resident round-robin partitions.

    The one entry point the cleaning fast paths use to get their input into
    the partition store.  When ``pinned=(store_name, version)`` names a
    table the facade already pinned, its handles are reused and nothing
    ships (the warm path); if that pin is gone — pool restart, worker
    death, budget abort — or its record count no longer matches, the
    records are re-pinned *under the same identity* so later calls warm up
    again, after evicting the old pins (which also drops any derived state
    cached on that identity — a resized table must never probe a stale
    index).  Without ``pinned`` the records are pinned under a fresh
    ad-hoc version; the second element of the return value is True in that
    case, telling the caller to evict the pin when the operation finishes.
    ``parts`` lets a caller that already round-robin-split the records
    (e.g. for a driver-side materialization mirror) avoid a second split.

    The pinned store has snapshot semantics, like executor-cached RDD
    partitions: an *in-place, same-length* edit to the registered row
    objects is invisible to this freshness check — route mutations through
    ``register_table`` / ``repair_dc`` / ``refresh_table``, which bump the
    version.
    """
    pool = cluster.pool
    n = cluster.default_parallelism
    if pinned is not None:
        if pin_is_warm(cluster, records, pinned):
            return pool.pinned(*pinned), False
        pool.evict(*pinned)
        if parts is None:
            parts = round_robin_split(records, n)
        return _pin_checked(pool, pinned[0], pinned[1], parts), False
    if parts is None:
        parts = round_robin_split(records, n)
    return _pin_checked(pool, name, pool.next_version(), parts), True


def _pin_checked(pool: Any, name: str, version: int, parts: list) -> list[StoreRef]:
    """Pin partitions, surfacing serialization failures as degradable.

    Shippability is now judged statically over a sampled prefix, so an
    exotic row outside the sample can first fail *here*; re-raising it as
    :class:`WorkerTaskError` routes the caller onto the row-path fallback
    (every parallel entry point already degrades on that type) instead of
    leaking a raw pickling error mid-dispatch.  ``pin`` has already
    evicted its partial shipment when this fires.
    """
    try:
        return pool.pin(name, version, parts)
    except Exception as exc:
        raise WorkerTaskError(
            f"rows for {name!r} v{version} failed to serialize for the "
            f"worker store: {exc!r}; degrading to the row backend",
            exc_type=type(exc).__name__,
        ) from exc


def shippable(
    cluster: Any,
    records: list[Any],
    pinned: tuple[str, int] | None,
    spec: Any = None,
) -> bool:
    """Whether a call can cross the process boundary: its argument ``spec``
    pickles, and its rows do — a warm pin proves that outright (the rows
    already crossed), a cold table is judged by the *static* type-walk over
    a sampled prefix instead of an O(table) serialize-everything probe (an
    exotic row the sample missed still cannot crash dispatch: the pin
    itself fails with :class:`WorkerTaskError` and the caller degrades)."""
    return is_picklable(spec) and (
        pin_is_warm(cluster, records, pinned) or rows_statically_shippable(records)
    )


def record_stage(
    cluster: Any,
    log: ShipLog | None,
    name: str,
    per_part_work: Sequence[float],
    shuffled: int = 0,
    cost: float = 0.0,
) -> None:
    """Record one pool-dispatched stage: simulated work at row prices,
    spread over nodes by partition placement, plus the measured transport
    since the log's previous take."""
    cluster.record_op(
        name,
        cluster.spread_over_nodes(per_part_work),
        shuffled_records=shuffled,
        shuffle_cost=cost,
        **(log.take() if log is not None else {}),
    )


class ResidentStages:
    """One parallel cleaning call's worker-resident state: the input
    handles, the transport log its stages charge from, and the store names
    to evict when the call ends."""

    def __init__(self, cluster: Any, refs: list[StoreRef], log: ShipLog):
        self.cluster = cluster
        self.pool = cluster.pool
        self.refs = refs
        self.log = log
        self.temps: list[tuple[str, int]] = []

    def temp(self, label: str) -> tuple[str, int]:
        """A fresh store name for one stage's resident output, registered
        for eviction *before* the stage runs: if one task fails, its
        successful siblings' stored partitions must still be evicted
        (evicting a never-stored name is a no-op)."""
        key = (label, self.pool.next_version())
        self.temps.append(key)
        return key

    def charge(
        self,
        name: str,
        per_part_work: Sequence[float],
        shuffled: int = 0,
        cost: float = 0.0,
    ) -> None:
        """Record one stage (see :func:`record_stage`)."""
        record_stage(self.cluster, self.log, name, per_part_work, shuffled, cost)


@contextlib.contextmanager
def resident_stages(
    cluster: Any,
    records: list[Any],
    pinned: tuple[str, int] | None,
    label: str,
    name: str,
    fmt: str,
    parts: list[list[Any]] | None = None,
) -> Iterator[ResidentStages]:
    """The shell of every parallel cleaning driver: get the input resident
    (:func:`resident_input`), charge its scan as ``scan:<name>:par``, run
    the caller's stages, and evict every temp and any ad-hoc pin on every
    exit path — a failing task or a budget abort must not leave table-sized
    state resident in the workers."""
    log = ShipLog(cluster.pool)
    refs, owned = resident_input(
        cluster, records, pinned, name=f"{label}:input", parts=parts
    )
    stages = ResidentStages(cluster, refs, log)
    try:
        cost = cluster.cost_model
        unit = cost.record_unit + cost.scan_unit(fmt)
        stages.charge(f"scan:{name}:par", [max(r.count, 0) * unit for r in refs])
        yield stages
    finally:
        for temp in stages.temps:
            stages.pool.evict(*temp)
        if owned:
            stages.pool.evict(refs[0].name, refs[0].version)


# ---------------------------------------------------------------------- #
# The parallel executor
# ---------------------------------------------------------------------- #

class ParallelExecutor:
    """Interprets supported algebra plans over the cluster's worker pool.

    Created by (and sharing catalog/config/functions with) a row-path
    :class:`~repro.physical.lower.Executor`.  Partition layout mirrors the
    row path's round-robin ``parallelize`` so per-partition task logic can
    reproduce row-path results exactly.  Source tables named in the
    executor's ``pinned_tables`` map reuse the facade's worker-resident
    pins (warm); other tables are pinned for the duration of one ``run()``
    and evicted with the rest of the temporaries afterwards.
    """

    def __init__(self, executor: "Executor"):
        self.executor = executor
        self.cluster = executor.cluster
        self.catalog = executor.catalog
        self.config = executor.config
        self.functions = executor.functions
        self.pinned_tables: dict[str, tuple[str, int]] = dict(
            getattr(executor, "pinned_tables", None) or {}
        )
        # Only picklable functions can cross the process boundary; plans
        # calling anything else are left to the row path by supports().
        # Module-level defs are judged statically (pickled by reference);
        # only closures/lambdas pay an actual round-trip probe.
        self._shippable = {
            name: func
            for name, func in self.functions.items()
            if is_module_level_callable(func) or is_picklable(func)
        }
        self._scan_cache: dict[tuple[str, str], list[StoreRef]] = {}
        self._temp_store = f"{TEMP_STORE}:{next(_EXEC_SEQ)}"
        self._source_ok: dict[str, bool] = {}

    # -- support check ------------------------------------------------- #
    def supports(self, op: AlgebraOp) -> bool:
        """Whether this whole subtree can run on the worker pool."""
        if isinstance(op, Scan):
            return self._source_supported(op.table)
        if isinstance(op, Select):
            return self._expr_ok(op.predicate) and self.supports(op.child)
        if isinstance(op, Join):
            return (
                bool(op.left_keys)
                and not op.outer
                and all(self._expr_ok(k) for k in op.left_keys)
                and all(self._expr_ok(k) for k in op.right_keys)
                and self._expr_ok(op.predicate)
                and self.supports(op.left)
                and self.supports(op.right)
            )
        if isinstance(op, Nest):
            return (
                not getattr(op, "multi", False)
                and self.config.grouping == "aggregate"
                and self._expr_ok(op.key)
                and self._expr_ok(op.group_predicate)
                and all(
                    self._expr_ok(head) and is_picklable(monoid)
                    for _, monoid, head in op.aggregates
                )
                and self.supports(op.child)
            )
        if isinstance(op, Reduce):
            return (
                self._expr_ok(op.predicate)
                and self._expr_ok(op.head)
                and is_picklable(op.monoid)
                and self.supports(op.child)
            )
        if isinstance(op, SharedScanDAG):
            return self.supports(op.scan) and all(
                self.supports(branch) for branch in op.branches
            )
        return False

    def _expr_ok(self, expr: Expr) -> bool:
        """Shippable: the tree pickles and every called function does too."""
        return is_picklable(expr) and all(
            name in self._shippable for name in _call_names(expr)
        )

    def _funcs_for(self, *exprs: Expr | None) -> dict[str, Callable]:
        """Only the functions these expressions actually call — tasks ship
        this instead of the whole registry (usually it is empty)."""
        names: set[str] = set()
        for expr in exprs:
            if expr is not None:
                names |= _call_names(expr)
        return {name: self._shippable[name] for name in names}

    def _source_supported(self, table: str) -> bool:
        if table not in self._source_ok:
            source = self.catalog.get(table)
            ok = isinstance(source, list) and shippable(
                self.cluster, source, self.pinned_tables.get(table)
            )
            self._source_ok[table] = ok
        return self._source_ok[table]

    # -- execution ----------------------------------------------------- #
    def run(self, op: AlgebraOp) -> Any:
        """Execute a supported plan; returns the same shapes as the row path
        (a Dataset of environments, a folded scalar, or a branch dict).
        Worker-resident intermediates are evicted on the way out — only
        pinned tables stay resident between runs."""
        try:
            if isinstance(op, SharedScanDAG):
                return self._dag(op)
            result = self._execute(op, {})
            if isinstance(result, EnvPartitions):
                return self._materialize(result)
            return result
        finally:
            self._evict_temps()

    def _evict_temps(self) -> None:
        if self.cluster.has_pool:
            self.cluster.pool.evict(self._temp_store)
        self._scan_cache.clear()

    def _temp(self) -> tuple[str, int]:
        """A fresh run-scoped store name for one stage's output."""
        return (self._temp_store, self.cluster.pool.next_version())

    def _execute(self, op: AlgebraOp, nest_cache: dict[str, "EnvPartitions"]) -> Any:
        if isinstance(op, Scan):
            return EnvPartitions(self._scan(op))
        if isinstance(op, Select):
            return self._select(op, nest_cache)
        if isinstance(op, Join):
            return self._join(op, nest_cache)
        if isinstance(op, Nest):
            signature = op.describe()
            if signature not in nest_cache:
                nest_cache[signature] = self._nest(op, nest_cache)
            return nest_cache[signature]
        if isinstance(op, Reduce):
            return self._reduce(op, nest_cache)
        raise PlanningError(f"no parallel translation for {type(op).__name__}")

    # -- operators ------------------------------------------------------ #
    def _scan(self, op: Scan) -> list[StoreRef]:
        cache_key = (op.table, op.var)
        if cache_key in self._scan_cache:
            return self._scan_cache[cache_key]
        try:
            source = self.catalog[op.table]
        except KeyError:
            raise SchemaError(f"unknown table {op.table!r}") from None
        pool = self.cluster.pool
        log = ShipLog(pool)
        pinned = self.pinned_tables.get(op.table)
        if pinned is not None:
            # Same freshness contract as the cleaning fast paths (count
            # check, evict-then-re-pin on mismatch): queries and fast paths
            # must agree on what "resident" means for a table.
            raw, _ = resident_input(self.cluster, list(source), pinned=pinned)
        else:
            # The row path's partition layout (``Cluster.parallelize``
            # defaults), pinned for the duration of this run.
            parts = round_robin_split(list(source), self.cluster.default_parallelism)
            name, version = self._temp()
            raw = _pin_checked(pool, name, version, parts)
        bound = pool.run(
            _bind_task, [(ref, op.var) for ref in raw], store_as=self._temp()
        )
        unit = self.cluster.cost_model.record_unit + self.cluster.cost_model.scan_unit(op.fmt)
        self._charge(
            f"scan:{op.table}:par",
            [max(r.count, 0) * unit for r in raw],
            log=log,
        )
        self._scan_cache[cache_key] = bound
        return bound

    def _select(self, op: Select, nest_cache: dict) -> "EnvPartitions":
        child = self._child_refs(op.child, nest_cache)
        pool = self.cluster.pool
        log = ShipLog(pool)
        funcs = self._funcs_for(op.predicate)
        out = pool.run(
            _filter_task,
            [(ref, op.predicate, funcs) for ref in child],
            store_as=self._temp(),
        )
        unit = self.cluster.cost_model.record_unit
        self._charge("select:par", [max(r.count, 0) * unit for r in child], log=log)
        return EnvPartitions(out)

    def _join(self, op: Join, nest_cache: dict) -> "EnvPartitions":
        left = self._child_refs(op.left, nest_cache)
        right = self._child_refs(op.right, nest_cache)
        pool = self.cluster.pool
        n = self.cluster.default_parallelism
        residual = op.predicate if op.predicate != TRUE else None

        log = ShipLog(pool)
        keyed_l = pool.run(
            _keyed_task,
            [(ref, op.left_keys, self._funcs_for(*op.left_keys)) for ref in left],
            store_as=self._temp(),
        )
        keyed_r = pool.run(
            _keyed_task,
            [(ref, op.right_keys, self._funcs_for(*op.right_keys)) for ref in right],
            store_as=self._temp(),
        )
        l_parts, moved_l, cost_l = exchange_resident(
            self.cluster, pool, keyed_l, n, kind="hash", store_as=self._temp()
        )
        r_parts, moved_r, cost_r = exchange_resident(
            self.cluster, pool, keyed_r, n, kind="hash", store_as=self._temp()
        )
        merged = pool.run(
            _join_probe_task,
            [
                (lp, rp, residual, self._funcs_for(residual))
                for lp, rp in zip(l_parts, r_parts)
            ],
            store_as=self._temp(),
        )
        unit = self.cluster.cost_model.record_unit
        per_part = [
            (max(lp.count, 0) + max(rp.count, 0) + max(out.count, 0)) * unit
            for lp, rp, out in zip(l_parts, r_parts, merged)
        ]
        self._charge(
            "join:par",
            per_part,
            shuffled=moved_l + moved_r,
            cost=cost_l + cost_r,
            log=log,
        )
        return EnvPartitions(merged)

    def _nest(self, op: Nest, nest_cache: dict) -> "EnvPartitions":
        child = self._child_refs(op.child, nest_cache)
        pool = self.cluster.pool
        n = self.cluster.default_parallelism
        unit = self.cluster.cost_model.record_unit

        log = ShipLog(pool)
        combine_funcs = self._funcs_for(op.key, *(head for _, _, head in op.aggregates))
        combined = pool.run(
            _nest_combine_task,
            [(ref, op.key, op.aggregates, combine_funcs) for ref in child],
            store_as=self._temp(),
        )
        self._charge(
            "nest:parCombine", [max(r.count, 0) * unit for r in child], log=log
        )

        exchanged, moved, cost = exchange_resident(
            self.cluster, pool, combined, n, kind="local", store_as=self._temp()
        )
        group_pred = op.group_predicate if op.group_predicate != TRUE else None
        merged = pool.run(
            _nest_merge_task,
            [
                (ref, op.aggregates, op.var, group_pred, self._funcs_for(group_pred))
                for ref in exchanged
            ],
            store_as=self._temp(),
        )
        self._charge(
            "nest:parMerge",
            [max(r.count, 0) * unit for r in exchanged],
            shuffled=moved,
            cost=cost,
            log=log,
        )
        return EnvPartitions(merged)

    def _reduce(self, op: Reduce, nest_cache: dict) -> Any:
        child_result = self._execute(op.child, nest_cache)
        refs = child_result.refs
        pool = self.cluster.pool
        pred = op.predicate if op.predicate != TRUE else None
        head_funcs = self._funcs_for(pred, op.head)
        log = ShipLog(pool)
        heads = pool.run(
            _head_task,
            [(ref, pred, op.head, head_funcs) for ref in refs],
            store_as=self._temp(),
        )
        unit = self.cluster.cost_model.record_unit
        self._charge(
            "reduce:parHead", [max(r.count, 0) * unit for r in refs], log=log
        )
        if _is_collection(op.monoid):
            if op.monoid.idempotent:
                return self._distinct(heads)
            return self._materialize(EnvPartitions(heads), op="reduce:parHead")
        partials = pool.run(_fold_task, [(ref, op.monoid) for ref in heads])
        self._charge(
            "reduce:parFold", [max(r.count, 0) * unit for r in heads], log=log
        )
        result = op.monoid.zero()
        for partial in partials:
            result = op.monoid.merge(result, partial)
        return result

    def _distinct(self, head_refs: list[StoreRef]) -> Dataset:
        pool = self.cluster.pool
        n = self.cluster.default_parallelism
        unit = self.cluster.cost_model.record_unit
        log = ShipLog(pool)
        local = pool.run(
            _distinct_local_task, [(ref,) for ref in head_refs], store_as=self._temp()
        )
        exchanged, moved, cost = exchange_resident(
            self.cluster, pool, local, n, kind="local", store_as=self._temp()
        )
        # Final stage: the merged distinct values come straight back to the
        # driver — this is the result materialization.
        merged = pool.run(_distinct_merge_task, [(ref,) for ref in exchanged])
        self._charge(
            "reduce:parDistinct",
            [max(r.count, 0) * unit for r in exchanged],
            shuffled=moved,
            cost=cost,
            log=log,
        )
        return Dataset(self.cluster, merged, op="reduce:parDistinct")

    def _dag(self, op: SharedScanDAG) -> dict[str, Any]:
        self._scan(op.scan)  # pin + bind once; branch scans hit the cache
        names = op.branch_names or tuple(
            f"branch{i}" for i in range(len(op.branches))
        )
        nest_cache: dict[str, EnvPartitions] = {}
        results: dict[str, Any] = {}
        for name, branch in zip(names, op.branches):
            result = self._execute(branch, nest_cache)
            if isinstance(result, EnvPartitions):
                result = self._materialize(result)
            results[name] = result
        return results

    # -- helpers -------------------------------------------------------- #
    def _materialize(self, result: "EnvPartitions", op: str = "parallel") -> Dataset:
        """Fetch worker-resident partitions into a driver-side Dataset.

        The one place rows cross back to the driver; its transport volume
        is recorded as ``collect:par`` (no simulated work — every operator
        already paid for its rows)."""
        pool = self.cluster.pool
        log = ShipLog(pool)
        parts = pool.fetch(result.refs)
        self._charge("collect:par", [0.0] * len(parts), log=log)
        return Dataset(self.cluster, parts, op=op)

    def _child_refs(self, op: AlgebraOp, nest_cache: dict) -> list[StoreRef]:
        result = self._execute(op, nest_cache)
        if not isinstance(result, EnvPartitions):
            raise PlanningError(
                f"parallel operator expected partitions, got {type(result).__name__}"
            )
        return result.refs

    def _charge(
        self,
        name: str,
        per_part_work: Sequence[float],
        shuffled: int = 0,
        cost: float = 0.0,
        log: ShipLog | None = None,
    ) -> None:
        record_stage(self.cluster, log, name, per_part_work, shuffled, cost)


class EnvPartitions:
    """A collection-valued intermediate: handles to worker-resident
    row-environment partitions (``ref.count`` carries each partition's
    length for cost accounting)."""

    __slots__ = ("refs",)

    def __init__(self, refs: list[StoreRef]):
        self.refs = refs


def _call_names(expr: Expr) -> set[str]:
    """Every function name a :class:`Call` in this tree references."""
    names: set[str] = set()
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Call):
            names.add(node.name)
        stack.extend(node.children())
    return names
