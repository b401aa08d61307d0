"""Multi-process parallel execution: the worker-pool physical backend.

The row-path executor (``repro.physical.lower``) interprets every plan on
the driver process; the vectorized backend (``repro.physical.vectorized``)
changes the *representation* but still runs single-process.  This module
keeps the row representation — per-row environment dictionaries, evaluated
by the same compiled expressions — and changes *where* the work runs **and
where the data lives**: each source table is pinned into the worker
processes' partition store once and referenced by :class:`~repro.engine.
worker.StoreRef` handle ever after; a partition's narrow operators (scan
binding, filters, map-side combines, head projection) run back to back in
*one* task — a pool *stage* — and every wide dependency goes through the
resident :func:`~repro.engine.shuffle.exchange_resident`, whose map-side
routing is the tail of the upstream stage and whose reduce-side merge
heads the downstream one (opaque blobs forwarded through the driver in
between).  The driver materializes row data exactly once — the final
stage returns its values.

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
import functools
import itertools
from collections import Counter
from typing import TYPE_CHECKING, Any, Callable, Iterator, NamedTuple, Sequence

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
from ..core.shippable import (
    is_module_level_callable,
    is_picklable,
    pin_is_warm,
    shippable,
)
from ..engine.dataset import Dataset
from ..engine.partitioner import round_robin_split
from ..engine.shuffle import exchange_resident
from ..engine.transport import ShipLog
from ..engine.worker import StoreRef
from ..errors import PlanningError, SchemaError, WorkerTaskError
from ..monoid.expressions import Expr, call_names, compiled

from .functions import freeze

# Safe at module load: lower's own module-level imports do not reach back
# here (it imports this module lazily inside Executor._parallel_executor),
# and sharing its helpers keeps Reduce and Nest semantics from drifting:
# the Nest's two steps are the row executor's own fold kernel.
from .lower import bind, nest_combine_task, nest_merge_task

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from .lower import Executor

#: Store-name prefix for one executor run's worker-resident intermediates
#: (unpinned tables, exchanged join sides, shared Nest outputs).  Each
#: executor appends a process-unique suffix (``_EXEC_SEQ``) and evicts its
#: whole name when its run finishes, so only pinned tables survive across
#: runs; evicting a *shared* temp name would discard another in-flight
#: query's intermediates mid-stage.
TEMP_STORE = "tmp:exec"

_EXEC_SEQ = itertools.count(1)


# ---------------------------------------------------------------------- #
# Worker-side step functions.
#
# Every step is a module-level function of (partition, *picklable arguments),
# so a chain of them ships to a worker under any multiprocessing start method
# (``run_chain``); the head step's partition arrives by StoreRef handle,
# resolved worker-side.  Each step mirrors the row path's per-partition logic
# exactly — same iteration order, same compiled expressions (compiled in the
# worker, from the Expr the step receives) — which is what makes the backend
# result-identical to ``execution="row"``.
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
    return [(tuple(freeze(k(env, functions)) for k in keys), env) for env in envs]


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


def _head_task(
    envs: list[dict], predicate: Expr | None, head: Expr, functions: dict
) -> list[Any]:
    """Reduce map side: optional filter plus head projection."""
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


def resident_input(
    cluster: Any,
    records: list[Any],
    pinned: tuple[str, int] | None = None,
    name: str = "input:par",
) -> tuple[list[StoreRef], bool]:
    """Handles to ``records`` as worker-resident round-robin partitions.

    ``pinned=(store_name, version)`` is a registered table's pin identity
    (``TableStore.pinned_key``), and this is the only place a registered
    table reaches the workers: the first pool read pins it, and later reads
    reuse its handles with nothing shipped or split (the warm path).  If
    the pin is absent — never read, evicted by a whole-table change or the
    store governor, lost to a pool restart, worker death or budget abort —
    or its record count no longer matches, the identity is evicted (with
    any derived state cached on it — a resized table must never probe a
    stale index) and the records pinned *under that identity*, so later
    calls warm up again.  Without ``pinned`` the
    records are pinned under a fresh ad-hoc version of ``name`` and the
    second element of the return value is True: the caller evicts the pin
    when the operation finishes.

    The pinned store has snapshot semantics, like executor-cached RDD
    partitions: an *in-place, same-length* edit to the registered row
    objects is invisible to this freshness check — route mutations through
    ``register_table`` / ``repair_dc`` / ``refresh_table``, which bump the
    version.
    """
    pool = cluster.pool
    if pin_is_warm(cluster, records, pinned):
        return pool.pinned(*pinned), False
    parts = round_robin_split(records, cluster.default_parallelism)
    if pinned is None:
        return _pin_checked(pool, name, pool.next_version(), parts), True
    pool.evict(*pinned)
    return _pin_checked(pool, *pinned, parts), False


def _pin_checked(pool: Any, name: str, version: int, parts: list) -> list[StoreRef]:
    """Pin partitions, surfacing serialization failures as degradable.

    Shippability is judged statically over a sampled prefix, so an exotic
    row outside the sample first fails *here*; re-raised as
    :class:`WorkerTaskError` it routes the caller onto the row-path
    fallback, as every parallel entry point does for that type (``pin``
    has already evicted its partial shipment).
    """
    try:
        return pool.pin(name, version, parts)
    except Exception as exc:
        raise WorkerTaskError(
            f"rows for {name!r} v{version} failed to serialize for the "
            f"worker store: {exc!r}; degrading to the row backend",
            exc_type=type(exc).__name__,
        ) from exc


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
        #: ``charge(name, per_part_work, shuffled=0, cost=0.0)``: see record_stage.
        self.charge = functools.partial(record_stage, cluster, log)

    def temp(self, label: str) -> tuple[str, int]:
        """A fresh store name for one stage's resident output, registered
        for eviction *before* the stage runs: if one task fails, its
        successful siblings' stored partitions must still be evicted
        (evicting a name that was never stored ships nothing)."""
        key = (label, self.pool.next_version())
        self.temps.append(key)
        return key


@contextlib.contextmanager
def resident_stages(
    cluster: Any,
    records: list[Any],
    pinned: tuple[str, int] | None,
    label: str,
    name: str,
    fmt: str,
) -> Iterator[ResidentStages]:
    """The shell of every parallel cleaning driver: get the input resident
    (:func:`resident_input`), charge its scan as ``scan:<name>:par``, run
    the caller's stages, and evict every temp and any ad-hoc pin on every
    exit path — a failing task or a budget abort must not leave table-sized
    state resident in the workers."""
    log = ShipLog(cluster.pool)
    refs, owned = resident_input(cluster, records, pinned, name=f"{label}:input")
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

class Charge(NamedTuple):
    """A ledger entry a queued step owes once its stage has run: ``unit``
    per record counted at chain positions ``at`` (0 = the stage's input,
    *i* = after step *i*; the merged output of an exchange after step
    ``split`` is position ``split + 1``).  ``shuffled=None`` stands for the
    queued exchange's own records moved and cost."""

    name: str
    at: tuple[int, ...]
    unit: float
    shuffled: int | None = 0
    cost: float = 0.0


class EnvPartitions(NamedTuple):
    """A collection-valued intermediate that has *not run yet*: the
    per-partition inputs (handles to worker-resident partitions), the
    narrow steps queued on them — with at most one exchange among them,
    after step ``split`` — and the ledger entries those steps owe.
    Operators extend it; the executor runs it (:meth:`ParallelExecutor.
    _flush`) only where it must."""

    inputs: list[Any]
    steps: tuple = ()
    charges: tuple[Charge, ...] = ()
    kind: str | None = None
    split: int = 0

    def then(
        self, func: Callable, args: tuple, name: str | None = None, unit: float = 0.0
    ) -> "EnvPartitions":
        """This intermediate with one more narrow step queued; ``name``
        charges the step ``unit`` per input record."""
        charges = self.charges
        if name is not None:
            here = len(self.steps) + (self.kind is not None)
            charges = (*charges, Charge(name, (here,), unit))
        return self._replace(steps=(*self.steps, (func, args)), charges=charges)


class ParallelExecutor:
    """Interprets supported algebra plans over the cluster's worker pool.

    Created by (and sharing catalog/config/functions with) a row-path
    :class:`~repro.physical.lower.Executor`.  Partition layout mirrors the
    row path's round-robin ``parallelize`` so per-partition task logic can
    reproduce row-path results exactly.  Source tables named in the
    executor's ``pinned_tables`` map reuse the facade's worker-resident
    pins (warm); other tables are pinned for the duration of one ``run()``
    and evicted with the rest of the temporaries afterwards.

    Operators only *queue* their per-partition work (:class:`EnvPartitions`);
    a queue runs as one pool stage — one task per partition for the whole
    narrow chain — and only at an exchange (whose map-side routing is the
    stage's tail and whose reduce-side merge heads the next one), at a Nest
    more than one consumer reads, and when the result is collected, so a
    final stage returns its value instead of storing it for a fetch.
    """

    def __init__(self, executor: "Executor"):
        self.cluster = executor.cluster
        self.catalog = executor.catalog
        self.config = executor.config
        self.functions = executor.functions
        self.pinned_tables: dict[str, tuple[str, int]] = dict(executor.pinned_tables)
        # Only picklable functions can cross the process boundary; plans
        # calling anything else are left to the row path by supports().
        # Module-level defs are judged statically (pickled by reference);
        # only closures/lambdas pay an actual round-trip probe.
        self._shippable = {
            name: func
            for name, func in self.functions.items()
            if is_module_level_callable(func) or is_picklable(func)
        }
        self._scan_refs: dict[str, list[StoreRef]] = {}
        self._scanned: set[tuple[str, str]] = set()
        self._shared: set[str] = set()  # Nest signatures read more than once
        self._nests: dict[str, EnvPartitions] = {}
        self._log: ShipLog | None = None
        self._temp_store = f"{TEMP_STORE}:{next(_EXEC_SEQ)}"
        self._unit = self.cluster.cost_model.record_unit  # per record touched
        self._source_ok: dict[str, bool] = {}

    # -- support check ------------------------------------------------- #
    def supports(self, op: AlgebraOp) -> bool:
        """Whether this whole subtree should run on the worker pool.  A
        bare Scan should not: there is nothing to compute, and binding in
        the workers only to fetch the table back ships rows the driver
        already holds — the row scan answers it."""
        ok = True
        if isinstance(op, Select):
            exprs = [op.predicate]
        elif isinstance(op, Join):
            exprs = [*op.left_keys, *op.right_keys, op.predicate]
            ok = bool(op.left_keys) and not op.outer
        elif isinstance(op, Nest):
            exprs = [op.key, op.group_predicate, *(h for _, _, h in op.aggregates)]
            ok = (
                not getattr(op, "multi", False)
                and self.config.grouping == "aggregate"
                and all(is_picklable(monoid) for _, monoid, _ in op.aggregates)
            )
        elif isinstance(op, Reduce):
            exprs = [op.predicate, op.head]
            ok = is_picklable(op.monoid)
        elif isinstance(op, SharedScanDAG):
            exprs = []
        else:
            return False
        return (
            ok
            and all(map(self._expr_ok, exprs))
            and all(map(self._input_ok, op.children()))
        )

    def _input_ok(self, op: AlgebraOp) -> bool:
        """An operator's input: a shippable source table, or a subtree."""
        if isinstance(op, Scan):
            return self._source_supported(op.table)
        return self.supports(op)

    def _expr_ok(self, expr: Expr) -> bool:
        """Shippable: the tree pickles and every called function does too."""
        return is_picklable(expr) and all(
            name in self._shippable for name in call_names(expr)
        )

    def _funcs_for(self, *exprs: Expr | None) -> dict[str, Callable]:
        """Only the functions these expressions actually call — tasks ship
        this instead of the whole registry (usually it is empty)."""
        names: set[str] = set()
        for expr in exprs:
            if expr is not None:
                names |= call_names(expr)
        return {name: self._shippable[name] for name in names}

    def _source_supported(self, table: str) -> bool:
        if table not in self._source_ok:
            source = self.catalog.get(table)
            self._source_ok[table] = isinstance(source, list) and shippable(
                self.cluster, source, self.pinned_tables.get(table)
            )
        return self._source_ok[table]

    # -- execution ----------------------------------------------------- #
    def run(self, op: AlgebraOp) -> Any:
        """Execute a supported plan; returns the same shapes as the row path
        (a Dataset of environments, a folded scalar, or a branch dict).
        Worker-resident intermediates are evicted on the way out — only
        pinned tables stay resident between runs."""
        self._log = ShipLog(self.cluster.pool)
        uses = Counter(_nest_signatures(op))
        self._shared = {signature for signature, n in uses.items() if n > 1}
        try:
            if isinstance(op, SharedScanDAG):
                names = op.branch_names or tuple(
                    f"branch{i}" for i in range(len(op.branches))
                )
                return {
                    name: self._collected(self._execute(branch))
                    for name, branch in zip(names, op.branches)
                }
            return self._collected(self._execute(op))
        finally:
            if self.cluster.has_pool:
                self.cluster.pool.evict(self._temp_store)
            for cache in (self._scan_refs, self._scanned, self._nests):
                cache.clear()

    def _temp(self) -> tuple[str, int]:
        """A fresh run-scoped store name for one stage's output."""
        return (self._temp_store, self.cluster.pool.next_version())

    def _execute(self, op: AlgebraOp) -> Any:
        if isinstance(op, Scan):
            return self._scan(op)
        if isinstance(op, Select):
            return self._execute(op.child).then(
                _filter_task,
                (op.predicate, self._funcs_for(op.predicate)),
                "select:par",
                self._unit,
            )
        if isinstance(op, Join):
            return self._join(op)
        if isinstance(op, Nest):
            signature = op.describe()
            if signature not in self._nests:
                result = self._nest(op)
                if signature in self._shared:  # run once, every reader chains on
                    result = EnvPartitions(self._flush(result, self._temp())[0])
                self._nests[signature] = result
            return self._nests[signature]
        if isinstance(op, Reduce):
            return self._reduce(op)
        raise PlanningError(f"no parallel translation for {type(op).__name__}")

    # -- operators ------------------------------------------------------ #
    def _scan(self, op: Scan) -> EnvPartitions:
        refs = self._scan_refs.get(op.table)
        if refs is None:
            try:
                source = self.catalog[op.table]
            except KeyError:
                raise SchemaError(f"unknown table {op.table!r}") from None
            # The facade's pin under the cleaning fast paths' freshness
            # contract (queries and fast paths must agree on what
            # "resident" means for a table); an unpinned table is pinned in
            # the row path's partition layout for the duration of this run.
            refs, _ = resident_input(
                self.cluster, source, self.pinned_tables.get(op.table),
                name=self._temp_store,
            )
            self._scan_refs[op.table] = refs
        charges: tuple[Charge, ...] = ()
        if (op.table, op.var) not in self._scanned:  # one scan per binding
            self._scanned.add((op.table, op.var))
            cost = self.cluster.cost_model
            unit = cost.record_unit + cost.scan_unit(op.fmt)
            charges = (Charge(f"scan:{op.table}:par", (0,), unit),)
        return EnvPartitions(refs, ((_bind_task, (op.var,)),), charges)

    def _exchange(
        self, pending: EnvPartitions, kind: str, name: str | None = None
    ) -> EnvPartitions:
        """``pending`` with an exchange queued after its steps, charged as
        ``name`` per merged record.  A stage spans one shuffle: steps
        already queued behind an exchange run (and stay resident) first."""
        if pending.kind is not None:
            pending = EnvPartitions(self._flush(pending, self._temp())[0])
        split = len(pending.steps)
        charges = pending.charges
        if name is not None:
            charges = (*charges, Charge(name, (split + 1,), self._unit, None))
        return pending._replace(charges=charges, kind=kind, split=split)

    def _join(self, op: Join) -> EnvPartitions:
        sides, moved, cost = [], 0, 0.0
        for child, keys in ((op.left, op.left_keys), (op.right, op.right_keys)):
            keyed = self._execute(child).then(_keyed_task, (keys, self._funcs_for(*keys)))
            parts, side_moved, side_cost = self._flush(
                self._exchange(keyed, "hash"), self._temp()
            )
            sides.append(parts)
            moved += side_moved
            cost += side_cost
        residual = op.predicate if op.predicate != TRUE else None
        return EnvPartitions(
            list(zip(*sides)),
            ((_join_probe_task, (residual, self._funcs_for(residual))),),
            (Charge("join:par", (0, 1), self._unit, moved, cost),),
        )

    def _nest(self, op: Nest) -> EnvPartitions:
        heads = [head for _, _, head in op.aggregates]
        combined = self._execute(op.child).then(
            nest_combine_task,
            (op.key, op.aggregates, self._funcs_for(op.key, *heads)),
            "nest:parCombine",
            self._unit,
        )
        group_pred = op.group_predicate if op.group_predicate != TRUE else None
        return self._exchange(combined, "local", "nest:parMerge").then(
            nest_merge_task,
            (op.aggregates, op.var, group_pred, self._funcs_for(group_pred)),
        )

    def _reduce(self, op: Reduce) -> Any:
        pred = op.predicate if op.predicate != TRUE else None
        heads = self._execute(op.child).then(
            _head_task,
            (pred, op.head, self._funcs_for(pred, op.head)),
            "reduce:parHead",
            self._unit,
        )
        if op.monoid.collection:
            if not op.monoid.idempotent:
                return self._collected(heads, op="reduce:parHead")
            distinct = self._exchange(
                heads.then(_distinct_local_task, ()), "local", "reduce:parDistinct"
            ).then(_distinct_merge_task, ())
            # Final stage: the merged distinct values come straight back.
            return Dataset(self.cluster, self._flush(distinct)[0], op="reduce:parDistinct")
        folded = heads.then(_fold_task, (op.monoid,), "reduce:parFold", self._unit)
        result = op.monoid.zero()
        for partial in self._flush(folded)[0]:
            result = op.monoid.merge(result, partial)
        return result

    # -- running what is queued ---------------------------------------- #
    def _flush(
        self, pending: EnvPartitions, store_as: tuple[str, int] | None = None
    ) -> tuple[list[Any], int, float]:
        """Run what ``pending`` has queued — one dispatch, two around an
        exchange — and record the ledger entries it owes, in queue order,
        from the per-step counts the tasks return.  The output stays
        worker-resident under ``store_as`` (handles come back); without it
        the values do.  Returns ``(out, records_moved, shuffle_cost)``."""
        pool = self.cluster.pool
        kind, split = pending.kind, pending.split
        moved, cost = 0, 0.0
        reduced: list[tuple[int, ...]] = []
        if kind is not None:
            out, moved, cost, mapped, reduced = exchange_resident(
                self.cluster, pool, pending.inputs, self.cluster.default_parallelism,
                kind, store_as, pending.steps[:split], pending.steps[split:],
            )
        elif pending.steps:
            out, mapped = pool.run_stage(pending.steps, pending.inputs, store_as)
        else:  # nothing queued: resident partitions the driver now wants
            out, mapped = pool.fetch(pending.inputs), []

        def column(position: int) -> list[int]:
            if kind is None or position <= split:
                return [row[position] for row in mapped]
            return [row[position - split] for row in reduced]

        # The stage's measured transport rides on its exchange's entry, or
        # on its first one.
        carrier = next((c for c in pending.charges if c.shuffled is None), None)
        for charge in pending.charges:
            name, at, unit, shuffled, charge_cost = charge
            if shuffled is None:
                shuffled, charge_cost = moved, cost
            work = [sum(counts) * unit for counts in zip(*map(column, at))]
            log = self._log if charge is (carrier or pending.charges[0]) else None
            record_stage(self.cluster, log, name, work, shuffled, charge_cost)
        return out, moved, cost

    def _collected(self, result: Any, op: str = "parallel") -> Any:
        """A queued intermediate run as a final stage, its values in a
        driver-side Dataset.  The one place rows cross back to the driver,
        marked by ``collect:par`` (no simulated work — every operator
        already paid for its rows).  Anything else is already a value."""
        if not isinstance(result, EnvPartitions):
            return result
        parts, _, _ = self._flush(result)
        record_stage(self.cluster, self._log, "collect:par", [0.0] * len(parts))
        return Dataset(self.cluster, parts, op=op)


def _nest_signatures(op: AlgebraOp) -> Iterator[str]:
    """The signature of every Nest in a plan, once per occurrence."""
    if isinstance(op, Nest):
        yield op.describe()
    for child in op.children():
        yield from _nest_signatures(child)
