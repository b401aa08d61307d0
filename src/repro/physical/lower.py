"""Physical lowering: executing algebra plans on the engine (§6, Table 2).

=================  ===================================================
Algebra operator   Engine translation
=================  ===================================================
σ_p                ``filter``
Δ^e_p              ``map`` → ``filter`` (fold on the driver for
                   primitive monoids)
μ/μ̄ (unnest)      ``flatMap`` over the path field; DEDUP's σ over two
                   μ of one group path: one loop per group
Γ (nest)           ``aggregateByKey`` as one fold: the Nest kernel per
                   partition, combiners merged per hash bucket, the
                   ledger charged from counts (CleanDB) or
                   ``groupByKey`` with sort/hash shuffle  (baselines)
⋈ equi             ``join`` / ``leftOuterJoin``
⋈ theta            matrix theta join (CleanDB) or cartesian → filter
=================  ===================================================

Records flowing between operators are *environments*: dictionaries mapping
the plan's bound variable names to values.  A Scan binds its variable to
each source record; Join merges environments; Nest produces a group record
``{key, partition, ...aggregates}`` bound to the Nest's variable.
"""

from __future__ import annotations

from functools import reduce
from itertools import chain
from types import FunctionType
from typing import Any, Callable, Sequence

from .._records import Record
from ..algebra.operators import (
    TRUE,
    AlgebraOp,
    Join,
    Nest,
    Reduce,
    Scan,
    Select,
    SharedScanDAG,
    Unnest,
)
from ..engine.cluster import Cluster
from ..engine.dataset import Dataset
from ..engine.shuffle import merge_combiners, route_combiners
from ..errors import PlanningError, SchemaError, StaleHandleError, WorkerTaskError
from ..monoid.expressions import BinOp, Call, Expr, Var, compiled
from ..monoid.monoids import nest_accumulator
from .functions import DEFAULT_FUNCTIONS, freeze


class PhysicalConfig(Record):
    """The physical-level knobs the §8 experiments turn.

    ``grouping``: ``"aggregate"`` (CleanDB local pre-aggregation), ``"sort"``
    (Spark SQL), or ``"hash"`` (BigDansing).
    ``theta``: ``"matrix"`` (CleanDB) or ``"cartesian"`` (Spark SQL).
    ``execution``: ``"row"`` (per-row environment dictionaries),
    ``"vectorized"`` (column batches; see ``repro.physical.vectorized``), or
    ``"parallel"`` (real multi-process execution over the cluster's worker
    pool; see ``repro.physical.parallel_exec``).  The non-row backends claim
    every supported subtree and fall back to the row path above unsupported
    operators, so results are identical either way.
    """

    grouping: str = "aggregate"
    theta: str = "matrix"
    execution: str = "row"


# The backends `PhysicalConfig.execution` may name; CleanDB and the baseline
# systems validate against this tuple.
EXECUTION_BACKENDS = ("row", "vectorized", "parallel")


class Executor:
    """Interprets an algebra plan over a cluster and a catalog.

    ``catalog`` maps table names to record lists (or Datasets); formats are
    taken from each Scan node so the per-format scan cost applies.  Only the
    plan is interpreted: each operator compiles its predicate, key and head
    expressions once (``monoid.expressions.compiled``) and runs the compiled
    functions per record.
    """

    def __init__(
        self,
        cluster: Cluster,
        catalog: dict[str, Any],
        config: PhysicalConfig | None = None,
        functions: dict[str, Callable] | None = None,
        pinned_tables: dict[str, tuple[str, int]] | None = None,
    ):
        self.cluster = cluster
        self.catalog = catalog
        self.config = config or PhysicalConfig()
        self.functions = dict(DEFAULT_FUNCTIONS)
        if functions:
            self.functions.update(functions)
        # Tables already resident in the worker pool's partition store,
        # mapped to their (store name, version) — the parallel backend
        # references these by handle instead of pinning its own copy.
        self.pinned_tables = dict(pinned_tables or {})
        self._scan_cache: dict[tuple[str, str], Dataset] = {}
        self._vectorized = None
        self._parallel = None

    # ------------------------------------------------------------------ #
    def execute(self, op: AlgebraOp) -> Any:
        """Run a plan.  Collection results are Datasets; a Reduce with a
        primitive monoid returns its folded scalar; a SharedScanDAG returns
        ``{branch_name: result}``.

        With ``config.execution == "vectorized"``, any subtree the columnar
        backend supports runs batch-at-a-time; with ``"parallel"``, any
        subtree whose tasks are picklable runs on the cluster's worker-pool
        processes.  Unsupported roots fall back to the row path here (their
        supported children still run on the chosen backend, since the row
        operators recurse through this method).
        """
        if self.config.execution == "vectorized":
            vectorized = self._vectorized_executor()
            if vectorized.supports(op):
                return vectorized.run(op)
        elif self.config.execution == "parallel":
            parallel = self._parallel_executor()
            if parallel.supports(op):
                try:
                    return parallel.run(op)
                except (WorkerTaskError, StaleHandleError):
                    # Self-healing already retried inside the pool; landing
                    # here means the budget is spent or a handle is gone
                    # for good.  The row path answers from driver-held rows
                    # — always correct, just not resident.
                    self.cluster.record_op(
                        f"degraded:exec:{type(op).__name__.lower()}",
                        [0.0] * self.cluster.num_nodes,
                    )
        return self._execute_row(op)

    def _vectorized_executor(self):
        if self._vectorized is None:
            from .vectorized import VectorizedExecutor

            self._vectorized = VectorizedExecutor(self)
        return self._vectorized

    def _parallel_executor(self):
        if self._parallel is None:
            from .parallel_exec import ParallelExecutor

            self._parallel = ParallelExecutor(self)
        return self._parallel

    def _execute_row(self, op: AlgebraOp) -> Any:
        if isinstance(op, Scan):
            return self._scan(op)
        if isinstance(op, Select):
            return self._select(op)
        if isinstance(op, Join):
            return self._join(op)
        if isinstance(op, Unnest):
            return self._unnest(op)
        if isinstance(op, Nest):
            return self._nest(op)
        if isinstance(op, Reduce):
            return self._reduce(op)
        if isinstance(op, SharedScanDAG):
            return self._dag(op)
        raise PlanningError(f"no physical translation for {type(op).__name__}")

    # ------------------------------------------------------------------ #
    def _fn(self, expr: Expr) -> Callable[[dict], Any]:
        """``expr`` compiled to a function of the environment."""
        return bind(expr, self.functions)

    def _predicate(self, expr: Expr) -> Callable[[dict], Any]:
        if expr == TRUE:
            return lambda env: True
        return self._fn(expr)

    def _input(self, op: AlgebraOp, nest_cache: dict[str, Dataset] | None) -> Any:
        """A row operator's input.

        ``nest_cache`` is set on a row-interpreted DAG branch: the branch
        stays on the row path down to its Nest, which coalesced branches
        share by signature.  Everything else goes back through
        :meth:`execute`, where a backend may claim it.
        """
        if nest_cache is not None:
            if isinstance(op, Nest):
                signature = op.describe()
                if signature not in nest_cache:
                    nest_cache[signature] = self._nest(op)
                return nest_cache[signature]
            if isinstance(op, Select):
                return self._select(op, nest_cache)
            if isinstance(op, Unnest):
                return self._unnest(op, nest_cache)
            if isinstance(op, Reduce):
                return self._reduce(op, nest_cache)
        return self.execute(op)

    def _scan(self, op: Scan) -> Dataset:
        cache_key = (op.table, op.var)
        if cache_key in self._scan_cache:
            return self._scan_cache[cache_key]
        try:
            source = self.catalog[op.table]
        except KeyError:
            raise SchemaError(f"unknown table {op.table!r}") from None
        if isinstance(source, Dataset):
            ds = source.map(lambda r, _v=op.var: {_v: r}, name=f"scan:{op.table}:bind")
        else:
            ds = self.cluster.parallelize(
                ({op.var: record} for record in source),
                fmt=op.fmt,
                name=op.table,
            )
        self._scan_cache[cache_key] = ds
        return ds

    def _select(self, op: Select, nest_cache: dict[str, Dataset] | None = None) -> Dataset:
        template = rid_pairs(op) if "rid_less" in self.functions else None
        if template is not None:
            return self._rid_pairs(*template, nest_cache)
        child = self._input(op.child, nest_cache)
        pred = self._predicate(op.predicate)
        return child.filter(pred, name="select")

    def _unnest(self, op: Unnest, nest_cache: dict[str, Dataset] | None = None) -> Dataset:
        child = self._input(op.child, nest_cache)
        path = self._fn(op.path)
        pred = None if op.predicate == TRUE else self._fn(op.predicate)
        var, outer = op.var, op.outer

        def expand(env: dict) -> list[dict]:
            out = [{**env, var: item} for item in path(env) or ()]
            if pred is not None:
                out = [extended for extended in out if pred(extended)]
            if not out and outer:
                out.append({**env, var: None})
            return out

        name = "outerUnnest" if op.outer else "unnest"
        return child.flat_map(expand, name=name)

    def _rid_pairs(
        self, outer: Unnest, inner: Unnest, rest: Expr | None,
        nest_cache: dict[str, Dataset] | None,
    ) -> Dataset:
        """The DEDUP pair template (:func:`rid_pairs`) as one loop per
        group: ``rid_less`` on the items themselves, an environment only for
        a pair it keeps, ``rest`` on that.  Both ``unnest`` entries and the
        ``select`` entry are charged from counts, in the staged order."""
        child = self._input(outer.child, nest_cache)
        cluster, unit = child.cluster, child.cluster.cost_model.record_unit
        spread = cluster.spread_over_nodes
        path, rid_less = self._fn(outer.path), self.functions["rid_less"]
        keep = None if rest is None else self._fn(rest)
        x, y = outer.var, inner.var
        members = [[list(path(env) or ()) for env in part] for part in child.partitions]
        sizes = [[len(items) for items in part] for part in members]
        cluster.record_op("unnest", spread([len(part) * unit for part in sizes]))
        cluster.record_op("unnest", spread([sum(part) * unit for part in sizes]))
        out: list[list[dict]] = []
        for part, groups in zip(child.partitions, members):
            kept: list[dict] = []
            for env, items in zip(part, groups):
                for a in items:
                    for b in items:
                        if rid_less(a, b):
                            pair = {**env, x: a, y: b}
                            if keep is None or keep(pair):
                                kept.append(pair)
            out.append(kept)
        pairs = [sum(size * size for size in part) * unit for part in sizes]
        cluster.record_op("select", spread(pairs))
        return Dataset(cluster, out, op="select", parents=(child,))

    def _join(self, op: Join) -> Dataset:
        left = self.execute(op.left)
        right = self.execute(op.right)
        if op.left_keys:
            return self._equi_join(op, left, right)
        return self._theta_join(op, left, right)

    def _equi_join(self, op: Join, left: Dataset, right: Dataset) -> Dataset:
        lk = [self._fn(k) for k in op.left_keys]
        rk = [self._fn(k) for k in op.right_keys]

        def left_key(env: dict) -> Any:
            return tuple(freeze(k(env)) for k in lk)

        def right_key(env: dict) -> Any:
            return tuple(freeze(k(env)) for k in rk)

        keyed_l = left.map(lambda env: (left_key(env), env), name="join:keyL")
        keyed_r = right.map(lambda env: (right_key(env), env), name="join:keyR")
        joined = (
            keyed_l.left_outer_join(keyed_r)
            if op.outer
            else keyed_l.join(keyed_r)
        )
        # Unmatched left rows in an outer join still bind the right side's
        # variables — to None (the μ̄/⟗ semantics of Table 1).
        from ..algebra.translate import _bound_vars

        right_vars = _bound_vars(op.right)
        null_right = {var: None for var in right_vars}

        def merge(kv):
            left_env, right_env = kv[1]
            if right_env is None:
                return {**left_env, **null_right}
            return {**left_env, **right_env}

        merged = joined.map(merge, name="join:merge")
        if op.predicate != TRUE:
            merged = merged.filter(self._predicate(op.predicate), name="join:residual")
        return merged

    def _theta_join(self, op: Join, left: Dataset, right: Dataset) -> Dataset:
        from .theta_join import theta_join_cartesian, theta_join_matrix

        pred = self._fn(op.predicate)

        def pair_pred(l_env: dict, r_env: dict) -> bool:
            return bool(pred({**l_env, **r_env}))

        if self.config.theta == "matrix":
            joined = theta_join_matrix(left, right, pair_pred)
        elif self.config.theta == "cartesian":
            joined = theta_join_cartesian(left, right, pair_pred)
        else:
            raise PlanningError(f"unknown theta strategy {self.config.theta!r}")
        return joined.map(lambda lr: {**lr[0], **lr[1]}, name="join:merge")

    def _nest(self, op: Nest) -> Dataset:
        if self.config.grouping not in ("aggregate", "sort", "hash"):
            raise PlanningError(f"unknown grouping strategy {self.config.grouping!r}")
        child = self.execute(op.child)
        multi = bool(getattr(op, "multi", False))
        key = self._fn(op.key)
        add, combine = nest_accumulator(
            [(name, monoid, self._fn(head)) for name, monoid, head in op.aggregates]
        )
        if self.config.grouping == "aggregate":
            out = self._fold_nest(child, key, add, combine, multi, op.var)
        else:
            if multi:
                keyed = child.flat_map(
                    lambda env: [(freeze(k), env) for k in key(env)], name="nest:multiKey"
                )
            else:
                keyed = child.map(lambda env: (freeze(key(env)), env), name="nest:keyBy")
            raw = keyed.group_by_key(shuffle_kind=self.config.grouping, name="nest:groupByKey")
            grouped = raw.map(lambda kv: (kv[0], reduce(add, kv[1], None)), name="nest:fold")
            out = grouped.map(lambda kv: {op.var: {"key": kv[0], **kv[1]}}, name="nest:emit")
        if op.group_predicate != TRUE:
            out = out.filter(self._predicate(op.group_predicate), name="nest:having")
        return out

    def _fold_nest(
        self, child: Dataset, key: Callable, add: Callable, combine: Callable,
        multi: bool, var: str,
    ) -> Dataset:
        """The ``aggregate`` Nest as one pass of the pool's Nest kernel:
        :func:`fold_nest` per partition, ``shuffle.merge_combiners`` per
        ``HashPartitioner`` bucket.  Charged from the counts, in order, what
        key → ``aggregate_by_key`` → emit charged: an error or a budget
        overrun surfaces at the same op."""
        cluster, parts = child.cluster, child.partitions
        cost, spread = cluster.cost_model, cluster.spread_over_nodes
        unit = cost.record_unit
        key_name = "nest:multiKey" if multi else "nest:keyBy"
        key_work = spread([len(p) * unit for p in parts])
        try:
            folded = [fold_nest(part, key, add, multi) for part in parts]
        except Exception:  # the staged plan keyed every record before folding
            for env in chain.from_iterable(parts):
                for k in key(env) if multi else (key(env),):
                    freeze(k)
            cluster.record_op(key_name, key_work)
            raise
        cluster.record_op(key_name, key_work)
        combine_work = spread([keyed * unit for _, keyed in folded])
        cluster.record_op("nest:aggregateByKey:combine", combine_work)
        buckets = route_combiners([c for c, _ in folded], cluster.default_parallelism)
        merged = [merge_combiners(bucket, combine) for bucket in buckets]
        groups = [[{var: {"key": k, **state}} for k, state in m.items()] for m in merged]
        moved = sum(map(len, buckets))
        shuffle_cost = moved * cost.shuffle_unit * cost.combiner_shuffle_factor
        merge_work = spread([len(b) * unit for b in buckets])
        cluster.record_op("nest:aggregateByKey:merge", merge_work, moved, shuffle_cost)
        cluster.record_op("nest:emit", spread([len(g) * unit for g in groups]))
        return Dataset(cluster, groups, op="nest:emit", parents=(child,))

    def _reduce(self, op: Reduce, nest_cache: dict[str, Dataset] | None = None) -> Any:
        child = self._input(op.child, nest_cache)
        if op.predicate != TRUE:
            child = child.filter(self._predicate(op.predicate), name="reduce:filter")
        heads = child.map(self._fn(op.head), name="reduce:head")
        if op.monoid.collection:
            if op.monoid.idempotent:  # set semantics: drop duplicates
                return heads.distinct()
            return heads
        # Primitive monoid: partial folds per partition, merged on the driver.
        partials = heads.map_partitions(
            lambda part: [op.monoid.fold(part)], name="reduce:partialFold"
        )
        result = op.monoid.zero()
        for partial in partials.collect():
            result = op.monoid.merge(result, partial)
        return result

    def _dag(self, op: SharedScanDAG) -> dict[str, Any]:
        # Materialize the shared scan once; every branch Scan with the same
        # (table, var) hits the cache.
        self._scan(op.scan)
        names = op.branch_names or tuple(
            f"branch{i}" for i in range(len(op.branches))
        )
        results: dict[str, Any] = {}
        # Nest results are shared across branches via signature caching.
        nest_cache: dict[str, Dataset] = {}
        for name, branch in zip(names, op.branches):
            results[name] = self._input(branch, nest_cache)
        return results


def rid_pairs(op: Select) -> tuple[Unnest, Unnest, Expr | None] | None:
    """``(outer, inner, rest)`` when ``op`` is §4.4's DEDUP pair template,
    ``Select[rid_less(x, y) and rest]`` (``rest`` optional) over two plain
    Unnests, ``y`` then ``x``, of one path that names neither; else None."""
    test, rest, inner = op.predicate, None, op.child
    if isinstance(test, BinOp) and test.op == "and":
        test, rest = test.left, test.right
    outer = getattr(inner, "child", None)
    if not (isinstance(inner, Unnest) and isinstance(outer, Unnest)):
        return None
    names = {outer.var, inner.var}
    plain = all(u.predicate == TRUE and not u.outer for u in (outer, inner))
    if (
        plain and test == Call("rid_less", (Var(outer.var), Var(inner.var)))
        and inner.path == outer.path and len(names) == 2
        and not names & outer.path.free_vars()
    ):
        return outer, inner, rest
    return None


# ---------------------------------------------------------------------- #
# The Nest kernel: the row and vectorized executors' folds and the pool's
# Nest tasks (``parallel_exec``) run :func:`fold_nest` and
# ``shuffle.merge_combiners``.
# ---------------------------------------------------------------------- #

def fold_nest(
    envs: Sequence[Any], key: Callable, add: Callable, multi: bool = False
) -> tuple[dict[Any, dict], int]:
    """Nest map side: one combiner state per frozen key over a partition
    (``add`` from ``monoids.nest_accumulator``), and how many keyed records
    it folded (a multi-key Nest's ``key`` returns several)."""
    combiners: dict[Any, dict] = {}
    if not multi:
        for env in envs:
            k = freeze(key(env))
            combiners[k] = add(combiners.get(k), env)
        return combiners, len(envs)
    keyed = 0
    for env in envs:
        for k in map(freeze, key(env)):
            keyed += 1
            combiners[k] = add(combiners.get(k), env)
    return combiners, keyed


def nest_combine_task(
    envs: list[dict], key_expr: Expr, aggregates: tuple, functions: dict, multi: bool = False,
) -> list[tuple[Any, dict]]:
    """The pool's map-side step: :func:`fold_nest` over compiled expressions."""
    add, _ = nest_accumulator(
        [(name, monoid, bind(head, functions)) for name, monoid, head in aggregates]
    )
    return list(fold_nest(envs, bind(key_expr, functions), add, multi)[0].items())


def nest_merge_task(
    part: list[tuple[Any, dict]], aggregates: tuple, var: str,
    group_predicate: Expr | None, functions: dict,
) -> list[dict]:
    """The pool's reduce-side step: ``shuffle.merge_combiners`` over the
    shuffled combiners (unpickled here), group records out, the HAVING."""
    merged = merge_combiners(part, nest_accumulator(aggregates)[1])
    groups = [{var: {"key": key, **state}} for key, state in merged.items()]
    pred = bind(group_predicate, functions) if group_predicate is not None else None
    return [env for env in groups if pred is None or pred(env)]


def bind(expr: Expr, funcs: dict[str, Callable] | None) -> Callable[[Any], Any]:
    """``compiled(expr)`` with ``funcs`` as its default: one frame per call,
    no keyword dict (``partial``) and no wrapper frame (a lambda)."""
    run = compiled(expr)
    return FunctionType(run.__code__, run.__globals__, run.__name__, (funcs,), run.__closure__)
