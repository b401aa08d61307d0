"""Physical lowering: executing algebra plans on the engine (§6, Table 2).

=================  ===================================================
Algebra operator   Engine translation
=================  ===================================================
σ_p                ``filter``
Δ^e_p              ``map`` → ``filter`` (fold on the driver for
                   primitive monoids)
μ/μ̄ (unnest)      ``flatMap`` over the path field
Γ (nest)           ``aggregateByKey`` → ``mapPartitions``  (CleanDB) or
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

from dataclasses import dataclass
from types import FunctionType
from typing import Any, Callable

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
from ..errors import PlanningError, SchemaError, StaleHandleError, WorkerTaskError
from ..monoid.expressions import Expr, compiled
from ..monoid.monoids import nest_accumulator
from .functions import DEFAULT_FUNCTIONS, freeze


@dataclass
class PhysicalConfig:
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
        aggs = [(name, monoid, self._fn(head)) for name, monoid, head in op.aggregates]

        if multi:
            def key_records(env: dict) -> list[tuple[Any, dict]]:
                return [(freeze(k), env) for k in key(env)]

            keyed = child.flat_map(key_records, name="nest:multiKey")
        else:
            keyed = child.map(
                lambda env: (freeze(key(env)), env),
                name="nest:keyBy",
            )

        add, combine = nest_accumulator(aggs)

        if self.config.grouping == "aggregate":
            grouped = keyed.aggregate_by_key(
                lambda: None, add, combine, name="nest:aggregateByKey"
            )
        else:
            raw = keyed.group_by_key(
                shuffle_kind=self.config.grouping, name="nest:groupByKey"
            )

            def fold(kv: tuple[Any, list]) -> tuple[Any, dict]:
                key, envs = kv
                state = None
                for env in envs:
                    state = add(state, env)
                return (key, state)

            grouped = raw.map(fold, name="nest:fold")

        def to_group_record(kv: tuple[Any, dict]) -> dict:
            key, state = kv
            group = {"key": key, **state}
            return {op.var: group}

        out = grouped.map(to_group_record, name="nest:emit")
        if op.group_predicate != TRUE:
            out = out.filter(self._predicate(op.group_predicate), name="nest:having")
        return out

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


def bind(expr: Expr, funcs: dict[str, Callable] | None) -> Callable[[Any], Any]:
    """``compiled(expr)`` with ``funcs`` as its default: one frame per call,
    no keyword dict (``partial``) and no wrapper frame (a lambda)."""
    run = compiled(expr)
    return FunctionType(run.__code__, run.__globals__, run.__name__, (funcs,), run.__closure__)
