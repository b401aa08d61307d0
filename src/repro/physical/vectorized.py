"""Vectorized columnar execution: the batch-at-a-time physical backend.

The row-path executor (``repro.physical.lower``) streams per-row *environment
dictionaries* through each operator — the slowest possible representation in
Python: every operator pays a dict construction, an expression-tree walk, and
a virtual dispatch **per row**.  This module executes the same algebra plans
over :class:`~repro.sources.columnar.ColumnBatch` column vectors instead:

* a Scan columnarizes each partition once (or reads a columnar file's blocks
  directly) — one typed array per attribute;
* Select evaluates its predicate column-at-a-time and records survivors in a
  *selection vector*, copying nothing;
* equi-Join shuffles whole column slices by key hash and probes one hash
  table per partition;
* Nest/aggregate folds monoid states over key/head columns with the same
  local-combine → combiner-shuffle → merge shape as ``aggregateByKey``;
* Reduce folds head columns partition-locally and merges on the driver.

Results are bit-identical to the row path (shared parity tests enforce it);
only the cost profile changes: per-row CPU is charged at the vectorized rate
and each batch pays a fixed dispatch overhead (see
:meth:`~repro.engine.cluster.Cluster.record_batch_op`).

Plan support is deliberately partial: theta joins, unnests, multi-key
groupings, and non-uniform record sources stay on the row path.  The
dispatcher (:meth:`Executor.execute`) checks :meth:`VectorizedExecutor.
supports` per subtree, so a plan with an unsupported root still vectorizes
its supported subplans and falls back seamlessly above them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Sequence

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
from ..engine.partitioner import round_robin_split, stable_hash
from ..engine.shuffle import merge_combiners, route_combiners
from ..errors import PlanningError, SchemaError
from ..monoid.expressions import (
    BINOPS,
    BinOp,
    Call,
    Const,
    Expr,
    If,
    Proj,
    RecordCons,
    UnaryOp,
    Var,
    project,
)
from ..monoid.monoids import nest_accumulator
from ..sources.columnar import (
    Column,
    ColumnBatch,
    batch_partitions,
    uniform_dict_records,
)
from .functions import freeze
from .lower import fold_nest  # lower imports this module lazily

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from .lower import Executor

_SUPPORTED_EXPRS = (Const, Var, Proj, RecordCons, BinOp, UnaryOp, Call, If)


def _expr_supported(expr: Expr) -> bool:
    if not isinstance(expr, _SUPPORTED_EXPRS):
        return False
    return all(_expr_supported(child) for child in expr.children())


# ---------------------------------------------------------------------- #
# Environment batches
# ---------------------------------------------------------------------- #

class EnvBatch:
    """A batch of environments ``{var: record}`` stored column-wise.

    One underlying :class:`ColumnBatch` holds every bound variable's data;
    a record-valued variable ``v`` with fields ``a, b`` contributes columns
    ``"v.a"``, ``"v.b"``, a scalar-valued variable contributes the single
    column ``"v"``.  ``varspec`` maps each variable to its field list (or
    ``None`` for scalars), so environments can be rebuilt without parsing
    column names.  All variables share one selection vector — a filtered
    environment drops the whole row.
    """

    __slots__ = ("batch", "varspec")

    def __init__(self, batch: ColumnBatch, varspec: dict[str, list[str] | None]):
        self.batch = batch
        self.varspec = varspec

    def __len__(self) -> int:
        return len(self.batch)

    # -- construction -------------------------------------------------- #
    @classmethod
    def bind(cls, var: str, batch: ColumnBatch) -> "EnvBatch":
        """Bind a source batch's records to one variable."""
        columns = {
            f"{var}.{name}": Column(
                f"{var}.{name}", batch.columns[name].values, batch.columns[name].type
            )
            for name in batch.order
        }
        bound = ColumnBatch(columns, batch.physical_rows, batch.selection)
        return cls(bound, {var: list(batch.order)})

    @classmethod
    def bind_values(cls, var: str, values: list[Any]) -> "EnvBatch":
        """Bind a scalar source column (e.g. a list of terms) to a variable."""
        batch = ColumnBatch({var: Column(var, values)}, len(values))
        return cls(batch, {var: None})

    # -- row reconstruction ------------------------------------------- #
    def var_values(self, var: str) -> list[Any]:
        """The value bound to ``var`` in every environment of the batch."""
        fields = self.varspec[var]
        if fields is None:
            return self.batch.column(var)
        cols = [(f, self.batch.column(f"{var}.{f}")) for f in fields]
        n = len(self)
        return [{name: values[i] for name, values in cols} for i in range(n)]

    def to_env_rows(self) -> list[dict[str, Any]]:
        """Rebuild the row representation: one env dict per logical row."""
        per_var = {var: self.var_values(var) for var in self.varspec}
        n = len(self)
        return [{var: values[i] for var, values in per_var.items()} for i in range(n)]

    # -- transformations ----------------------------------------------- #
    def filter(self, mask: Sequence[Any]) -> "EnvBatch":
        return EnvBatch(self.batch.filter(mask), self.varspec)

    def select(self, indices: Sequence[int]) -> "EnvBatch":
        return EnvBatch(self.batch.select(indices), self.varspec)

    def compact(self) -> "EnvBatch":
        return EnvBatch(self.batch.compact(), self.varspec)

    def merge(self, other: "EnvBatch") -> "EnvBatch":
        """Zip two equal-length compact batches into one environment batch."""
        left, right = self.batch.compact(), other.batch.compact()
        if len(left) != len(right):
            raise PlanningError(
                f"cannot merge batches of {len(left)} and {len(right)} rows"
            )
        columns = dict(left.columns)
        columns.update(right.columns)
        varspec = dict(self.varspec)
        varspec.update(other.varspec)
        return EnvBatch(ColumnBatch(columns, len(left)), varspec)

    @staticmethod
    def concat(batches: Sequence["EnvBatch"]) -> "EnvBatch":
        live = [b for b in batches if len(b)]
        if not live:
            base = batches[0] if batches else None
            if base is None:
                return EnvBatch(ColumnBatch({}, 0), {})
            return EnvBatch(
                ColumnBatch(
                    {n: Column(n, []) for n in base.batch.order}, 0
                ),
                base.varspec,
            )
        merged = ColumnBatch.concat([b.batch for b in live])
        return EnvBatch(merged, live[0].varspec)


# ---------------------------------------------------------------------- #
# Column-at-a-time expression evaluation
# ---------------------------------------------------------------------- #

def eval_column(
    expr: Expr, env: EnvBatch, funcs: dict[str, Callable]
) -> list[Any]:
    """Evaluate an expression once per batch, producing a value column.

    The operator dispatch (the ``isinstance`` ladder) runs once per *batch*;
    the per-row work is a tight zip/comprehension over already-materialized
    columns — the vectorized-interpretation payoff.
    """
    n = len(env)
    if not n:
        # No environments, no values: an empty table's batch binds no
        # columns to check a projection against, and the row path
        # evaluates nothing over it either.
        return []
    if isinstance(expr, Const):
        return [expr.value] * n
    if isinstance(expr, Var):
        if expr.name not in env.varspec:  # match the row evaluator's error
            raise NameError(f"unbound variable {expr.name!r}")
        return env.var_values(expr.name)
    if isinstance(expr, Proj):
        source = expr.source
        if isinstance(source, Var) and env.varspec.get(source.name) is not None:
            fields = env.varspec[source.name]
            if expr.attr not in fields:  # match the row evaluator's error
                raise KeyError(
                    f"record has no attribute {expr.attr!r}; has {sorted(fields)}"
                )
            return env.batch.column(f"{source.name}.{expr.attr}")
        return [project(value, expr.attr) for value in eval_column(source, env, funcs)]
    if isinstance(expr, RecordCons):
        cols = [(name, eval_column(sub, env, funcs)) for name, sub in expr.fields]
        return [{name: values[i] for name, values in cols} for i in range(n)]
    if isinstance(expr, BinOp):
        if expr.op in ("and", "or"):
            # Preserve the row evaluator's short-circuit semantics: the
            # right side is only evaluated on rows the left side doesn't
            # already decide (a type/null guard on the left must protect
            # the right on exactly the rows it guards).
            left = eval_column(expr.left, env, funcs)
            decide_right = expr.op == "and"
            need = [i for i, v in enumerate(left) if bool(v) == decide_right]
            out = [bool(v) for v in left]
            if need:
                right = eval_column(expr.right, env.select(need), funcs)
                for i, v in zip(need, right):
                    out[i] = bool(v)
            return out
        try:
            op = BINOPS[expr.op]
        except KeyError:
            raise ValueError(f"unknown binary operator {expr.op!r}") from None
        left = eval_column(expr.left, env, funcs)
        right = eval_column(expr.right, env, funcs)
        return [op(a, b) for a, b in zip(left, right)]
    if isinstance(expr, UnaryOp):
        values = eval_column(expr.operand, env, funcs)
        if expr.op == "not":
            return [not v for v in values]
        if expr.op == "-":
            return [-v for v in values]
        raise ValueError(f"unknown unary operator {expr.op!r}")
    if isinstance(expr, Call):
        if expr.name not in funcs:
            raise NameError(f"unknown function {expr.name!r}")
        fn = funcs[expr.name]
        arg_cols = [eval_column(a, env, funcs) for a in expr.args]
        if not arg_cols:
            return [fn() for _ in range(n)]
        return [fn(*vals) for vals in zip(*arg_cols)]
    if isinstance(expr, If):
        cond = eval_column(expr.cond, env, funcs)
        then_idx = [i for i, c in enumerate(cond) if c]
        else_idx = [i for i, c in enumerate(cond) if not c]
        out: list[Any] = [None] * n
        if then_idx:
            for i, v in zip(
                then_idx, eval_column(expr.then_branch, env.select(then_idx), funcs)
            ):
                out[i] = v
        if else_idx:
            for i, v in zip(
                else_idx, eval_column(expr.else_branch, env.select(else_idx), funcs)
            ):
                out[i] = v
        return out
    raise PlanningError(
        f"no vectorized evaluation for {type(expr).__name__}"
    )


# ---------------------------------------------------------------------- #
# The vectorized executor
# ---------------------------------------------------------------------- #

class VectorizedExecutor:
    """Interprets supported algebra plans over column batches.

    Created by (and sharing caches/config with) a row-path
    :class:`~repro.physical.lower.Executor`; the partition layout mirrors the
    row path's round-robin ``parallelize`` so result ordering matches.
    """

    def __init__(self, executor: "Executor"):
        self.cluster = executor.cluster
        self.catalog = executor.catalog
        self.config = executor.config
        self.functions = executor.functions
        self._scan_cache: dict[tuple[str, str], list[EnvBatch]] = {}
        self._source_ok: dict[str, bool] = {}
        #: ``_charge(name, per_part_rows, ...)``: every stage here is a batch stage.
        self._charge = self.cluster.record_batch_stage

    # -- support check ------------------------------------------------- #
    def supports(self, op: AlgebraOp) -> bool:
        """Whether this whole subtree can run on the columnar backend."""
        if isinstance(op, Scan):
            return self._source_supported(op.table)
        if isinstance(op, Select):
            return _expr_supported(op.predicate) and self.supports(op.child)
        if isinstance(op, Join):
            return (
                bool(op.left_keys)
                and not op.outer
                and all(_expr_supported(k) for k in op.left_keys)
                and all(_expr_supported(k) for k in op.right_keys)
                and _expr_supported(op.predicate)
                and self.supports(op.left)
                and self.supports(op.right)
            )
        if isinstance(op, Nest):
            return (
                not getattr(op, "multi", False)
                and self.config.grouping == "aggregate"
                and _expr_supported(op.key)
                and _expr_supported(op.group_predicate)
                and all(_expr_supported(head) for _, _, head in op.aggregates)
                and self.supports(op.child)
            )
        if isinstance(op, Reduce):
            return (
                _expr_supported(op.predicate)
                and _expr_supported(op.head)
                and self.supports(op.child)
            )
        if isinstance(op, SharedScanDAG):
            return self.supports(op.scan) and all(
                self.supports(branch) for branch in op.branches
            )
        return False

    def _source_supported(self, table: str) -> bool:
        if table not in self._source_ok:
            source = self.catalog.get(table)
            self._source_ok[table] = _records_columnarizable(source)
        return self._source_ok[table]

    # -- execution ----------------------------------------------------- #
    def run(self, op: AlgebraOp) -> Any:
        """Execute a supported plan; returns the same shapes as the row path
        (a Dataset of environments, a folded scalar, or a branch dict)."""
        if isinstance(op, SharedScanDAG):
            return self._dag(op)
        result = self._execute(op, {})
        if isinstance(result, EnvBatchResult):
            return result.to_dataset(self.cluster)
        return result

    def _execute(self, op: AlgebraOp, nest_cache: dict[str, "EnvBatchResult"]) -> Any:
        if isinstance(op, Scan):
            return EnvBatchResult(self._scan(op))
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
        raise PlanningError(f"no vectorized translation for {type(op).__name__}")

    # -- operators ------------------------------------------------------ #
    def _scan(self, op: Scan) -> list[EnvBatch]:
        cache_key = (op.table, op.var)
        if cache_key in self._scan_cache:
            return self._scan_cache[cache_key]
        try:
            source = self.catalog[op.table]
        except KeyError:
            raise SchemaError(f"unknown table {op.table!r}") from None
        records = source if isinstance(source, list) else list(source)
        n = self.cluster.default_parallelism
        batches = batch_partitions(records, n)
        if batches is not None:
            env_parts = [EnvBatch.bind(op.var, b) for b in batches]
        else:  # scalar source (e.g. a term list); guarded by supports()
            env_parts = [
                EnvBatch.bind_values(op.var, chunk)
                for chunk in round_robin_split(records, n)
            ]
        self._charge(
            f"scan:{op.table}:vec",
            [len(p) for p in env_parts],
            extra_unit=self.cluster.cost_model.scan_unit(op.fmt),
        )
        self._scan_cache[cache_key] = env_parts
        return env_parts

    def _select(self, op: Select, nest_cache: dict) -> "EnvBatchResult":
        child = self._child_batches(op.child, nest_cache)
        out: list[EnvBatch] = []
        for env in child:
            mask = eval_column(op.predicate, env, self.functions)
            out.append(env.filter(mask))
        self._charge("select:vec", [len(p) for p in child])
        return EnvBatchResult(out)

    def _join(self, op: Join, nest_cache: dict) -> "EnvBatchResult":
        left = self._child_batches(op.left, nest_cache)
        right = self._child_batches(op.right, nest_cache)
        n = self.cluster.default_parallelism
        left_parts, moved_l = self._shuffle_by_key(left, op.left_keys, n)
        right_parts, moved_r = self._shuffle_by_key(right, op.right_keys, n)
        shuffle_cost = self.cluster.cost_model.batch_shuffle_cost(
            moved_l + moved_r, kind="hash"
        )

        out: list[EnvBatch] = []
        per_part_rows: list[float] = []
        for (l_env, l_keys), (r_env, r_keys) in zip(left_parts, right_parts):
            table: dict[Any, list[int]] = {}
            for i, key in enumerate(r_keys):
                table.setdefault(key, []).append(i)
            l_idx: list[int] = []
            r_idx: list[int] = []
            for i, key in enumerate(l_keys):
                for j in table.get(key, ()):
                    l_idx.append(i)
                    r_idx.append(j)
            merged = l_env.select(l_idx).merge(r_env.select(r_idx))
            out.append(merged)
            per_part_rows.append(len(l_env) + len(r_env) + len(merged))
        self._charge(
            "join:vec",
            per_part_rows,
            shuffled_records=moved_l + moved_r,
            shuffle_cost=shuffle_cost,
        )
        result = EnvBatchResult(out)
        if op.predicate != TRUE:
            filtered = [
                env.filter(eval_column(op.predicate, env, self.functions))
                for env in out
            ]
            self._charge("join:vecResidual", [len(p) for p in out])
            result = EnvBatchResult(filtered)
        return result

    def _shuffle_by_key(
        self, parts: list[EnvBatch], key_exprs: tuple[Expr, ...], n: int
    ) -> tuple[list[tuple[EnvBatch, list[Any]]], int]:
        """Hash-redistribute batches by key; returns per-target (env, keys)."""
        buckets: list[list[EnvBatch]] = [[] for _ in range(n)]
        key_buckets: list[list[list[Any]]] = [[] for _ in range(n)]
        moved = 0
        for env in parts:
            keys = self._key_column(env, key_exprs)
            moved += len(env)
            routed: list[list[int]] = [[] for _ in range(n)]
            for i, key in enumerate(keys):
                routed[stable_hash(key) % n].append(i)
            for target, indices in enumerate(routed):
                if indices:
                    buckets[target].append(env.select(indices))
                    key_buckets[target].append([keys[i] for i in indices])
        out: list[tuple[EnvBatch, list[Any]]] = []
        template = parts[0] if parts else None
        for target in range(n):
            if buckets[target]:
                env = EnvBatch.concat(buckets[target]).compact()
                keys = [k for chunk in key_buckets[target] for k in chunk]
            elif template is not None:
                env = EnvBatch.concat([template.select([])])
                keys = []
            else:
                env, keys = EnvBatch(ColumnBatch({}, 0), {}), []
            out.append((env, keys))
        return out, moved

    def _key_column(self, env: EnvBatch, key_exprs: tuple[Expr, ...]) -> list[Any]:
        cols = [
            [freeze(v) for v in eval_column(k, env, self.functions)]
            for k in key_exprs
        ]
        if len(cols) == 1:
            return [(v,) for v in cols[0]]
        return [tuple(vals) for vals in zip(*cols)]

    def _nest(self, op: Nest, nest_cache: dict) -> "EnvBatchResult":
        child = self._child_batches(op.child, nest_cache)
        aggs = op.aggregates
        n = self.cluster.default_parallelism
        combine = nest_accumulator(aggs)[1]

        # Map side: fold monoid states per key over the head columns.
        local: list[dict[Any, dict[str, Any]]] = []
        for env in child:
            keys = eval_column(op.key, env, self.functions)
            add, _ = nest_accumulator([
                (name, monoid, eval_column(head, env, self.functions).__getitem__)
                for name, monoid, head in aggs
            ])
            local.append(fold_nest(range(len(keys)), keys.__getitem__, add)[0])
        self._charge("nest:vecCombine", [len(p) for p in child])

        # Shuffle combiners (one heavier object per (partition, key) pair),
        # serialized as column blocks rather than per-record objects.
        moved = sum(len(c) for c in local)
        shuffle_cost = self.cluster.cost_model.batch_shuffle_cost(moved)
        merged = [merge_combiners(bucket, combine) for bucket in route_combiners(local, n)]

        # Emit group records as columns: key plus one column per aggregate.
        out: list[EnvBatch] = []
        for groups in merged:
            fields: dict[str, list[Any]] = {"key": list(groups)}
            for name, _, _ in aggs:
                fields[name] = [state[name] for state in groups.values()]
            columns = {
                name: Column(name, values) for name, values in fields.items()
            }
            batch = ColumnBatch(columns, len(groups))
            out.append(EnvBatch.bind(op.var, batch))
        self._charge(
            "nest:vecMerge",
            [len(p) for p in merged],
            shuffled_records=moved,
            shuffle_cost=shuffle_cost,
        )
        if op.group_predicate != TRUE:
            out = [
                env.filter(eval_column(op.group_predicate, env, self.functions))
                for env in out
            ]
            self._charge("nest:vecHaving", [len(p) for p in merged])
        return EnvBatchResult(out)

    def _reduce(self, op: Reduce, nest_cache: dict) -> Any:
        child_result = self._execute(op.child, nest_cache)
        parts = child_result.parts
        if op.predicate != TRUE:
            filtered = [
                env.filter(eval_column(op.predicate, env, self.functions))
                for env in parts
            ]
            self._charge("reduce:vecFilter", [len(p) for p in parts])
            parts = filtered
        head_cols = [
            eval_column(op.head, env, self.functions) for env in parts
        ]
        self._charge("reduce:vecHead", [len(p) for p in parts])
        if op.monoid.collection:
            if op.monoid.idempotent:
                return self._distinct(head_cols)
            return Dataset(self.cluster, head_cols, op="reduce:vecHead")
        result = op.monoid.zero()
        for col in head_cols:
            result = op.monoid.merge(result, op.monoid.fold(col))
        return result

    def _distinct(self, head_cols: list[list[Any]]) -> Dataset:
        n = self.cluster.default_parallelism
        local: list[dict[Any, None]] = []
        for col in head_cols:
            seen: dict[Any, None] = {}
            for value in col:
                seen.setdefault(value, None)
            local.append(seen)
        moved = sum(len(s) for s in local)
        cost = self.cluster.cost_model.batch_shuffle_cost(moved)
        merged: list[dict[Any, None]] = [{} for _ in range(n)]
        for seen in local:
            for value in seen:
                merged[stable_hash(value) % n].setdefault(value, None)
        self._charge(
            "reduce:vecDistinct",
            [len(s) for s in merged],
            shuffled_records=moved,
            shuffle_cost=cost,
        )
        return Dataset(
            self.cluster, [list(s) for s in merged], op="reduce:vecDistinct"
        )

    def _dag(self, op: SharedScanDAG) -> dict[str, Any]:
        self._scan(op.scan)  # materialize once; branch scans hit the cache
        names = op.branch_names or tuple(
            f"branch{i}" for i in range(len(op.branches))
        )
        nest_cache: dict[str, EnvBatchResult] = {}
        results: dict[str, Any] = {}
        for name, branch in zip(names, op.branches):
            result = self._execute(branch, nest_cache)
            if isinstance(result, EnvBatchResult):
                result = result.to_dataset(self.cluster)
            results[name] = result
        return results

    # -- helpers -------------------------------------------------------- #
    def _child_batches(self, op: AlgebraOp, nest_cache: dict) -> list[EnvBatch]:
        result = self._execute(op, nest_cache)
        if not isinstance(result, EnvBatchResult):
            raise PlanningError(
                f"vectorized operator expected batches, got {type(result).__name__}"
            )
        return result.parts


class EnvBatchResult:
    """A collection-valued intermediate: one :class:`EnvBatch` per partition."""

    __slots__ = ("parts",)

    def __init__(self, parts: list[EnvBatch]):
        self.parts = parts

    def to_dataset(self, cluster: Any) -> Dataset:
        """Pivot back to row environments for collection/driver consumers.

        No cost is charged: every operator already paid for its rows, and
        the row path likewise materializes environments for free at collect.
        """
        return Dataset(
            cluster,
            [env.to_env_rows() for env in self.parts],
            op="vectorized",
        )


def _records_columnarizable(source: Any) -> bool:
    """True when a catalog entry can back a column batch scan.

    Qualifying sources are plain lists of either uniform-key dict records
    (the :func:`uniform_dict_records` precondition) or scalar values;
    Datasets and mixed-shape rows stay on the row path.
    """
    if not isinstance(source, list):
        return False
    if not source:
        return True
    if isinstance(source[0], dict):
        return uniform_dict_records(source)
    return not any(isinstance(r, (dict, Dataset)) for r in source)
