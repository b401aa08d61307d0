"""The CleanDB facade: parse → rewrite → normalize → algebra → physical.

This is the system of Fig. 2: a CleanM query string goes through the parser
(AST), the Monoid Rewriter (comprehension branches), the Monoid Optimizer
(normalization), the algebraic translator + rewriter (Nest coalescing and
shared-scan DAG), and finally the physical executor over the simulated
cluster.  ``explain()`` shows what every level produced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any, Sequence

from ..algebra.operators import AlgebraOp, SharedScanDAG
from ..algebra.rewrite import RewriteReport, optimize_branches
from ..algebra.translate import Translator
from ..cleaning.rowid import fill_rids
from ..engine.cluster import Cluster
from ..engine.dataset import Dataset
from ..engine.metrics import CostModel
from ..errors import ParseError, PlanningError, SchemaError
from ..monoid.comprehension import Comprehension
from ..monoid.normalize import NormalizationTrace, normalize
from ..physical.lower import EXECUTION_BACKENDS, Executor, PhysicalConfig
from .ast_nodes import Query
from .parser import parse
from .rewriter import Branch, rewrite_query
from .semantics import (
    Diagnostic,
    DiagnosticsError,
    TableInfo,
    analyze_dc,
    analyze_query,
    errors_in,
    infer_table,
    parse_error_diagnostic,
)
from .verify import verify_handles, verify_plan


def load_backend(execution: str, incremental: bool = False) -> None:
    """Constructor arguments decide the import set: a row session never
    loads the pool, the vectorized executor or the delta states; the others
    load theirs here, before the worker pool forks, so that workers inherit
    every module a task can name and no first use pays an import."""
    if execution == "parallel":
        from ..cleaning import dedup, denial  # noqa: F401
        from ..physical import parallel_exec  # noqa: F401
    elif execution == "vectorized":
        from ..physical import vectorized  # noqa: F401
    if incremental:
        from ..cleaning import incremental as _states  # noqa: F401


@dataclass
class QueryResult:
    """The outcome of one CleanM query.

    ``branches`` maps each branch name (``query``, ``fd1``, ``dedup``,
    ``cluster_by``, ...) to its collected output.  ``metrics`` is the
    cluster's metrics summary for the execution; ``report`` records the
    §5 rewrites that fired.
    """

    branches: dict[str, list[Any]]
    metrics: dict[str, float]
    report: RewriteReport
    explain_text: str = ""

    def branch(self, name: str) -> list[Any]:
        try:
            return self.branches[name]
        except KeyError:
            known = ", ".join(sorted(self.branches))
            raise KeyError(f"no branch {name!r}; query produced: {known}") from None

    @property
    def violations(self) -> list[tuple[str, Any]]:
        """Every violation across cleaning branches, tagged by branch.

        This is the paper's "entities that contain at least one violation"
        output for multi-operator queries.
        """
        out: list[tuple[str, Any]] = []
        for name, rows in self.branches.items():
            if name == "query":
                continue
            out.extend((name, row) for row in rows)
        return out


@dataclass
class _Plan:
    """An optimized plan plus everything needed to execute it."""

    query: Query
    branches: list[Branch]
    dag: AlgebraOp
    report: RewriteReport
    traces: dict[str, NormalizationTrace] = field(default_factory=dict)


class CleanDB:
    """A unified querying + cleaning engine over the simulated cluster.

    Parameters
    ----------
    num_nodes / budget / cost_model:
        Cluster shape (see :class:`~repro.engine.cluster.Cluster`).
    config:
        Physical strategy knobs; defaults to the CleanDB strategies
        (local pre-aggregation, matrix theta join).
    execution:
        Physical backend selection: ``"row"`` (per-row environments),
        ``"vectorized"`` (column batches with selection vectors), or
        ``"parallel"`` (real multi-process execution over a worker pool).
        Supported subplans run on the chosen backend, the rest falls back
        to the row path.  Shorthand for passing
        ``config=PhysicalConfig(execution=...)``.
    workers:
        Worker-process count for ``execution="parallel"`` (clamped to
        ``num_nodes`` with a warning; defaults to a small pool).  Call
        :meth:`close` — or use the instance as a context manager — to
        release the pool when done.
    coalesce:
        Enable the §5 operator-coalescing rewrite (on by default; the
        baselines turn it off).
    sim_filters:
        Band the similarity predicate's Levenshtein DP with the
        theta-derived distance budget (the similarity kernel's early
        exit).  On by default; results are identical either way — the
        toggle exists so benchmarks can measure the filters' effect.
    dc_strategy:
        Default strategy for :meth:`check_dc` / :meth:`repair_dc`:
        ``"banded"`` (the planned DC kernel — hash equality prefix plus a
        sort-banded range scan, running on whichever ``execution``
        backend is configured), ``"matrix"``, ``"cartesian"``, or
        ``"minmax"``.  The violation set is identical across strategies.
    incremental:
        Maintain cleaning results under :meth:`append_rows` /
        :meth:`update_rows` deltas instead of re-running each check from
        scratch.  Results are byte-identical to a cold re-run on the
        post-delta table; checks and tables outside the incremental
        states' parity guarantees transparently take the cold path.  Off
        by default (cold metrics accounting stays untouched).
    q / k / delta:
        Blocking parameters: q-gram length for token filtering, number of
        centers and assignment slack for k-means.
    namespace:
        Logical tenant prefix for this instance's pinned tables in the
        worker store: pins live under ``<namespace>/table:<name>`` instead
        of ``table:<name>``.  Two CleanDB instances sharing one pool (see
        ``pool``) with different namespaces can each register a table
        called ``"customer"`` without colliding — the serving layer gives
        every tenant its own namespace.  Empty (the default) keeps the
        unprefixed naming.
    pool:
        An externally owned shared :class:`~repro.engine.parallel.
        WorkerPool` to run parallel stages on, instead of a private lazy
        pool.  :meth:`close` detaches from a shared pool without
        terminating it; pins made by this instance are evicted so the
        shared store does not leak a departed tenant's partitions.
    """

    def __init__(
        self,
        num_nodes: int = 10,
        budget: float = math.inf,
        cost_model: CostModel | None = None,
        config: PhysicalConfig | None = None,
        execution: str | None = None,
        workers: int | None = None,
        coalesce: bool = True,
        sim_filters: bool = True,
        dc_strategy: str = "banded",
        incremental: bool = False,
        q: int = 3,
        k: int = 10,
        delta: float = 0.05,
        seed: int = 13,
        namespace: str = "",
        pool: Any = None,
    ):
        if namespace and "/" in namespace:
            raise ValueError(f"namespace {namespace!r} must not contain '/'")
        self.namespace = namespace
        self.cluster = Cluster(
            num_nodes=num_nodes,
            cost_model=cost_model,
            budget=budget,
            workers=workers,
            pool=pool,
        )
        self.config = config or PhysicalConfig()
        if execution is not None:
            if execution not in EXECUTION_BACKENDS:
                expected = ", ".join(repr(b) for b in EXECUTION_BACKENDS)
                raise PlanningError(
                    f"unknown execution backend {execution!r}; "
                    f"expected one of {expected}"
                )
            # Copy before overriding: the caller's config object must not
            # change under them (it may be shared across CleanDB instances).
            self.config = replace(self.config, execution=execution)
        self.coalesce = coalesce
        self.sim_filters = sim_filters
        if dc_strategy != "banded":  # the default is valid without its table
            from ..cleaning.denial import DC_STRATEGIES

            if dc_strategy not in DC_STRATEGIES:
                expected = ", ".join(repr(s) for s in DC_STRATEGIES)
                raise PlanningError(
                    f"unknown DC strategy {dc_strategy!r}; expected one of {expected}"
                )
        self.dc_strategy = dc_strategy
        self.incremental = bool(incremental)
        load_backend(self.config.execution, self.incremental)
        self.q = q
        self.k = k
        self.delta = delta
        self.seed = seed
        self._tables: dict[str, list[Any]] = {}
        self._formats: dict[str, str] = {}
        # Inferred schemas for the static analyzer, keyed on the table
        # version so any mutation path (re-register, refresh, deltas)
        # naturally invalidates them.
        self._schema_infos: dict[str, tuple[int, TableInfo]] = {}
        # Monotonic per-table versions: the identity of a table's pinned
        # partitions in the worker store.  Re-registration and repair bump
        # the version and evict the old pins, so a stale handle can never
        # serve pre-mutation rows.
        self._table_versions: dict[str, int] = {}
        # Incremental machinery (``incremental=True`` only): the per-table
        # partition mirror holding maintained check states, and a lazy
        # ``_rid -> [global row index]`` index for ``update_rows``.  Both
        # die with the version on ``refresh_table`` / re-registration.
        self._inc_tables: dict[str, Any] = {}
        self._rid_index: dict[str, dict[Any, list[int]]] = {}

    # ------------------------------------------------------------------ #
    # Resource lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Release the worker pool (if ``execution="parallel"`` created one).

        Idempotent; the instance remains usable — a later parallel query
        lazily re-creates the pool.  On a *shared* pool this only detaches:
        this instance's pins are evicted (a departed tenant must not leak
        store memory) but the pool itself belongs to whoever created it."""
        if not self.cluster._owns_pool and self.cluster.has_pool:
            pool = self.cluster.pool
            for name in self._table_versions:
                pool.evict(self._pin_name(name))
        self.cluster.shutdown()

    def __enter__(self) -> "CleanDB":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Catalog
    # ------------------------------------------------------------------ #
    def register_table(
        self, name: str, records: Sequence[Any], fmt: str = "memory"
    ) -> None:
        """Register a data source.  Dict records get a stable ``_rid``.

        Under ``execution="parallel"`` the table's partitions are pinned
        into the worker pool's partition store eagerly — queries and the
        cleaning fast paths then reference them by handle instead of
        shipping rows per task.  Re-registering a name bumps its version
        and evicts the previous pins (and any cached derived state built
        on them).
        """
        rows = list(records)
        if rows and isinstance(rows[0], dict):
            rows = fill_rids(rows)
        self._tables[name] = rows
        self._formats[name] = fmt
        self.refresh_table(name)

    def _pin_name(self, name: str) -> str:
        """The worker-store name a table pins under — tenant-qualified when
        this instance has a namespace (``tenant/table:<name>``), so tenants
        sharing a pool never alias each other's tables."""
        if self.namespace:
            return f"{self.namespace}/table:{name}"
        return f"table:{name}"

    def _sync_pin(self, name: str) -> None:
        """Make the worker store reflect the table's current version.

        Evicts every older pinned version (plus derived caches keyed on
        them) and pins the current rows.  A no-op outside the parallel
        backend, for tables too exotic to pickle (the fast paths fall back
        to serial for those anyway), and on empty-table edge cases.
        """
        if self.config.execution != "parallel":
            return
        from ..engine.parallel import ShipLog
        from ..sources.columnar import round_robin_split

        pool = self.cluster.pool
        pin_name = self._pin_name(name)
        pool.evict(pin_name)
        rows = self._tables[name]
        log = ShipLog(pool)
        parts = round_robin_split(rows, self.cluster.default_parallelism)
        try:
            # Pinning doubles as the picklability probe — a separate
            # is_picklable(rows) pass would serialize the whole table a
            # second time just to answer yes/no.
            pool.pin(pin_name, self._table_versions[name], parts)
        except Exception:
            # Unpicklable rows: drop any partially pinned partitions; the
            # fast paths and queries fall back to serial for this table.
            pool.evict(pin_name)
            return
        self.cluster.record_op(
            f"pin:{name}",
            [0.0] * self.cluster.num_nodes,
            **log.take(),
        )

    def _pinned_key(self, name: str) -> tuple[str, int] | None:
        """The (store name, version) of a table's pins, for handle-based
        dispatch — None outside the parallel backend."""
        if self.config.execution != "parallel" or name not in self._table_versions:
            return None
        return (self._pin_name(name), self._table_versions[name])

    def _pinned_map(self) -> dict[str, tuple[str, int]]:
        """Every registered table's pin identity (parallel backend only)."""
        if self.config.execution != "parallel":
            return {}
        return {
            name: (self._pin_name(name), version)
            for name, version in self._table_versions.items()
        }

    def table(self, name: str) -> list[Any]:
        """The registered rows.  Under ``execution="parallel"`` the worker
        store holds a *snapshot* of these rows (pinned at registration,
        like executor-cached RDD partitions) — after mutating them in
        place, call :meth:`refresh_table` so queries see the edits."""
        try:
            return self._tables[name]
        except KeyError:
            raise SchemaError(f"unknown table {name!r}") from None

    def refresh_table(self, name: str) -> None:
        """Re-snapshot a table after in-place edits to its rows.

        Bumps the table version, evicts the old pinned partitions and any
        derived state cached on them, and re-pins the current rows — the
        explicit coherence point for mutations that bypass
        :meth:`register_table` / :meth:`repair_dc`.  Cheap no-op outside
        the parallel backend.
        """
        if name not in self._tables:
            raise SchemaError(f"unknown table {name!r}")
        self._table_versions[name] = self._table_versions.get(name, 0) + 1
        # External mutations invalidate everything derived from the rows:
        # the incremental states (their mirror may no longer match the
        # table) and the rid index, alongside the pinned partitions and
        # derived caches _sync_pin evicts below.
        self._inc_tables.pop(name, None)
        self._rid_index.pop(name, None)
        self._sync_pin(name)

    def unpin_table(self, name: str) -> None:
        """Evict a table's pinned partitions (and derived caches built on
        them) from the worker store *without* forgetting the table.

        The rows and version stay registered, so the next query touching
        the table re-pins it under the same identity and later queries are
        warm again — residency is a cache, not correctness.  This is the
        serving layer's memory-pressure lever: its LRU governor unpins
        cold tenants' tables when the shared store passes its byte cap.
        No-op outside the parallel backend or for unknown names.
        """
        if self.config.execution != "parallel" or name not in self._table_versions:
            return
        if self.cluster.has_pool:
            self.cluster.pool.evict(self._pin_name(name))

    def pinned_table_bytes(self, name: str) -> int:
        """Serialized bytes this table's pins hold in the worker store
        (0 when unpinned or outside the parallel backend)."""
        if self.config.execution != "parallel" or not self.cluster.has_pool:
            return 0
        return self.cluster.pool.pinned_nbytes(self._pin_name(name))

    # ------------------------------------------------------------------ #
    # Delta mutations
    # ------------------------------------------------------------------ #
    def append_rows(self, name: str, rows: Sequence[Any]) -> None:
        """Append rows to a registered table, shipping only the delta.

        Bumps the table version like :meth:`refresh_table`, but instead of
        re-pinning the whole table, the pinned partitions are *patched* in
        the workers: each touched partition is extended with its share of
        the new rows under the new version, untouched partitions are
        re-keyed without moving, and the old version is evicted (stale
        handles keep failing).  Dict rows without a ``_rid`` get one
        assigned from their global position, matching
        :meth:`register_table`.  Incremental check states absorb the new
        rows in place.  An empty delta is a no-op (no version bump).
        """
        table = self.table(name)
        rows = list(rows)
        if not rows:
            return
        base = len(table)
        prepared = fill_rids(rows, base)
        table.extend(prepared)
        old_version = self._table_versions.get(name, 0)
        self._table_versions[name] = old_version + 1
        index = self._rid_index.get(name)
        if index is not None:
            for j, row in enumerate(prepared):
                if isinstance(row, dict):
                    index.setdefault(row.get("_rid"), []).append(base + j)
        inc = self._inc_tables.get(name)
        if inc is not None:
            try:
                inc.append(prepared)
            except Exception:
                # The mirror can no longer be trusted; drop it wholesale.
                self._inc_tables.pop(name, None)
        self._ship_delta(name, old_version, appended=prepared)

    def update_rows(self, name: str, rid_to_row: dict) -> None:
        """Replace rows addressed by ``_rid``, shipping only the delta.

        Each replacement must be a dict; it is stamped with the addressed
        ``_rid`` (a row's identity never changes through an update) and
        replaces the old row at **every** position bearing that rid.
        Version, store, and incremental-state handling mirror
        :meth:`append_rows`; an empty mapping is a no-op.
        """
        table = self.table(name)
        if not rid_to_row:
            return
        index = self._rid_index_for(name)
        updates: list[tuple[int, dict]] = []
        for rid, row in rid_to_row.items():
            positions = index.get(rid)
            if not positions:
                raise SchemaError(f"table {name!r} has no row with _rid {rid!r}")
            if not isinstance(row, dict):
                raise SchemaError("update_rows replacements must be dict rows")
            replacement = {**row, "_rid": rid}
            for g in positions:
                table[g] = replacement
                updates.append((g, replacement))
        old_version = self._table_versions.get(name, 0)
        self._table_versions[name] = old_version + 1
        inc = self._inc_tables.get(name)
        if inc is not None:
            try:
                inc.update(updates)
            except Exception:
                self._inc_tables.pop(name, None)
        self._ship_delta(name, old_version, updated=updates)

    def _rid_index_for(self, name: str) -> dict[Any, list[int]]:
        """Lazy ``_rid -> [global row index]`` map (duplicates keep every
        position).  Maintained by :meth:`append_rows`, dropped on any
        whole-table mutation."""
        index = self._rid_index.get(name)
        if index is None:
            index = {}
            for g, row in enumerate(self.table(name)):
                if isinstance(row, dict):
                    index.setdefault(row.get("_rid"), []).append(g)
            self._rid_index[name] = index
        return index

    def _ship_delta(
        self,
        name: str,
        old_version: int,
        appended: Sequence[Any] = (),
        updated: Sequence[tuple[int, Any]] = (),
    ) -> None:
        """Patch the pinned partitions from one delta (parallel backend).

        Requires the old version to be fully resident with matching
        counts; anything short of that — cold pins, a restarted pool, a
        worker death mid-patch — falls back to :meth:`_sync_pin`, which
        re-pins the whole table under the new version (correct, just not
        incremental).  On success the patched partitions are adopted as
        the new version's pins and the old version is evicted, so derived
        caches keyed on it die and stale handles fail loudly.
        """
        if self.config.execution != "parallel":
            return
        from ..engine.parallel import ShipLog
        from ..physical.parallel_exec import _patch_task
        from ..sources.columnar import round_robin_split

        pool = self.cluster.pool
        pin_name = self._pin_name(name)
        new_version = self._table_versions[name]
        n = self.cluster.default_parallelism
        old_count = len(self._tables[name]) - len(appended)
        refs = pool.pinned(pin_name, old_version)
        if (
            refs is None
            or len(refs) != n
            or sum(max(r.count, 0) for r in refs) != old_count
        ):
            self._sync_pin(name)
            return
        # One task per partition, whatever the delta holds for it: appends
        # land at ``global_index % n``, updates in place, and a partition
        # the delta misses is aliased under the new version without moving.
        append_parts: list[list[Any]] = [[] for _ in range(n)]
        for j, row in enumerate(appended):
            append_parts[(old_count + j) % n].append(row)
        update_parts: list[list[tuple[int, Any]]] = [[] for _ in range(n)]
        for g, row in updated:
            update_parts[g % n].append((g // n, row))
        log = ShipLog(pool)
        try:
            new_refs = pool.run(
                _patch_task,
                list(zip(refs, append_parts, update_parts)),
                store_as=(pin_name, new_version),
            )
            # The patched layout is round-robin over the post-delta rows,
            # so the driver rows back the adopted version as plain re-pin
            # lineage — a worker death after this delta rebuilds from the
            # current rows instead of chasing the evicted old version.
            pool.adopt(
                pin_name,
                new_version,
                new_refs,
                partitions=round_robin_split(self._tables[name], n),
            )
            pool.evict(pin_name, old_version)
        except Exception:
            # Worker death (store already invalidated) or any transport
            # failure: full re-pin under the new version.
            self._sync_pin(name)
            return
        self.cluster.record_op(
            f"delta:{name}",
            [0.0] * self.cluster.num_nodes,
            rows_delta=len(appended) + len(updated),
            **log.take(),
        )

    # ------------------------------------------------------------------ #
    # Incremental check states
    # ------------------------------------------------------------------ #
    def _incremental_table(self, name: str):
        """The table's partition mirror, created lazily — None when the
        instance is not incremental or the table is out of scope (too
        small for the layout arithmetic, or rows without stable rids)."""
        if not self.incremental:
            return None
        inc = self._inc_tables.get(name)
        if inc is None:
            from ..cleaning.incremental import IncrementalTable, UnsupportedDelta

            rows = self.table(name)
            try:
                inc = IncrementalTable(rows, self.cluster.default_parallelism)
            except UnsupportedDelta:
                return None
            self._inc_tables[name] = inc
        return inc

    def _incremental_result(self, name: str, key: tuple, args: tuple) -> list | None:
        """A maintained check result, or None to run the cold path.

        ``key[0]`` names the operation (``fd`` / ``dc`` / ``dedup``); its
        state is constructed from ``args`` on first use.  A state that
        cannot be built (unsupported arguments/table) or that fails
        mid-emit is dropped so the cold path answers — falling back is
        always correct, serving a stale result never is.
        """
        inc = self._incremental_table(name)
        if inc is None:
            return None
        try:
            state = inc.states.get(key)
            if state is None:
                from ..cleaning.incremental import STATES

                state = inc.states[key] = STATES[key[0]](inc, *args)
        except Exception:
            return None
        try:
            out = state.emit()
        except Exception:
            inc.states.pop(key, None)
            return None
        self.cluster.record_op(
            f"incremental:{key[0]}:{name}", [0.0] * self.cluster.num_nodes
        )
        return out

    def profile(self, name: str, attr: str):
        """Key-frequency statistics for one attribute (§6's statistics pass).

        Returns a :class:`~repro.physical.stats.KeyStats`; its
        ``skew_ratio``/``is_skewed`` tell the physical planner (and the
        user) whether skew-resilient grouping will pay off for this key.
        """
        from ..physical.stats import collect_key_stats

        rows = self.table(name)
        return collect_key_stats(rows, lambda r: r.get(attr) if isinstance(r, dict) else r)

    # ------------------------------------------------------------------ #
    # Denial constraints (programmatic surface; SQL self-joins also work)
    # ------------------------------------------------------------------ #
    def _analyzed_dc(self, table: str, rule: str):
        """Statically validate a textual DC rule against the target table's
        inferred schema (clause shape, attribute existence, type
        compatibility, satisfiability — CM3xx), then parse it.  Raises
        :class:`~repro.core.semantics.DiagnosticsError` on any finding."""
        from ..cleaning.dc_kernel import parse_dc

        info = self._table_info(table) if table in self._tables else None
        errors = errors_in(analyze_dc(rule, info=info))
        if errors:
            raise DiagnosticsError(errors, source=rule)
        return parse_dc(rule)

    def _run_check(
        self,
        op: str,
        table: str,
        run: Any,
        state_key: tuple | None = None,
        state_args: tuple = (),
        **kwargs: Any,
    ) -> list[Any]:
        """Run one cleaning check on this instance's backend.

        ``run`` is the operation's dispatch function
        (:func:`~repro.cleaning.denial.run_fd` / ``run_dc`` /
        :func:`~repro.cleaning.dedup.run_dedup`), which maps ``execution``
        to a driver.  This method owns what only the facade knows: the
        maintained result when ``state_key`` names an incremental state
        (built from ``state_args`` on first use), the table's format and
        pin, and the last rung of the degradation ladder — when the
        parallel backend could not heal (the retry budget is spent, or a
        rebuild left a handle stale) the check is answered by the row
        driver, under a ``degraded:`` op the serving layer counts to mark
        the outcome degraded-but-answered.
        """
        records = self.table(table)
        if state_key is not None:
            out = self._incremental_result(table, state_key, state_args)
            if out is not None:
                return out
        kwargs.update(
            fmt=self._formats.get(table, "memory"),
            name=table,
            pinned=self._pinned_key(table),
            batch_size=self.config.batch_size,
        )
        execution = self.config.execution
        if execution == "parallel":
            from ..engine.parallel import StaleHandleError, WorkerTaskError

            try:
                return run(self.cluster, records, execution=execution, **kwargs).collect()
            except (WorkerTaskError, StaleHandleError):
                self.cluster.record_op(
                    f"degraded:{op}:{table}", [0.0] * self.cluster.num_nodes
                )
            execution = "row"
        return run(self.cluster, records, execution=execution, **kwargs).collect()

    def check_dc(
        self, table: str, constraint: Any, strategy: str | None = None
    ) -> list[tuple[dict, dict]]:
        """Find pairs in ``table`` violating a general denial constraint.

        ``constraint`` is a :class:`~repro.cleaning.denial.
        DenialConstraint` (or a rule string for
        :func:`~repro.cleaning.dc_kernel.parse_dc`).  The ``banded``
        strategy runs on this instance's execution backend — at batch
        prices under ``execution="vectorized"``, on real worker processes
        under ``execution="parallel"`` — with an identical violation set
        either way.
        """
        from ..cleaning.denial import run_dc

        if isinstance(constraint, str):
            constraint = self._analyzed_dc(table, constraint)
        chosen = strategy or self.dc_strategy
        return self._run_check(
            "dc", table, run_dc,
            ("dc", constraint) if chosen == "banded" else None, (constraint,),
            constraint=constraint, strategy=chosen,
        )

    def check_fd(
        self,
        table: str,
        lhs: Sequence[Any],
        rhs: Sequence[Any],
        keep_records: bool = True,
    ) -> list[Any]:
        """Find ``table``'s functional-dependency violations (LHS → RHS).

        Runs on this instance's execution backend — at batch prices under
        ``execution="vectorized"``, handle-based worker processes under
        ``execution="parallel"`` (referencing the eagerly pinned table) —
        with an identical violation set either way.
        """
        from ..cleaning.denial import run_fd

        grouping = self.config.grouping
        state_args = (tuple(lhs), tuple(rhs), bool(keep_records))
        return self._run_check(
            "fd", table, run_fd,
            ("fd", *state_args) if grouping == "aggregate" else None, state_args,
            lhs=lhs, rhs=rhs, grouping=grouping, keep_records=keep_records,
        )

    def deduplicate(
        self,
        table: str,
        attributes: Sequence[str],
        metric: str = "LD",
        theta: float = 0.8,
        block_on: Any = None,
    ) -> list[Any]:
        """Find ``table``'s duplicate pairs (exact-key blocking).

        Backend routing mirrors :meth:`check_fd`; the parallel backend
        references the pinned table by handle and ships only the final
        pairs back.
        """
        from ..cleaning.dedup import run_dedup
        from ..cleaning.simjoin import NO_FILTERS

        filters = None if self.sim_filters else NO_FILTERS
        grouping = self.config.grouping
        attributes = list(attributes)
        state_key = None
        if grouping == "aggregate":
            try:
                block_tag = (
                    block_on
                    if block_on is None
                    or isinstance(block_on, str)
                    or callable(block_on)
                    else tuple(block_on)
                )
                state_key = (
                    "dedup", tuple(attributes), metric, float(theta),
                    block_tag, self.sim_filters,
                )
            except TypeError:
                pass
        return self._run_check(
            "dedup", table, run_dedup,
            state_key, (attributes, metric, theta, block_on, filters),
            attributes=attributes, grouping=grouping, metric=metric,
            theta=theta, block_on=block_on, filters=filters,
        )

    def repair_dc(
        self,
        table: str,
        constraint: Any,
        strategy: str | None = None,
        max_rounds: int = 4,
        violations: list[tuple[dict, dict]] | None = None,
    ):
        """Detect and repair ``table``'s DC violations by relaxation.

        The repaired records replace the registered table (the detect →
        repair loop of the examples), and the
        :class:`~repro.cleaning.repair.DCRepairReport` is returned —
        ``report.clean`` is True when no residual violations remain.
        Pass ``violations`` from an earlier :meth:`check_dc` call on the
        same table to skip re-detecting.
        """
        from ..cleaning.repair import repair_dc_by_relaxation

        if isinstance(constraint, str):
            constraint = self._analyzed_dc(table, constraint)
        # One detection pass through the configured backend (so metrics
        # reflect the real plan); its pairs seed the repair engine's first
        # round directly, since every banded driver emits the table's own
        # record objects (pairs of rebuilt copies would re-detect instead).
        if violations is None:
            violations = self.check_dc(table, constraint, strategy=strategy)
        repaired, report = repair_dc_by_relaxation(
            self.table(table), constraint, max_rounds=max_rounds,
            violations=violations,
        )
        self._tables[table] = repaired
        # The mutation invalidates every handle to the old rows — a stale
        # handle can never serve pre-repair data.
        self.refresh_table(table)
        return report

    # ------------------------------------------------------------------ #
    # Compilation
    # ------------------------------------------------------------------ #
    def _table_info(self, name: str) -> TableInfo:
        """Inferred schema of a registered table, cached per version."""
        version = self._table_versions.get(name, 0)
        cached = self._schema_infos.get(name)
        if cached is not None and cached[0] == version:
            return cached[1]
        info = infer_table(self._tables.get(name, []))
        self._schema_infos[name] = (version, info)
        return info

    def _analyze(self, query: Query | str, source: str) -> list[Diagnostic]:
        """The CM1xx–CM5xx semantic pass over one parsed query."""
        if isinstance(query, str):
            source = query
            query = parse(query)
        names = {t.name for t in query.tables}
        return analyze_query(
            query,
            self._tables,
            execution=self.config.execution,
            infos={n: self._table_info(n) for n in names if n in self._tables},
            source=source,
        )

    def check(
        self,
        sql: str | None = None,
        *,
        rule: str | None = None,
        where: str = "",
        on: str | None = None,
    ) -> list[Diagnostic]:
        """Statically analyze a query and/or a DC rule; never raises.

        The ``repro check`` entry point: returns every diagnostic —
        including parse failures, reported as CM001 — instead of raising,
        so callers can render all findings.  ``on`` names the table a DC
        rule targets (defaults to the only registered table, when there is
        exactly one).
        """
        diags: list[Diagnostic] = []
        if sql is not None:
            try:
                query = parse(sql)
            except ParseError as exc:
                diags.append(parse_error_diagnostic(exc, source=sql))
            else:
                diags.extend(self._analyze(query, sql))
                if not errors_in(diags):
                    try:
                        self._lower(query, rewrite_query(query))
                    except DiagnosticsError as exc:
                        diags.extend(exc.diagnostics)
                    except Exception:
                        pass  # non-static planning failure; execute() reports it
        if rule is not None:
            info = None
            names = list(self._tables)
            target = on if on is not None else (names[0] if len(names) == 1 else None)
            if target is not None and target in self._tables:
                info = self._table_info(target)
            diags.extend(analyze_dc(rule, where, info))
        return diags

    def compile(self, sql: str) -> _Plan:
        """Run the front half of Fig. 2: parse, analyze, de-sugar,
        normalize, lower, verify.

        Semantic errors (unknown tables/columns, ill-typed predicates,
        illegal monoids, unshippable closures) raise
        :class:`~repro.core.semantics.DiagnosticsError` — a
        :class:`SchemaError` carrying the structured diagnostics — before
        any rewrite runs; plan-invariant violations raise it after
        lowering.  Parse errors propagate unchanged.
        """
        query = parse(sql)
        errors = errors_in(self._analyze(query, sql))
        if errors:
            raise DiagnosticsError(errors, source=sql)
        return self._lower(query, rewrite_query(query), source=sql)

    def _lower(
        self, query: Query, branches: list[Branch], source: str = ""
    ) -> _Plan:
        """Normalize and translate de-sugared branches, then verify the
        optimized plan's structural invariants (CM6xx)."""

        translator = Translator(set(self._tables), self._formats)
        plans: list[AlgebraOp] = []
        names: list[str] = []
        traces: dict[str, NormalizationTrace] = {}
        for branch in branches:
            trace = NormalizationTrace()
            normalized = normalize(branch.comprehension, trace)
            if not isinstance(normalized, Comprehension):
                raise PlanningError(
                    f"branch {branch.name} normalized to a constant: {normalized!r}"
                )
            traces[branch.name] = trace
            plans.append(translator.translate(normalized))
            names.append(branch.name)
        dag, report = optimize_branches(plans, names, coalesce=self.coalesce)
        invariants = verify_plan(dag, self._tables, names)
        if invariants:
            raise DiagnosticsError(invariants, source=source)
        return _Plan(query=query, branches=branches, dag=dag, report=report, traces=traces)

    def explain(self, sql: str) -> str:
        """The three-level EXPLAIN: rewrites applied and the final plan."""
        plan = self.compile(sql)
        lines = ["== CleanM query =="]
        lines.append(sql.strip())
        lines.append("")
        lines.append("== Monoid level (normalization) ==")
        for name, trace in plan.traces.items():
            fired = ", ".join(trace.applied) if trace.applied else "(no rewrites)"
            lines.append(f"  {name}: {fired}")
        lines.append("")
        lines.append("== Algebra level ==")
        if plan.report.coalesced_groups:
            for group in plan.report.coalesced_groups:
                lines.append(f"  coalesced groupings: {' + '.join(group)}")
        if plan.report.shared_scan:
            lines.append(f"  shared scan: {plan.report.shared_scan}")
        if not plan.report.any_rewrite:
            lines.append("  (no inter-operator rewrites)")
        lines.append("")
        lines.append("== Physical plan ==")
        lines.append(plan.dag.describe(1))
        lines.append(
            f"  [grouping={self.config.grouping}, theta={self.config.theta}, "
            f"execution={self.config.execution}]"
        )
        return "\n".join(lines)

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def execute(self, sql: str) -> QueryResult:
        """Compile and run a CleanM query; collects every branch output."""
        plan = self.compile(sql)
        functions = self._query_functions(plan)
        if self.config.execution == "parallel" and self.cluster.has_pool:
            # Handle/version skew between driver and worker store is a
            # driver bug; fail with the CM502 diagnostic naming the skew
            # before dispatch rather than a StaleHandleError mid-flight.
            stale = verify_handles(self.cluster.pool, self._pinned_map())
            if stale:
                raise DiagnosticsError(stale, source=sql)
        executor = Executor(
            self.cluster,
            dict(self._tables),
            config=self.config,
            functions=functions,
            pinned_tables=self._pinned_map(),
        )
        raw = executor.execute(plan.dag)
        branches: dict[str, list[Any]] = {}
        if isinstance(plan.dag, SharedScanDAG):
            assert isinstance(raw, dict)
            for name, value in raw.items():
                branches[name] = self._collect(value)
            if len(branches) > 1:
                # The combining outer join of violation sets (§4.4).
                total = sum(len(v) for v in branches.values())
                self.cluster.record_op(
                    "combine:outerJoin",
                    self.cluster.spread_over_nodes([float(total)]),
                    shuffled_records=total,
                    shuffle_cost=total * self.cluster.cost_model.shuffle_unit,
                )
        else:
            branches[plan.branches[0].name] = self._collect(raw)
        return QueryResult(
            branches=branches,
            metrics=self.cluster.metrics.summary(),
            report=plan.report,
        )

    def _collect(self, value: Any) -> list[Any]:
        if isinstance(value, Dataset):
            return value.collect()
        return [value]

    # ------------------------------------------------------------------ #
    def _query_functions(self, plan: _Plan) -> dict[str, Any]:
        """Per-query builtins: blocking keys, record similarity, helpers."""
        from ..cleaning.kmeans import assign_to_centers
        from ..cleaning.similarity import record_matcher
        from ..cleaning.tokenize import qgrams

        kmeans_centers = self._kmeans_centers(plan)

        def block_keys(kind: str, term: Any) -> list[Any]:
            text = str(term)
            if kind == "token_filtering":
                return list(set(qgrams(text, self.q)) or {""})
            if kind == "kmeans":
                return assign_to_centers(text, kmeans_centers, "LD", self.delta)
            if kind == "length_filtering":
                return [len(text) // 2]
            if kind in ("exact", "key"):
                return [text]
            raise PlanningError(f"unknown blocking op {kind!r}")

        dictionary_terms = self._dictionary_terms(plan)
        # One matcher per (metric, theta, attrs) for the query's lifetime:
        # its join is built and each row prepared once, not once per pair.
        matchers: dict[tuple, Any] = {}

        def similar_records(metric: str, a: dict, b: dict, theta: float, attrs: Any) -> bool:
            key = (metric, theta, tuple(attrs))
            match = matchers.get(key)
            if match is None:
                match = matchers[key] = record_matcher(
                    key[2], metric, theta, banded=self.sim_filters
                )
            return match(a, b)

        return {
            "block_keys": block_keys,
            "in_dictionary": lambda term: str(term) in dictionary_terms,
            "rid_less": lambda a, b: _rid(a) < _rid(b),
            "similar_records": similar_records,
            "pair": lambda a, b: (a, b),
            "freeze": _freeze_value,
            "nth": _nth_key,
            "agg": _aggregate,
            "concat_terms": lambda *parts: " ".join(str(p) for p in parts),
        }

    def _dictionary_terms(self, plan: _Plan) -> set[str]:
        """The dictionary contents, broadcast for exact-match short-circuit."""
        for branch in plan.branches:
            if branch.kind == "cluster_by":
                rows = self._tables.get(branch.params["dictionary"], [])
                return {str(r) for r in rows}
        return set()

    def _kmeans_centers(self, plan: _Plan) -> list[str]:
        """Centers for k-means blocking: sampled from the dictionary table
        when the query has one, otherwise from the primary table's terms."""
        from ..cleaning.kmeans import reservoir_sample

        for branch in plan.branches:
            if branch.kind == "cluster_by" and branch.params.get("op") == "kmeans":
                dictionary = self._tables.get(branch.params["dictionary"], [])
                terms = [str(x) for x in dictionary]
                return reservoir_sample(terms, self.k, seed=self.seed) or [""]
        primary = plan.query.primary_table.name
        rows = self._tables.get(primary, [])[: self.k * 20]
        terms = [str(next(iter(r.values()), "")) if isinstance(r, dict) else str(r) for r in rows]
        return reservoir_sample(terms, self.k, seed=self.seed) or [""]


def _rid(record: Any) -> Any:
    if isinstance(record, dict) and "_rid" in record:
        return record["_rid"]
    return id(record)


def _freeze_value(value: Any) -> Any:
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze_value(v)) for k, v in value.items()))
    if isinstance(value, (list, set, frozenset)):
        return tuple(_freeze_value(v) for v in value)
    return value


def _nth_key(key: Any, index: int) -> Any:
    """Project one component of a frozen composite grouping key."""
    if isinstance(key, tuple):
        component = key[index]
        # Frozen RecordCons keys are (name, value) pairs.
        if isinstance(component, tuple) and len(component) == 2 and isinstance(component[0], str):
            return component[1]
        return component
    return key


def _aggregate(kind: str, partition: Any, attr: str | None) -> Any:
    values = [
        (record.get(attr) if isinstance(record, dict) and attr else record)
        for record in partition
    ]
    if kind == "count":
        return len(values)
    if kind == "distinct_count":
        return len({_freeze_value(v) for v in values})
    numbers = [v for v in values if isinstance(v, (int, float))]
    if kind == "sum":
        return sum(numbers)
    if kind == "avg":
        return sum(numbers) / len(numbers) if numbers else None
    if kind == "min":
        return min(numbers) if numbers else None
    if kind == "max":
        return max(numbers) if numbers else None
    raise PlanningError(f"unknown aggregate {kind!r}")
