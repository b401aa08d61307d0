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
from functools import partial
from typing import Any, Callable, Sequence

from ..algebra.operators import AlgebraOp, SharedScanDAG
from ..algebra.rewrite import RewriteReport, optimize_branches
from ..algebra.translate import Translator
from ..engine.cluster import Cluster
from ..engine.dataset import Dataset
from ..engine.gcpause import collector_paused
from ..engine.metrics import CostModel
from ..errors import ParseError, PlanningError
from ..monoid.comprehension import Comprehension
from ..monoid.normalize import NormalizationTrace, normalize
from ..physical.functions import query_functions
from ..physical.lower import EXECUTION_BACKENDS, Executor, PhysicalConfig
from .ast_nodes import Query
from .parser import parse
from .rewriter import Branch, rewrite_query
from .semantics import (
    Diagnostic,
    DiagnosticsError,
    analyze_columns,
    analyze_dc,
    analyze_dedup,
    analyze_query,
    errors_in,
    parse_error_diagnostic,
)
from .tables import TableStore
from .verify import verify_handles, verify_plan


def load_backend(execution: str, incremental: bool = False) -> None:
    """Constructor arguments decide the import set: a row session never
    loads the pool, the vectorized executor or the delta states; the others
    load theirs here, before the worker pool forks, so that workers inherit
    every module a task can name and no first use pays an import."""
    if execution == "parallel":
        from ..cleaning import ladder  # noqa: F401  (with every cleaning driver)
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

    A facade: the tables (rows, versions, worker pins, delta shipping,
    incremental states) live in :attr:`tables`, a :class:`~repro.core.
    tables.TableStore`; this class routes cleaning checks to the configured
    backend (:meth:`_run_check`) and compiles and executes queries.

    Parameters
    ----------
    num_nodes / budget / cost_model:
        Cluster shape (see :class:`~repro.engine.cluster.Cluster`).
    config:
        Physical strategy knobs; defaults to the CleanDB strategies
        (local pre-aggregation, matrix theta join).
    execution:
        Physical backend: ``"row"`` (per-row environments),
        ``"vectorized"`` (column batches with selection vectors), or
        ``"parallel"`` (real multi-process execution over a worker pool).
        Supported subplans run on the chosen backend, the rest falls back
        to the row path.  Shorthand for
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
        theta-derived distance budget.  Results are identical either way —
        the toggle exists so benchmarks can measure the filters' effect.
    dc_strategy:
        Default strategy for :meth:`check_dc` / :meth:`repair_dc`:
        ``"banded"`` (the planned DC kernel, on whichever ``execution``
        backend is configured), ``"matrix"``, ``"cartesian"``, or
        ``"minmax"``.  The violation set is identical across strategies.
    incremental:
        Maintain cleaning results under :meth:`append_rows` /
        :meth:`update_rows` deltas instead of re-running each check from
        scratch.  Results are byte-identical to a cold re-run on the
        post-delta table; checks and tables outside the incremental
        states' parity guarantees transparently take the cold path.
    q / k / delta:
        Blocking parameters: q-gram length for token filtering, number of
        centers and assignment slack for k-means.
    namespace:
        Tenant prefix for this instance's pins in the worker store
        (``<namespace>/table:<name>``), so instances sharing one ``pool``
        can each register a table called ``"customer"`` without colliding.
    pool:
        An externally owned shared :class:`~repro.engine.parallel.
        WorkerPool` to run parallel stages on, instead of a private lazy
        one.  :meth:`close` detaches without terminating it, evicting this
        instance's pins so a departed tenant leaks no store memory.
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
        load_backend(self.config.execution, bool(incremental))
        self.q = q
        self.k = k
        self.delta = delta
        self.seed = seed
        self.tables = TableStore(
            self.cluster, namespace, self.config.execution == "parallel", bool(incremental)
        )

    # ------------------------------------------------------------------ #
    # Resource lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Release the worker pool (if ``execution="parallel"`` created one)
        and every derived entry (schema, rid index, DC index, maintained
        check states).  Idempotent; the instance remains usable — a later
        query re-creates either on demand.  On a *shared* pool this only
        detaches: this instance's pins are evicted (a departed tenant must
        not leak store memory) but the pool itself belongs to whoever
        created it."""
        self.tables.release()
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
        self.tables.register(name, records, fmt)

    def table(self, name: str) -> list[Any]:
        """The registered rows.  Every session works on a *snapshot* of
        them — worker pins and the entries of
        :meth:`~repro.core.tables.TableStore.derived` (DC index, schema,
        maintained check states) — taken at the table's version and row
        count: after mutating them in place, call :meth:`refresh_table`
        so checks and queries see the edits."""
        return self.tables.get(name)

    def refresh_table(self, name: str) -> None:
        """Re-snapshot a table after in-place edits to its rows.

        Bumps the table version, which drops everything derived from the
        old rows on every kind of session (the driver's derived state —
        maintained check states included — the pinned partitions and what
        the pool cached on them), and re-pins the current rows — the explicit
        coherence point for mutations that bypass :meth:`register_table` /
        :meth:`append_rows` / :meth:`update_rows` / :meth:`repair_dc`.
        """
        self.tables.refresh(name)

    def pinned_table_bytes(self, name: str) -> int:
        """Serialized bytes this table's pins hold in the worker store
        (0 when unpinned or outside the parallel backend)."""
        return self.tables.pinned_bytes(name)

    # ------------------------------------------------------------------ #
    # Delta mutations
    # ------------------------------------------------------------------ #
    def append_rows(self, name: str, rows: Sequence[Any]) -> None:
        """Append rows to a registered table, shipping only the delta.

        Bumps the table version like :meth:`refresh_table`, but instead of
        re-pinning the whole table, the pinned partitions are *patched* in
        the workers by one-way commands the call does not wait on: each
        touched partition is extended with its share of the new rows under
        the new version, untouched partitions are re-keyed without moving,
        and the old version is evicted (stale handles keep failing).  Dict
        rows without a ``_rid`` get one assigned from their global
        position, matching :meth:`register_table`.  Incremental check
        states absorb the new rows in place.  An empty delta is a no-op (no
        version bump).
        """
        self.tables.append(name, rows)

    def update_rows(self, name: str, rid_to_row: dict) -> None:
        """Replace rows addressed by ``_rid``, shipping only the delta.

        Each replacement must be a dict; it is stamped with the addressed
        ``_rid`` (a row's identity never changes through an update) and
        replaces the old row at **every** position bearing that rid.  An
        unknown rid or a non-dict replacement raises before any row
        changes.  Version, store (a one-way patch of the touched
        partitions), and incremental-state handling mirror
        :meth:`append_rows`; an empty mapping is a no-op.
        """
        self.tables.update(name, rid_to_row)

    # ------------------------------------------------------------------ #
    # Cleaning checks: one front door, then the backend ladder
    # ------------------------------------------------------------------ #
    def _admit(
        self, table: str, analyze: Callable[[Any], list[Diagnostic]], source: str = ""
    ) -> None:
        """The front door every cleaning check passes before a driver runs:
        ``analyze`` judges the call's arguments against ``table``'s inferred
        schema by the rules their query spelling gets (CM102, CM301–CM304),
        and an error raises :class:`~repro.core.semantics.DiagnosticsError`.
        An unregistered table is judged without a schema."""
        info = self.tables.info(table) if table in self.tables else None
        errors = errors_in(analyze(info))
        if errors:
            raise DiagnosticsError(errors, source=source)

    def _constraint(self, table: str, constraint: Any, where: str) -> Any:
        """The DC a check runs, admitted by :meth:`_admit`: rule text and
        its ``where`` filters as ``dc_kernel`` parses them, or a built
        :class:`~repro.cleaning.dc_kernel.DenialConstraint` as it is."""
        from ..cleaning.dc_kernel import parse_dc

        text = isinstance(constraint, str)
        if where and not text:
            raise ValueError("where= goes with rule text; a DenialConstraint has left_filters")
        self._admit(table, partial(analyze_dc, constraint, where), constraint if text else "")
        return parse_dc(constraint, where) if text else constraint

    @collector_paused()
    def _run_check(self, op: str, table: str, key: tuple, **params: Any) -> list[Any]:
        """Answer one cleaning check: from the maintained state of the
        check ``(op, *key)`` when this session keeps one (see
        :meth:`~repro.core.tables.TableStore.maintained`), else by the
        backend ladder (:func:`~repro.cleaning.ladder.run_check`), handed
        what only the facade knows — the table's name, format, pin and
        derived state."""
        from ..cleaning import ladder

        records = self.table(table)
        if ladder.has_fast_plan(op, params):
            out = self.tables.maintained(table, (op, *key))
            if out is not None:
                return out
        return ladder.run_check(
            self.cluster, op, records, self.config.execution,
            name=table,
            fmt=self.tables.formats.get(table, "memory"),
            pinned=self.tables.pinned_key(table),
            **params,
        ).collect()

    def check_dc(
        self, table: str, constraint: Any, strategy: str | None = None, where: str = ""
    ) -> list[tuple[dict, dict]]:
        """Find pairs in ``table`` violating a general denial constraint.

        ``constraint`` is a :class:`~repro.cleaning.denial.
        DenialConstraint` or rule text for
        :func:`~repro.cleaning.dc_kernel.parse_dc`, with ``where`` its
        single-tuple filters; a malformed clause, an unknown attribute, an
        ill-typed predicate or an unsatisfiable conjunction raises
        :class:`~repro.core.semantics.DiagnosticsError` (CM301–CM304) before
        anything runs.  The ``banded`` strategy runs on this instance's
        execution backend — at batch prices under ``execution="vectorized"``,
        on real worker processes under ``execution="parallel"`` — with an
        identical violation set either way.
        """
        constraint = self._constraint(table, constraint, where)
        return self._run_check(
            "dc", table, (constraint,), constraint=constraint, strategy=strategy or self.dc_strategy,
            derived=partial(self.tables.derived, table),
        )

    def check_fd(
        self,
        table: str,
        lhs: Sequence[Any],
        rhs: Sequence[Any],
        keep_records: bool = True,
    ) -> list[Any]:
        """Find ``table``'s functional-dependency violations (LHS → RHS).

        ``lhs`` / ``rhs`` are column names or record → value callables; a
        name the table lacks raises :class:`~repro.core.semantics.
        DiagnosticsError` (CM102), as ``FD(x.a, x.b)`` does in a query.
        Runs on this instance's execution backend — at batch prices under
        ``execution="vectorized"``, handle-based worker processes under
        ``execution="parallel"`` (referencing the eagerly pinned table) —
        with an identical violation set either way.
        """
        self._admit(table, partial(analyze_columns, table, [*lhs, *rhs]))
        return self._run_check(
            "fd", table, (tuple(lhs), tuple(rhs), bool(keep_records)),
            lhs=lhs, rhs=rhs, grouping=self.config.grouping, keep_records=keep_records,
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

        ``block_on`` is a column, a list of columns or a record → key
        callable (``None`` blocks on ``attributes``); a comparison
        attribute or block key the table lacks, a ``theta`` outside [0, 1]
        or an unknown ``metric`` raises :class:`~repro.core.semantics.
        DiagnosticsError` (CM102, CM202, CM203), as ``DEDUP(exact, <metric>,
        <theta>, x.a)`` does in a query.  Backend routing mirrors
        :meth:`check_fd`; the parallel backend references the pinned table
        by handle and ships only the final pairs back.
        """
        from ..cleaning.simjoin import NO_FILTERS

        filters = None if self.sim_filters else NO_FILTERS
        attributes = list(attributes)
        keys = block_on if isinstance(block_on, (list, tuple)) else [block_on]
        self._admit(table, partial(analyze_dedup, table, [*attributes, *keys], metric, theta))
        # A list of blocking attributes as a tuple: the check's key must hash.
        block_tag = tuple(block_on) if isinstance(block_on, list) else block_on
        return self._run_check(
            "dedup", table,
            (tuple(attributes), metric, theta, block_tag, filters),
            attributes=attributes, grouping=self.config.grouping, metric=metric,
            theta=theta, block_on=block_on, filters=filters,
            derived=partial(self.tables.derived, table),
        )

    def repair_dc(
        self,
        table: str,
        constraint: Any,
        strategy: str | None = None,
        max_rounds: int = 4,
        violations: list[tuple[dict, dict]] | None = None,
        where: str = "",
    ):
        """Detect and repair ``table``'s DC violations by relaxation.

        ``constraint`` and ``where`` are :meth:`check_dc`'s, analyzed the
        same way before anything runs or changes.  The repaired records
        replace the registered table (the detect → repair loop of the
        examples), and the :class:`~repro.cleaning.repair.DCRepairReport`
        is returned — ``report.clean`` is True when no residual violations
        remain.  Pass ``violations`` from an earlier :meth:`check_dc` call
        on the same table to skip re-detecting.
        """
        from ..cleaning.repair import repair_dc_by_relaxation

        constraint = self._constraint(table, constraint, where)
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
        # The mutation invalidates every handle to the old rows — a stale
        # handle can never serve pre-repair data.
        self.tables.replace(table, repaired)
        return report

    # ------------------------------------------------------------------ #
    # Compilation
    # ------------------------------------------------------------------ #
    def _analyze(
        self, query: Query, source: str
    ) -> tuple[list[Diagnostic], list[Branch] | None]:
        """The CM1xx–CM5xx semantic pass over one parsed query, and the
        query de-sugared — once: the legality walk reads the branches the
        plan lowers.  ``None`` branches: de-sugaring failed, which
        :meth:`compile` reports after any static error."""
        try:
            branches: list[Branch] | None = rewrite_query(query)
        except Exception:
            branches = None
        names = {t.name for t in query.tables}
        diags = analyze_query(
            query,
            self.tables.rows,
            execution=self.config.execution,
            infos={n: self.tables.info(n) for n in names if n in self.tables},
            source=source,
            branches=[] if branches is None else branches,
        )
        return diags, branches

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
        rule targets, resolved by :meth:`rule_table` (an unresolvable one is
        a CM101 diagnostic).
        """
        diags: list[Diagnostic] = []
        if sql is not None:
            try:
                query = parse(sql)
            except ParseError as exc:
                diags.append(parse_error_diagnostic(exc, source=sql))
            else:
                analyzed, branches = self._analyze(query, sql)
                diags.extend(analyzed)
                if not errors_in(diags) and branches is not None:
                    try:
                        self._lower(query, branches)
                    except DiagnosticsError as exc:
                        diags.extend(exc.diagnostics)
                    except Exception:
                        pass  # non-static planning failure; execute() reports it
        if rule is not None or on is not None:
            try:
                target = self.rule_table(on)
            except DiagnosticsError as exc:
                diags.extend(exc.diagnostics)
            else:
                if rule is not None:
                    info = self.tables.info(target) if target is not None else None
                    diags.extend(analyze_dc(rule, where, info))
        return diags

    def rule_table(self, on: str | None = None) -> str | None:
        """The table a DC rule targets: ``on``, else the only registered
        table (``None`` when none is).  An ``on`` naming no registered
        table, or no ``on`` while several are registered, raises
        :class:`~repro.core.semantics.DiagnosticsError` (CM101).  ``repro
        dc``, ``repro check`` and :meth:`check` resolve the rule's table
        here."""
        names = self.tables.names()
        if on is None and len(names) < 2:
            return names[0] if names else None
        if on in names:
            return on
        message = (
            "pass --on NAME (on= in the API) when registering more than one table"
            if on is None else f"the rule names unknown table {on!r}"
        )
        known = ", ".join(sorted(names)) or "(none)"
        raise DiagnosticsError([Diagnostic("CM101", "error", f"{message}; registered: {known}")])

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
        diags, branches = self._analyze(query, sql)
        errors = errors_in(diags)
        if errors:
            raise DiagnosticsError(errors, source=sql)
        if branches is None:
            branches = rewrite_query(query)  # raises what de-sugaring raised
        return self._lower(query, branches, source=sql)

    def _lower(
        self, query: Query, branches: list[Branch], source: str = ""
    ) -> _Plan:
        """Normalize and translate de-sugared branches, then verify the
        optimized plan's structural invariants (CM6xx)."""

        translator = Translator(set(self.tables.rows), self.tables.formats)
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
        invariants = verify_plan(dag, self.tables.rows, names)
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
    @collector_paused()
    def execute(self, sql: str) -> QueryResult:
        """Compile and run a CleanM query; collects every branch output."""
        plan = self.compile(sql)
        functions = query_functions(
            plan.branches, plan.query.primary_table.name, self.tables.rows,
            q=self.q, k=self.k, delta=self.delta, seed=self.seed,
            sim_filters=self.sim_filters,
        )
        pinned = self.tables.pinned_map()
        if pinned and self.cluster.has_pool:
            # Handle/version skew between driver and worker store is a
            # driver bug; fail with the CM502 diagnostic naming the skew
            # before dispatch rather than a StaleHandleError mid-flight.
            stale = verify_handles(self.cluster.pool, pinned)
            if stale:
                raise DiagnosticsError(stale, source=sql)
        executor = Executor(
            self.cluster,
            dict(self.tables.rows),
            config=self.config,
            functions=functions,
            pinned_tables=pinned,
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
