"""The serving layer: concurrent multi-tenant queries on one shared pool.

``repro serve`` admits N in-flight cleaning queries from multiple logical
tenants against a single :class:`~repro.engine.parallel.WorkerPool`.  The
pieces, and where each guarantee comes from:

* **Sessions** — every tenant gets a :class:`TenantSession`: its own
  :class:`~repro.core.language.CleanDB` (own catalog, own metrics
  collector, own simulated-cost budget) constructed with
  ``namespace=<tenant>`` and ``pool=<the shared pool>``.  Tenant state is
  therefore isolated by construction; only the worker processes and their
  partition store are shared.
* **Scheduling** — each tenant's queries run in submission order on one
  thread of its own (session consistency: a tenant that mutates then
  queries sees its own write), so queries overlap only across tenants.
  The pool serializes *dispatch* with a FIFO ticket lock and collects
  replies concurrently, so tenants interleave at stage granularity.
* **Namespaces** — tenant ``t``'s table ``customer`` pins under
  ``t/table:customer@version``, so two tenants may register the same table
  name with different rows and never alias.
* **Budgets** — each session's cluster carries the tenant's cumulative
  simulated-cost budget.  A blow-up surfaces as a ``budget_exceeded``
  outcome for *that query only*: the query-scoped abort in
  ``Cluster._check_budget`` leaves the shared pool — and every other
  tenant's pins and derived caches — resident.
* **Store cap** — with ``store_bytes_cap`` set, an LRU governor unpins the
  least-recently-used *idle* tenant tables once the shared store's pinned
  bytes pass the cap.  Only a pool read pins, so the store grows only
  while a query runs, and the governor runs when one finishes.  Eviction
  is safe by design: an unpinned table re-pins under the same identity on
  its next pool read (``resident_input``), so the cap trades warm-start
  time for memory, never correctness.
* **Accounting** — the transport ledger is per thread
  (:mod:`~repro.engine.transport`), so the per-op ``bytes_shipped`` /
  ``wall_seconds`` a query reports are its own tenant's.
"""

from __future__ import annotations

import asyncio
import contextvars
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Sequence

from ..cleaning import ladder  # noqa: F401  (every driver, before the shared pool forks)
from ..core.language import CleanDB, load_backend
from ..engine.parallel import DEFAULT_WORKERS, WorkerPool
from ..errors import BudgetExceededError, ReproError

#: Query operations a spec's ``"op"`` key may name, with their required keys.
QUERY_OPS: dict[str, tuple[str, ...]] = {
    "fd": ("table", "lhs", "rhs"),
    "dedup": ("table", "attributes"),
    "dc": ("table", "rule"),
    "sql": ("text",),
}


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) of ``values``, linearly
    interpolated; 0.0 for an empty sequence."""
    if not values:
        return 0.0
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    frac = rank - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


@dataclass
class QueryOutcome:
    """One submitted query's result: rows, status, latency, and its own
    slice of the session's metrics.

    ``status`` is ``"ok"``, ``"budget_exceeded"`` (the tenant's cumulative
    simulated-cost budget ran out mid-query; the service and every other
    tenant keep running), or ``"error"`` (the query failed; ``error``
    carries ``TypeName: message``).  ``rows`` is the operation's normal
    return value — violation/duplicate pairs for fd/dedup/dc, the branch
    dict for sql — and ``None`` off the ok path.

    Two fault-tolerance flags ride on ok outcomes: ``recovered`` means the
    query's stages re-dispatched tasks after losing a worker (``retries``
    counts them) but still answered from the parallel backend;
    ``degraded`` means at least one stage fell all the way back to the row
    backend after the retry budget was spent.  Both answers are correct —
    the flags report what the resilience machinery had to do to get them.
    """

    tenant: str
    op: str
    spec: dict
    status: str
    rows: Any = None
    error: str = ""
    latency_seconds: float = 0.0
    metrics: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def retries(self) -> int:
        """Task re-dispatches this query needed after worker loss."""
        return int(self.metrics.get("retries", 0.0))

    @property
    def recovered(self) -> bool:
        """The query healed through retry/rebuild and still answered."""
        return self.retries > 0

    @property
    def degraded(self) -> bool:
        """At least one stage fell back to the row backend."""
        return self.metrics.get("degraded_ops", 0.0) > 0


@dataclass
class LoadReport:
    """Aggregate of one workload run: outcomes plus latency/throughput."""

    outcomes: list[QueryOutcome]
    elapsed_seconds: float

    @property
    def latencies(self) -> list[float]:
        return [o.latency_seconds for o in self.outcomes]

    @property
    def p50_seconds(self) -> float:
        return percentile(self.latencies, 50)

    @property
    def p99_seconds(self) -> float:
        return percentile(self.latencies, 99)

    @property
    def throughput_qps(self) -> float:
        if self.elapsed_seconds <= 0:
            return 0.0
        return len(self.outcomes) / self.elapsed_seconds

    @property
    def all_ok(self) -> bool:
        return all(o.ok for o in self.outcomes)

    @property
    def recovered_count(self) -> int:
        """Queries that lost a worker mid-flight and healed transparently."""
        return sum(1 for o in self.outcomes if o.recovered)

    @property
    def degraded_count(self) -> int:
        """Queries that fell back to the row backend for at least one stage."""
        return sum(1 for o in self.outcomes if o.degraded)

    @property
    def total_retries(self) -> int:
        """Task re-dispatches across the whole workload."""
        return sum(o.retries for o in self.outcomes)

    def summary(self) -> dict[str, float]:
        return {
            "queries": float(len(self.outcomes)),
            "ok": float(sum(1 for o in self.outcomes if o.ok)),
            "elapsed_seconds": self.elapsed_seconds,
            "throughput_qps": self.throughput_qps,
            "p50_seconds": self.p50_seconds,
            "p99_seconds": self.p99_seconds,
            "recovered": float(self.recovered_count),
            "degraded": float(self.degraded_count),
            "retries": float(self.total_retries),
        }


class TenantSession:
    """One tenant's handle on the service: a namespaced CleanDB over the
    shared pool, and the one thread that runs the tenant's queries in
    submission order (its executor's queue is the tenant's FIFO)."""

    def __init__(self, tenant: str, db: CleanDB):
        self.tenant = tenant
        self.db = db
        self.busy = threading.Lock()  # held by a running query; the governor unpins under it
        self.thread = ThreadPoolExecutor(1, thread_name_prefix=f"tenant-{tenant}")


class CleanService:
    """Cleaning-as-a-service: tenants share one worker pool, nothing else.

    Parameters
    ----------
    workers:
        Worker processes in the shared pool (default
        :data:`~repro.engine.parallel.DEFAULT_WORKERS`).
    num_nodes:
        Simulated cluster size each tenant session models.
    store_bytes_cap:
        Optional cap on the shared store's total pinned bytes.  When a
        query's table pins push past it, the least-recently-used tables of
        *idle* tenants are unpinned once the query finishes (they re-pin
        warm-identity on their next pool read).  ``None`` disables the
        governor.
    fault_plan:
        Optional :class:`~repro.engine.faults.FaultPlan` for the shared
        pool — chaos tests inject worker deaths/hangs here and assert the
        service heals; production leaves it ``None``.
    task_deadline:
        Per-task heartbeat deadline for the shared pool's hung-worker
        watchdog (seconds; ``None`` disables).
    """

    def __init__(
        self,
        workers: int | None = None,
        num_nodes: int = 10,
        store_bytes_cap: int | None = None,
        fault_plan: Any = None,
        task_deadline: float | None = None,
    ):
        # The shared pool forks before any session exists; see load_backend.
        load_backend("parallel")
        self.pool = WorkerPool(
            workers or DEFAULT_WORKERS,
            fault_plan=fault_plan,
            task_deadline=task_deadline,
        )
        self.num_nodes = num_nodes
        self.store_bytes_cap = store_bytes_cap
        self._sessions: dict[str, TenantSession] = {}
        # LRU over (tenant, table): least-recently-touched first.
        self._lru: OrderedDict[tuple[str, str], None] = OrderedDict()
        self._closed = False

    # ------------------------------------------------------------------ #
    # Sessions and catalog
    # ------------------------------------------------------------------ #
    def session(self, tenant: str, **overrides: Any) -> TenantSession:
        """The tenant's session, created on first use.

        ``overrides`` (e.g. ``budget=5_000``) apply only at creation —
        asking for an existing session with different settings is an
        error, not a silent reconfiguration.
        """
        if self._closed:
            raise RuntimeError("service is closed")
        if not tenant or "/" in tenant:
            raise ValueError(
                f"tenant name {tenant!r} must be non-empty and contain no '/'"
            )
        existing = self._sessions.get(tenant)
        if existing is not None:
            if overrides:
                raise ValueError(
                    f"session {tenant!r} already exists; settings are fixed "
                    f"at creation"
                )
            return existing
        db = CleanDB(
            num_nodes=self.num_nodes,
            execution="parallel",
            namespace=tenant,
            pool=self.pool,
            **overrides,
        )
        session = TenantSession(tenant, db)
        self._sessions[tenant] = session
        return session

    @property
    def tenants(self) -> list[str]:
        return list(self._sessions)

    def register_table(
        self, tenant: str, name: str, rows: Sequence[Any], fmt: str = "memory"
    ) -> None:
        """Register a table in one tenant's namespace; nothing ships until
        a query reads it through the pool."""
        session = self.session(tenant)
        session.db.register_table(name, rows, fmt=fmt)
        self._touch(tenant, name)

    # ------------------------------------------------------------------ #
    # Query admission
    # ------------------------------------------------------------------ #
    def submit(self, tenant: str, spec: dict) -> "asyncio.Task[QueryOutcome]":
        """Admit one query; returns a future resolving to its outcome.

        Must be called from a running event loop.  Queries from different
        tenants run concurrently; queries within one tenant run FIFO in
        submission order (session consistency).  Per-query failures —
        including budget exhaustion — resolve the future with a non-ok
        outcome rather than raising, so one tenant's abort never unwinds
        another's ``gather``.
        """
        return asyncio.get_running_loop().create_task(self._submit(tenant, spec))

    async def _submit(self, tenant: str, spec: dict) -> QueryOutcome:
        session = self.session(tenant)
        table = spec.get("table")
        if isinstance(table, str):
            self._touch(tenant, table)
        # In a copy of the submitter's context: its context variables (a
        # tracer's open span) reach the query on the tenant's thread.
        run = contextvars.copy_context().run
        try:
            return await asyncio.get_running_loop().run_in_executor(
                session.thread, run, self._execute, session, dict(spec)
            )
        finally:
            self._enforce_cap(protect=tenant)

    def _execute(self, session: TenantSession, spec: dict) -> QueryOutcome:
        """Run one query synchronously on its tenant's thread."""
        db = session.db
        snap = db.cluster.metrics.snapshot()
        op = str(spec.get("op", ""))
        status, rows, error = "ok", None, ""
        start = time.perf_counter()
        try:
            with session.busy:
                rows = self._dispatch(db, op, spec)
        except BudgetExceededError as exc:
            status, error = "budget_exceeded", str(exc)
        except (ReproError, ValueError, TypeError, KeyError, OSError) as exc:
            status, error = "error", f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - start
        return QueryOutcome(
            tenant=session.tenant,
            op=op or "?",
            spec=spec,
            status=status,
            rows=rows,
            error=error,
            latency_seconds=latency,
            metrics=db.cluster.metrics.summary_since(snap),
        )

    @staticmethod
    def _dispatch(db: CleanDB, op: str, spec: dict) -> Any:
        if op not in QUERY_OPS:
            known = ", ".join(sorted(QUERY_OPS))
            raise ValueError(f"unknown query op {op!r}; expected one of: {known}")
        missing = [key for key in QUERY_OPS[op] if key not in spec]
        if missing:
            raise ValueError(
                f"{op} query spec is missing key(s): {', '.join(missing)}"
            )
        if op == "fd":
            return db.check_fd(
                spec["table"],
                list(spec["lhs"]),
                list(spec["rhs"]),
                keep_records=bool(spec.get("keep_records", True)),
            )
        if op == "dedup":
            return db.deduplicate(
                spec["table"],
                list(spec["attributes"]),
                metric=spec.get("metric", "LD"),
                theta=float(spec.get("theta", 0.8)),
                block_on=spec.get("block_on"),
            )
        if op == "dc":
            return db.check_dc(
                spec["table"], spec["rule"], strategy=spec.get("strategy"),
                where=spec.get("where", ""),
            )
        result = db.execute(spec["text"])
        return result.branches

    # ------------------------------------------------------------------ #
    # Workload driving
    # ------------------------------------------------------------------ #
    async def run_load(
        self, requests: Sequence[dict], sequential: bool = False
    ) -> LoadReport:
        """Run a workload — dicts each holding ``"tenant"`` plus a query
        spec — and aggregate latency/throughput.

        ``sequential=True`` awaits each query before admitting the next
        (the serial baseline the benchmark compares against); the default
        admits everything up front and gathers.
        """
        prepared = []
        for request in requests:
            request = dict(request)
            tenant = request.pop("tenant", None)
            if not isinstance(tenant, str) or not tenant:
                raise ValueError("each workload request needs a 'tenant' key")
            prepared.append((tenant, request))
        start = time.perf_counter()
        if sequential:
            outcomes = [await self._submit(t, spec) for t, spec in prepared]
        else:
            outcomes = list(
                await asyncio.gather(
                    *(self.submit(t, spec) for t, spec in prepared)
                )
            )
        return LoadReport(outcomes, time.perf_counter() - start)

    def run_queries(
        self, requests: Sequence[dict], sequential: bool = False
    ) -> LoadReport:
        """Synchronous wrapper around :meth:`run_load` (CLI / benchmarks)."""
        return asyncio.run(self.run_load(requests, sequential=sequential))

    # ------------------------------------------------------------------ #
    # Store-memory governor
    # ------------------------------------------------------------------ #
    def _touch(self, tenant: str, table: str) -> None:
        key = (tenant, table)
        self._lru.pop(key, None)
        self._lru[key] = None

    def pinned_bytes(self) -> int:
        """Total pinned bytes the governor sees across all tenants."""
        return sum(
            session.db.pinned_table_bytes(table)
            for (tenant, table) in self._lru
            for session in (self._sessions.get(tenant),)
            if session is not None
        )

    def _enforce_cap(self, protect: str | None = None) -> None:
        """Unpin LRU tables of idle tenants until under ``store_bytes_cap``.

        Runs when a query finishes, since only a query's pool reads grow the
        store.  ``protect`` names that query's tenant — the tables it just
        read are never the ones evicted to make room for them.  Busy
        sessions are skipped too: their query may be mid-stage on those
        very handles; holding ``busy`` while unpinning keeps the next one
        from starting until the unpin is done.  Evicted tables re-pin under
        the same identity on next use, so this only ever costs a warm start.
        """
        cap = self.store_bytes_cap
        if cap is None:
            return
        for key in list(self._lru):
            if self.pinned_bytes() <= cap:
                return
            tenant, table = key
            session = self._sessions.get(tenant)
            if session is None:
                self._lru.pop(key, None)
                continue
            if tenant == protect or not session.busy.acquire(blocking=False):
                continue
            try:
                session.db.tables.unpin(table)
            finally:
                session.busy.release()

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Close every session, joining its thread, and terminate the shared
        pool.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        for session in self._sessions.values():
            session.thread.shutdown(cancel_futures=True)
            # The pool dies with the service; skip per-tenant evictions.
            session.db.cluster.shutdown()
        self._sessions.clear()
        self._lru.clear()
        self.pool.shutdown()

    def __enter__(self) -> "CleanService":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else "open"
        return (
            f"<CleanService tenants={len(self._sessions)} "
            f"workers={self.pool.workers} {state}>"
        )
