"""The simulated cluster: nodes, cost accounting, and execution budget.

A :class:`Cluster` stands in for the paper's 10-node Spark deployment.  It
owns the cost model and the metrics collector, enforces a simulated-cost
budget (so that plans which would "not terminate" in the paper raise
:class:`~repro.errors.BudgetExceededError` here), and creates
:class:`~repro.engine.dataset.Dataset` instances.
"""

from __future__ import annotations

import math
import warnings
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from ..errors import BudgetExceededError
from .metrics import BATCH_SIZE, CostModel, MetricsCollector, OpMetrics
from .partitioner import round_robin_split

if TYPE_CHECKING:
    from .parallel import WorkerPool


class Cluster:
    """A simulated scale-out cluster.

    Parameters
    ----------
    num_nodes:
        Number of worker nodes.  Partitions are assigned to nodes round-robin
        (partition ``i`` runs on node ``i % num_nodes``).
    cost_model:
        Unit costs; defaults model the relative costs the paper describes.
    budget:
        Maximum simulated cost a single cluster may spend.  ``math.inf``
        disables the check.  Exceeding it raises
        :class:`~repro.errors.BudgetExceededError`, modelling the paper's
        "system fails to terminate" outcomes.
    workers:
        Real worker *processes* for ``execution="parallel"`` stages.  ``None``
        (the default) keeps the cluster purely simulated until a pool is
        requested, at which point :data:`~repro.engine.parallel.
        DEFAULT_WORKERS` applies.  A value above ``num_nodes`` is clamped
        with a warning — a pool larger than the simulated cluster would
        give measured numbers the cost model cannot explain.
    pool:
        An externally owned :class:`WorkerPool` to attach instead of
        creating one lazily.  The serving layer hands every tenant's
        cluster the same shared pool this way; a shared pool is *not*
        terminated by :meth:`shutdown` — its owner decides its lifetime.
    """

    def __init__(
        self,
        num_nodes: int = 10,
        cost_model: CostModel | None = None,
        budget: float = math.inf,
        workers: int | None = None,
        pool: WorkerPool | None = None,
    ):
        if num_nodes <= 0:
            raise ValueError("num_nodes must be positive")
        if pool is not None and workers is not None:
            raise ValueError("pass workers= or pool=, not both")
        if workers is not None:
            if workers < 1:
                raise ValueError("workers must be positive")
            if workers > num_nodes:
                warnings.warn(
                    f"workers={workers} exceeds num_nodes={num_nodes}; "
                    f"clamping the worker pool to {num_nodes}",
                    stacklevel=2,
                )
                workers = num_nodes
        self.num_nodes = num_nodes
        self.cost_model = cost_model or CostModel()
        self.budget = budget
        self.workers = workers
        self.metrics = MetricsCollector()
        self._pool: WorkerPool | None = pool
        self._owns_pool = pool is None

    # ------------------------------------------------------------------ #
    # Worker pool lifecycle
    # ------------------------------------------------------------------ #
    @property
    def has_pool(self) -> bool:
        """Whether a live worker pool is currently attached."""
        return self._pool is not None and not self._pool.closed

    @property
    def pool(self) -> WorkerPool:
        """The cluster's worker pool: the shared one it was built with, or
        an owned pool created lazily on first access.

        An owned pool's size is ``workers`` (already clamped to
        ``num_nodes``) or the module default when the cluster was built
        without an explicit count.
        """
        if not self._owns_pool:
            if self._pool is None or self._pool.closed:
                raise RuntimeError("the cluster's shared worker pool is closed")
            return self._pool
        if self._pool is None or self._pool.closed:
            # Imported where a pool is built: a simulated-only cluster never pays.
            from .parallel import DEFAULT_WORKERS, WorkerPool

            size = self.workers or min(DEFAULT_WORKERS, self.num_nodes)
            self._pool = WorkerPool(size)
        return self._pool

    def shutdown(self) -> None:
        """Release the worker pool.  Idempotent; the cluster remains usable
        for simulated-only execution afterwards.  An *owned* pool is
        terminated; a shared pool is merely detached — the serving layer
        that handed it out owns its lifetime."""
        if self._pool is not None:
            if self._owns_pool:
                self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "Cluster":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()

    def _check_budget(self, name: str) -> None:
        spent = self.metrics.simulated_time
        if spent > self.budget:
            # Query-scoped abort: raise without touching the pool.  The
            # aborting stage's try/finally blocks discard its own
            # intermediates, while pinned tables, derived caches, and any
            # other tenant's state on a shared pool stay resident.  Pool
            # processes are released by the owner's close()/shutdown()
            # (e.g. CleanDB.close(), System._run's finally).
            raise BudgetExceededError(
                f"simulated cost {spent:.0f} exceeded budget {self.budget:.0f} "
                f"during {name!r}",
                spent=spent,
                budget=self.budget,
            )

    # ------------------------------------------------------------------ #
    # Accounting
    # ------------------------------------------------------------------ #
    def record_op(
        self,
        name: str,
        per_node_work: Sequence[float],
        shuffled_records: int = 0,
        shuffle_cost: float = 0.0,
        wall_seconds: float = 0.0,
        bytes_shipped: int = 0,
        ship_count: int = 0,
        rows_delta: int = 0,
        retries: int = 0,
    ) -> OpMetrics:
        """Record one operation's metrics and charge its simulated time.

        ``wall_seconds`` / ``bytes_shipped`` / ``ship_count`` are the
        *measured* worker-pool time and transport volume for parallel
        stages (``rows_delta`` the rows a delta patch carried, ``retries``
        the task re-dispatches after a worker loss); they ride
        along in the metrics but never enter the simulated clock.  Raises
        :class:`BudgetExceededError` if the cumulative simulated time
        passes the budget.
        """
        op = OpMetrics(
            name=name,
            per_node_work=list(per_node_work),
            shuffled_records=shuffled_records,
            shuffle_cost=shuffle_cost,
            wall_seconds=wall_seconds,
            bytes_shipped=bytes_shipped,
            ship_count=ship_count,
            rows_delta=rows_delta,
            retries=retries,
        )
        self.metrics.record(op)
        self._check_budget(name)
        return op

    def record_batch_op(
        self,
        name: str,
        per_node_rows: Sequence[float],
        num_batches: int,
        shuffled_records: int = 0,
        shuffle_cost: float = 0.0,
        extra_unit: float = 0.0,
    ) -> OpMetrics:
        """Record one *vectorized* operation over column batches.

        Per-row CPU is charged at the vectorized rate
        (``cost_model.vector_record_unit`` plus ``extra_unit``, e.g. a
        per-format scan cost), and each batch pays the fixed dispatch
        overhead ``cost_model.batch_unit`` — the accounting counterpart of
        "one virtual call per batch instead of one per row".  Batch overhead
        is spread round-robin like partition placement.
        """
        unit = self.cost_model.vector_record_unit + extra_unit
        work = [rows * unit for rows in per_node_rows]
        if num_batches and work:
            overhead = self.cost_model.batch_unit
            for i in range(num_batches):
                work[i % len(work)] += overhead
        op = OpMetrics(
            name=name,
            per_node_work=work,
            shuffled_records=shuffled_records,
            shuffle_cost=shuffle_cost,
            batches=num_batches,
        )
        self.metrics.record(op)
        self._check_budget(name)
        return op

    def record_batch_stage(
        self,
        name: str,
        per_part_rows: Sequence[float],
        shuffled_records: int = 0,
        shuffle_cost: float = 0.0,
        extra_unit: float = 0.0,
    ) -> OpMetrics:
        """:meth:`record_batch_op` from *per-partition* row counts.

        Spreads the partitions over nodes round-robin and derives the batch
        count as ceil(rows / ``BATCH_SIZE``) per non-empty partition — the one
        formula every vectorized stage (query backend and cleaning fast
        paths alike) uses.
        """
        per_node = self.spread_over_nodes([float(r) for r in per_part_rows])
        num_batches = sum(-(-int(r) // BATCH_SIZE) for r in per_part_rows if r)
        return self.record_batch_op(
            name,
            per_node,
            num_batches,
            shuffled_records=shuffled_records,
            shuffle_cost=shuffle_cost,
            extra_unit=extra_unit,
        )

    def charge_comparisons(self, count: int) -> None:
        """Count candidate similarity/predicate comparisons (the pairs the
        blocking phase produced; reported by benchmarks)."""
        self.metrics.comparisons += count

    def charge_verified(self, count: int) -> None:
        """Count comparisons that survived candidate pruning and actually
        ran the metric; ``verified / comparisons`` is the pruning ratio."""
        self.metrics.verified += count

    def node_of(self, partition_index: int) -> int:
        """The node a partition is placed on."""
        return partition_index % self.num_nodes

    def spread_over_nodes(self, per_partition_work: Sequence[float]) -> list[float]:
        """Fold per-partition work into per-node work via round-robin placement."""
        work = [0.0] * self.num_nodes
        for i, units in enumerate(per_partition_work):
            work[self.node_of(i)] += units
        return work

    # ------------------------------------------------------------------ #
    # Dataset creation
    # ------------------------------------------------------------------ #
    @property
    def default_parallelism(self) -> int:
        return self.num_nodes

    def parallelize(
        self,
        data: Iterable[Any],
        num_partitions: int | None = None,
        fmt: str = "memory",
        name: str = "parallelize",
        chunking: str = "roundrobin",
    ):
        """Distribute an in-memory collection into a partitioned dataset.

        ``fmt`` names the storage format the data conceptually comes from; a
        per-record scan cost for that format is charged (Fig. 6b's CSV vs.
        Parquet gap comes from here).  ``chunking="contiguous"`` preserves
        input order within partitions (a file split into consecutive
        blocks); the default round-robin models an arbitrary placement.
        """
        from .dataset import Dataset

        items = list(data)
        parts = num_partitions or self.default_parallelism
        parts = max(1, min(parts, max(1, len(items))))
        if chunking == "contiguous":
            partitions: list[list[Any]] = [[] for _ in range(parts)]
            size = (len(items) + parts - 1) // parts or 1
            for i, item in enumerate(items):
                partitions[min(i // size, parts - 1)].append(item)
        elif chunking == "roundrobin":
            partitions = round_robin_split(items, parts)
        else:
            raise ValueError(f"unknown chunking {chunking!r}")
        scan_unit = self.cost_model.scan_unit(fmt)
        per_part = [len(p) * (self.cost_model.record_unit + scan_unit) for p in partitions]
        self.record_op(f"scan:{name}", self.spread_over_nodes(per_part))
        return Dataset(self, partitions, op=f"scan:{name}")

    def empty_dataset(self):
        from .dataset import Dataset

        return Dataset(self, [[]])
