"""Cost model and execution metrics for the simulated scale-out engine.

The paper evaluates CleanDB on a 10-node Spark cluster; the wins it reports
come from *plan shape*: how much data is shuffled, whether aggregation is
pre-combined locally, and how evenly theta-join work is spread across nodes.
This module provides a deterministic cost model that captures exactly those
effects so the paper's who-wins/crossover shapes reproduce on one machine.

Simulated time is accumulated per operation::

    op_time = max over nodes(work assigned to that node) + shuffle_cost

so a skewed partition (one node doing most of the work) dominates the clock,
just as a straggler node would on a real cluster.
"""

from __future__ import annotations

from typing import Any

from .._records import Record, field

#: Rows per column batch: the vectorized backend's dispatch granularity.
#: Cost accounting only — one ``CostModel.batch_unit`` is charged per batch.
BATCH_SIZE = 1024


class CostModel(Record, frozen=True):
    """Unit costs for the simulated cluster.

    The default constants encode the relative costs §6 and §8.3 of the paper
    describe, not absolute hardware numbers:

    * moving a record across the network is much more expensive than touching
      it locally (``shuffle_unit`` vs ``record_unit``);
    * Spark's sort-based shuffle is cheaper than a hash-based shuffle, which
      stresses memory and causes random I/O (``sort_shuffle_factor`` <
      ``hash_shuffle_factor``) — this is why Spark SQL beats BigDansing on
      functional-dependency checks in Fig. 6;
    * a string-similarity check costs work proportional to the string
      lengths (``compare_unit`` per character).
    """

    record_unit: float = 1.0
    shuffle_unit: float = 4.0
    sort_shuffle_factor: float = 1.0
    hash_shuffle_factor: float = 2.5
    # Sort-based shuffles additionally pay an n·log n CPU term for the sort
    # itself; local pre-aggregation (aggregateByKey) avoids it, which is a
    # large part of CleanDB's Fig. 6 advantage over Spark SQL.
    sort_cpu_unit: float = 0.25
    # Pre-aggregated combiners are heavier objects than raw records (key +
    # partial aggregate state), so moving one costs more than moving one raw
    # record.  When keys are nearly unique (no combining possible) this makes
    # aggregateByKey slightly *worse* than a plain sort shuffle — which is
    # why Spark SQL wins the small, uniform DBLP case in Fig. 7 before losing
    # at scale when values repeat.
    combiner_shuffle_factor: float = 1.6
    compare_unit: float = 0.05
    # A candidate pair rejected by the similarity kernel's length/count
    # filters costs a constant unit (bound arithmetic + a q-gram merge),
    # far below the char-proportional ``compare_unit`` the metric charges.
    filter_unit: float = 0.01
    # Cost of opening/scanning one input record from each storage format.
    # Binary columnar formats are cheaper to decode than text (Fig. 6b).
    scan_csv_unit: float = 1.0
    scan_json_unit: float = 1.2
    scan_xml_unit: float = 1.5
    scan_columnar_unit: float = 0.35
    # Vectorized (column-batch) execution: operators dispatch once per batch
    # instead of once per record, so the per-row CPU cost drops to a fraction
    # of ``record_unit`` while each batch pays a fixed dispatch overhead.
    # The ratio models what HoloClean/BigDansing-style systems gain from
    # batched violation detection: tight loops over typed column arrays
    # instead of per-row dictionary environments.
    vector_record_unit: float = 0.25
    batch_unit: float = 8.0
    # Shuffles of column blocks serialize compact typed buffers instead of
    # per-record objects (the Arrow-exchange effect), so each moved row is
    # cheaper than in a row shuffle; the data *volume* moved is unchanged.
    vector_shuffle_factor: float = 0.6

    def scan_unit(self, fmt: str) -> float:
        """Per-record scan cost for a named storage format."""
        units = {
            "csv": self.scan_csv_unit,
            "json": self.scan_json_unit,
            "xml": self.scan_xml_unit,
            "columnar": self.scan_columnar_unit,
            "memory": 0.0,
        }
        try:
            return units[fmt]
        except KeyError:
            raise ValueError(f"unknown storage format: {fmt!r}") from None

    def batch_shuffle_cost(self, moved: int, kind: str = "local") -> float:
        """Cost of a *vectorized* shuffle moving ``moved`` rows/combiners.

        Same routing factors as the row shuffles, discounted by
        ``vector_shuffle_factor`` for the compact column-block encoding.
        Every vectorized operator prices its shuffles through this one
        method so the backends' accounting cannot drift apart.
        """
        factors = {
            "local": self.combiner_shuffle_factor,
            "hash": self.hash_shuffle_factor,
            "sort": self.sort_shuffle_factor,
        }
        try:
            factor = factors[kind]
        except KeyError:
            raise ValueError(f"unknown shuffle kind: {kind!r}") from None
        return moved * self.shuffle_unit * factor * self.vector_shuffle_factor


class OpMetrics(Record):
    """Metrics for one engine operation (one simulated stage).

    ``batches`` is non-zero only for vectorized stages; it counts the column
    batches the stage dispatched over (0 means a row-at-a-time stage).
    ``wall_seconds``, ``bytes_shipped``, and ``ship_count`` are non-zero only
    for stages that ran on the real worker pool (``execution="parallel"``):
    the *measured* time the stage spent in multi-process dispatch and the
    transport volume it moved across the process boundary (pickled task
    args, pinned partitions, routed exchange blobs, and result payloads —
    both directions).  All three report alongside — never mixed into — the
    simulated cost.
    """

    name: str
    per_node_work: list[float]
    shuffled_records: int = 0
    shuffle_cost: float = 0.0
    batches: int = 0
    wall_seconds: float = 0.0
    bytes_shipped: int = 0
    ship_count: int = 0
    # Rows carried by a delta patch (``append_rows``/``update_rows``): the
    # incremental counterpart of ``shuffled_records`` — only the delta
    # crosses the process boundary, never the table.
    rows_delta: int = 0
    # Task re-dispatches this stage needed after losing a worker (death,
    # hang, or corrupt reply).  0 on every healthy run; non-zero marks a
    # stage that transparently recovered.
    retries: int = 0

    @property
    def max_node_work(self) -> float:
        return max(self.per_node_work, default=0.0)

    @property
    def total_work(self) -> float:
        return sum(self.per_node_work)

    @property
    def simulated_time(self) -> float:
        return self.max_node_work + self.shuffle_cost

    @property
    def balance(self) -> float:
        """Load balance in (0, 1]: mean node work / max node work.

        1.0 means perfectly even; small values mean one node is a straggler.
        """
        if not self.per_node_work or self.max_node_work == 0:
            return 1.0
        mean = self.total_work / len(self.per_node_work)
        return mean / self.max_node_work


#: The ``OpMetrics`` counters a collector reports as sums over its ops.
_SUMMED = (
    "shuffled_records", "total_work", "batches", "wall_seconds", "bytes_shipped",
    "ship_count", "rows_delta", "retries",
)


class MetricsCollector(Record):
    """Accumulates per-operation metrics for a whole query execution."""

    ops: list[OpMetrics] = field(default_factory=list)
    # Candidate pairs considered by pairwise operators: the blocking output
    # for similarity joins, the logical pair universe (filtered left × full
    # right) for denial-constraint checks.
    comparisons: int = 0
    # Pairs that actually ran the expensive step — the similarity metric
    # after the simjoin kernel's filters, or the predicate conjunction after
    # the DC kernel's equality-prefix/band pruning.  ``verified <=
    # comparisons`` always, and their ratio is the observable pruning ratio
    # the Fig. 8 and DC scale-out benchmarks report (the all-pairs theta
    # strategies charge verified == comparisons: nothing pruned).
    verified: int = 0
    # Running left-to-right totals — what ``sum`` over ``ops`` gives, bit
    # for bit — of ``op.simulated_time``, of the ``_SUMMED`` counters and of
    # the ``degraded:`` ops: the budget check reads the first after every
    # operation and ``summary()`` all of them after every query, so neither
    # may cost a pass over ``ops`` (a session would slow down with its age).
    _simulated_time: float = field(default=0.0, init=False, repr=False)
    _sums: dict[str, Any] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._sums = dict.fromkeys((*_SUMMED, "degraded_ops"), 0)
        for op in self.ops:
            self._add(op)

    def record(self, op: OpMetrics) -> None:
        self.ops.append(op)
        self._add(op)

    def _add(self, op: OpMetrics) -> None:
        self._simulated_time += op.simulated_time
        sums = self._sums
        for counter in _SUMMED:
            sums[counter] += getattr(op, counter)
        sums["degraded_ops"] += op.name.startswith("degraded:")

    @property
    def simulated_time(self) -> float:
        return self._simulated_time

    @property
    def shuffled_records(self) -> int:
        return self._sums["shuffled_records"]

    @property
    def total_work(self) -> float:
        return self._sums["total_work"]

    @property
    def batches_processed(self) -> int:
        """Column batches dispatched by vectorized stages (0 on row plans)."""
        return self._sums["batches"]

    @property
    def measured_time(self) -> float:
        """Real wall-clock seconds spent in worker-pool dispatch (0.0 on
        simulated-only plans).  The measured counterpart of
        :attr:`simulated_time` — the two are reported side by side, never
        summed."""
        return self._sums["wall_seconds"]

    @property
    def bytes_shipped(self) -> int:
        """Real bytes moved across the worker-process boundary (0 on
        simulated-only plans).  Handle-based stages ship handles and final
        results; ship-per-task execution ships whole partitions — the gap
        between the two is the pinned-store win the fig5 bench reports."""
        return self._sums["bytes_shipped"]

    @property
    def ship_count(self) -> int:
        """Payloads moved across the worker-process boundary (tasks, pins,
        broadcasts, exchange blobs, and result payloads)."""
        return self._sums["ship_count"]

    @property
    def rows_delta(self) -> int:
        """Rows carried by delta patches (``append_rows``/``update_rows``) —
        the mutation-path counterpart of :attr:`shuffled_records`."""
        return self._sums["rows_delta"]

    @property
    def retries(self) -> int:
        """Task re-dispatches after worker loss, summed over all ops — the
        serving layer flags any query window with ``retries > 0`` as
        *recovered* (it healed transparently)."""
        return self._sums["retries"]

    @property
    def degraded_ops(self) -> int:
        """Stages that fell back from the parallel backend to the row path
        after recovery failed (recorded under a ``degraded:`` name where
        the fallback is taken) — the last rung of the degradation ladder."""
        return self._sums["degraded_ops"]

    def phase_time(self, name_prefix: str) -> float:
        """Simulated time of all ops whose name starts with ``name_prefix``.

        Used by the Fig. 3 bench to split term validation into its grouping
        and similarity phases.
        """
        return sum(
            op.simulated_time for op in self.ops if op.name.startswith(name_prefix)
        )

    @property
    def pruning_ratio(self) -> float:
        """Fraction of candidate pairs that reached the metric (1.0 when no
        similarity operator ran, or when pruning removed nothing)."""
        if self.comparisons == 0:
            return 1.0
        return self.verified / self.comparisons

    def reset(self) -> None:
        self.ops.clear()
        self._simulated_time = 0.0
        self._sums = dict.fromkeys(self._sums, 0)
        self.comparisons = 0
        self.verified = 0

    def snapshot(self) -> tuple[int, int, int]:
        """A position marker ``(ops, comparisons, verified)`` for
        :meth:`summary_since` — how far the collector has advanced.

        A tenant session's collector accumulates across every query it
        runs; the serving layer brackets each query with a snapshot so the
        per-query outcome reports only that query's cost.
        """
        return (len(self.ops), self.comparisons, self.verified)

    def summary_since(self, snapshot: tuple[int, int, int]) -> dict[str, float]:
        """:meth:`summary` restricted to what was recorded after
        ``snapshot`` was taken."""
        num_ops, comparisons, verified = snapshot
        window = MetricsCollector(
            ops=list(self.ops[num_ops:]),
            comparisons=self.comparisons - comparisons,
            verified=self.verified - verified,
        )
        return window.summary()

    def summary(self) -> dict[str, float]:
        """A compact dictionary summary, convenient for reports and tests."""
        return {
            "simulated_time": self.simulated_time,
            "measured_time": self.measured_time,
            "shuffled_records": float(self.shuffled_records),
            "total_work": self.total_work,
            "comparisons": float(self.comparisons),
            "verified": float(self.verified),
            "pruning_ratio": self.pruning_ratio,
            "num_ops": float(len(self.ops)),
            "batches": float(self.batches_processed),
            "bytes_shipped": float(self.bytes_shipped),
            "ship_count": float(self.ship_count),
            "rows_delta": float(self.rows_delta),
            "retries": float(self.retries),
            "degraded_ops": float(self.degraded_ops),
        }
