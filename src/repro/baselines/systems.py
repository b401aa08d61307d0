"""The three systems of §8: CleanDB and its two competitors.

Each system exposes the same operations (FD check, general DC check,
deduplication, term validation) but with the strategies the paper
attributes to it:

===============  ==================  ==================  ==================
Operation        CleanDB             Spark SQL           BigDansing
===============  ==================  ==================  ==================
Grouping         local pre-agg       sort-based shuffle  hash-based shuffle
                 (aggregateByKey)    of all records      of all records
Theta join       stats-aware matrix  cartesian + filter  min-max partition
                                                         pruning
Term validation  token filter /      cross product with  unsupported
                 k-means monoids     a similarity UDF
Dedup            any table           any table           customer-specific
                                                         UDF only
Computed FDs     yes (prefix(...))   yes                 unsupported
Coalescing       yes (§5)            no (outer join of   no (one job per
                                     standalone plans)   operation)
===============  ==================  ==================  ==================

Every operation runs on a fresh :class:`~repro.engine.cluster.Cluster` so
metrics and budgets are per-run; results come back as
:class:`~repro.evaluation.runner.RunResult`.
"""

from __future__ import annotations

import math
import time
from typing import Any, Callable, Sequence

from ..cleaning.denial import DenialConstraint
from ..cleaning.ladder import run_check
from ..cleaning.repair import repair_dc_by_relaxation
from ..cleaning.similarity import get_metric
from ..cleaning.simjoin import FilterConfig
from ..cleaning.term_validation import validate_terms
from ..engine.cluster import Cluster
from ..engine.metrics import CostModel
from ..errors import BudgetExceededError, UnsupportedOperationError
from ..evaluation.runner import RunResult
from ..physical.lower import EXECUTION_BACKENDS


class System:
    """Base: shared run harness with budget/unsupported handling.

    ``execution`` selects the cleaning drivers: ``"row"`` runs the
    ``Dataset`` operators, ``"vectorized"`` the same kernels at batch
    prices, and ``"parallel"`` the same kernels over a real multi-process
    worker pool (``workers`` processes, clamped to ``num_nodes``) — by the
    rule of :mod:`~repro.cleaning.ladder`, the one ``CleanDB`` follows, so
    a driver that could not heal degrades to the row driver here too.  Only
    CleanDB exercises the non-row backends in the benchmarks; the baselines
    model systems without them.
    """

    name = "system"
    grouping = "aggregate"
    theta = "matrix"
    # Denial-constraint strategy: the planned kernel ("banded") for CleanDB,
    # the paper-attributed theta strategies for the baselines.
    dc_strategy = "matrix"

    def __init__(
        self,
        num_nodes: int = 10,
        budget: float = math.inf,
        cost_model: CostModel | None = None,
        execution: str = "row",
        workers: int | None = None,
    ):
        if execution not in EXECUTION_BACKENDS:
            expected = ", ".join(repr(b) for b in EXECUTION_BACKENDS)
            raise ValueError(
                f"unknown execution backend {execution!r}; expected one of {expected}"
            )
        self.num_nodes = num_nodes
        self.budget = budget
        self.cost_model = cost_model or CostModel()
        self.execution = execution
        self.workers = workers

    def new_cluster(self) -> Cluster:
        return Cluster(
            num_nodes=self.num_nodes,
            cost_model=self.cost_model,
            budget=self.budget,
            workers=self.workers if self.execution == "parallel" else None,
        )

    def _run(self, action: Callable[[Cluster], Any]) -> RunResult:
        cluster = self.new_cluster()
        start = time.perf_counter()
        try:
            output = action(cluster)
            count = len(output) if isinstance(output, list) else int(output or 0)
            status = "ok"
        except BudgetExceededError:
            count = 0
            status = "budget_exceeded"
        except UnsupportedOperationError:
            count = 0
            status = "unsupported"
        finally:
            # Never leak worker processes, whatever the outcome.
            cluster.shutdown()
        wall = time.perf_counter() - start
        return RunResult(
            system=self.name,
            status=status,
            simulated_time=cluster.metrics.simulated_time,
            wall_seconds=wall,
            output_count=count,
            shuffled_records=cluster.metrics.shuffled_records,
            comparisons=cluster.metrics.comparisons,
            verified=cluster.metrics.verified,
            bytes_shipped=cluster.metrics.bytes_shipped,
            ship_count=cluster.metrics.ship_count,
            grouping_time=cluster.metrics.phase_time("grouping")
            + cluster.metrics.phase_time("nest")
            + cluster.metrics.phase_time("fd"),
            similarity_time=cluster.metrics.phase_time("similarity"),
        )

    # ------------------------------------------------------------------ #
    # Operations (overridden / restricted per system)
    # ------------------------------------------------------------------ #
    def check_fd(
        self,
        records: Sequence[dict],
        lhs: Sequence[Any],
        rhs: Sequence[Any],
        fmt: str = "memory",
    ) -> RunResult:
        return self._run(
            lambda cluster: run_check(
                cluster, "fd", records, self.execution, name="lineitem", fmt=fmt,
                lhs=lhs, rhs=rhs, grouping=self.grouping,
            ).collect()
        )

    def check_dc(
        self,
        records: Sequence[dict],
        constraint: DenialConstraint,
        fmt: str = "memory",
        strategy: str | None = None,
    ) -> RunResult:
        """General DC check with this system's strategy (overridable).

        The ``banded`` strategy additionally follows the system's
        execution backend — the same seam the FD check and dedup
        operations use.
        """
        return self._run(
            lambda cluster: run_check(
                cluster, "dc", records, self.execution, name="lineitem", fmt=fmt,
                constraint=constraint, strategy=strategy or self.dc_strategy,
            ).collect()
        )

    def repair_dc(
        self,
        records: Sequence[dict],
        constraint: DenialConstraint,
        fmt: str = "memory",
        strategy: str | None = None,
        max_rounds: int = 4,
    ) -> RunResult:
        """Detect violations on this system's backend, then repair them by
        relaxation.  The detection run's metrics are returned with the
        repair report attached under ``extra["repair"]``."""
        result = self.check_dc(records, constraint, fmt=fmt, strategy=strategy)
        if not result.ok:
            return result
        _, report = repair_dc_by_relaxation(
            records, constraint, max_rounds=max_rounds
        )
        result.extra["repair"] = {
            "violations_found": report.violations_found,
            "cover_size": report.cover_size,
            "cells_changed": report.cells_changed,
            "cells_nulled": report.cells_nulled,
            "rounds": report.rounds,
            "residual_violations": report.residual_violations,
        }
        return result

    def deduplicate(
        self,
        records: Sequence[dict],
        attributes: Sequence[str],
        block_on: Any = None,
        metric: str = "LD",
        theta: float = 0.8,
        fmt: str = "memory",
        filters: FilterConfig | None = None,
    ) -> RunResult:
        return self._run(
            lambda cluster: run_check(
                cluster, "dedup", records, self.execution, name="input", fmt=fmt,
                attributes=list(attributes), grouping=self.grouping, metric=metric,
                theta=theta, block_on=block_on, filters=filters,
            ).collect()
        )

    def validate_terms(
        self,
        terms: Sequence[str],
        dictionary: Sequence[str],
        op: str = "token_filtering",
        metric: str = "LD",
        theta: float = 0.8,
        q: int = 3,
        k: int = 10,
        delta: float = 0.05,
        fmt: str = "memory",
        filters: FilterConfig | None = None,
    ) -> RunResult:
        def action(cluster: Cluster) -> list:
            ds = cluster.parallelize(terms, fmt=fmt, name="terms")
            return validate_terms(
                ds,
                dictionary,
                op=op,
                metric=metric,
                theta=theta,
                q=q,
                k=k,
                delta=delta,
                filters=filters,
            ).collect()

        return self._run(action)


class CleanDBSystem(System):
    """CleanDB: the paper's system — every optimization on.

    CleanDB "spends more effort to obtain global data statistics" (§8.3) and
    runs a three-level optimizer before executing: every operation charges a
    statistics pass over the input plus a fixed planning cost.  On small,
    uniform inputs this overhead can make CleanDB *slower* than Spark SQL —
    which is exactly the Fig. 7 (5 GB) behaviour — while on larger or skewed
    inputs the skew-resilient plans win it back.
    """

    name = "CleanDB"
    grouping = "aggregate"
    theta = "matrix"
    # CleanDB's DC plan is the statistics-aware banded kernel: equality
    # prefix hash + most-selective-inequality range scan.
    dc_strategy = "banded"
    planning_cost = 2000.0

    def _run(self, action: Callable[[Cluster], Any]) -> RunResult:
        def with_stats(cluster: Cluster) -> Any:
            per_node = [self.planning_cost / cluster.num_nodes] * cluster.num_nodes
            cluster.record_op("optimizer:stats", per_node)
            return action(cluster)

        return super()._run(with_stats)


class SparkSQLSystem(System):
    """Spark SQL: relational optimizer only.

    Sort-based shuffle grouping (skew-sensitive), cartesian-product theta
    joins, and term validation as a cross product with a similarity UDF —
    the plan §8.1 describes as "non-interactive" at scale.
    """

    name = "SparkSQL"
    grouping = "sort"
    theta = "cartesian"
    dc_strategy = "cartesian"

    def validate_terms(
        self,
        terms: Sequence[str],
        dictionary: Sequence[str],
        op: str = "token_filtering",
        metric: str = "LD",
        theta: float = 0.8,
        q: int = 3,
        k: int = 10,
        delta: float = 0.05,
        fmt: str = "memory",
        filters: FilterConfig | None = None,
    ) -> RunResult:
        sim = get_metric(metric)

        def action(cluster: Cluster) -> list:
            data = cluster.parallelize(terms, fmt=fmt, name="terms")
            dict_ds = cluster.parallelize(dictionary, name="dictionary")
            # Cross product of input and dictionary + similarity UDF filter.
            # The UDF runs the metric on every pair: no candidate pruning,
            # so verified == candidates (pruning ratio 1.0).
            product = data.cartesian(dict_ds, name="termValidation:cross")
            pair_count = product.count()
            cluster.charge_comparisons(pair_count)
            cluster.charge_verified(pair_count)
            matches = product.filter(
                lambda pair: sim(str(pair[0]), str(pair[1])) >= theta,
                name="similarity:udf",
            )
            return matches.collect()

        return self._run(action)


class BigDansingSystem(System):
    """BigDansing: rule-based jobs over hash-shuffled blocks.

    Restrictions modelled straight from §8: no computed attributes in rules
    ("lacks support for values not belonging to the original attributes"),
    deduplication only as a customer-specific UDF, no term validation, and
    a min-max pruning theta join whose shuffling explodes on unaligned data.
    """

    name = "BigDansing"
    grouping = "hash"
    theta = "minmax"
    dc_strategy = "minmax"

    def check_fd(
        self,
        records: Sequence[dict],
        lhs: Sequence[Any],
        rhs: Sequence[Any],
        fmt: str = "memory",
    ) -> RunResult:
        if any(callable(spec) for spec in list(lhs) + list(rhs)):
            return RunResult.unsupported(
                self.name,
                reason="BigDansing rules cannot reference computed attributes",
            )
        if fmt not in ("memory", "csv"):
            return RunResult.unsupported(
                self.name, reason=f"BigDansing cannot read {fmt} sources"
            )
        return super().check_fd(records, lhs, rhs, fmt=fmt)

    def check_dc(
        self,
        records: Sequence[dict],
        constraint: DenialConstraint,
        fmt: str = "memory",
        strategy: str | None = None,
    ) -> RunResult:
        if fmt not in ("memory", "csv"):
            return RunResult.unsupported(
                self.name, reason=f"BigDansing cannot read {fmt} sources"
            )
        return super().check_dc(records, constraint, fmt=fmt, strategy=strategy)

    def deduplicate(
        self,
        records: Sequence[dict],
        attributes: Sequence[str],
        block_on: Any = None,
        metric: str = "LD",
        theta: float = 0.8,
        fmt: str = "memory",
        filters: FilterConfig | None = None,
    ) -> RunResult:
        is_customer = bool(records) and "custkey" in records[0]
        if not is_customer:
            return RunResult.unsupported(
                self.name,
                reason="BigDansing's dedup is a UDF specific to the customer table",
            )
        return super().deduplicate(
            records, attributes, block_on=block_on, metric=metric, theta=theta,
            fmt=fmt, filters=filters,
        )

    def validate_terms(self, *args: Any, **kwargs: Any) -> RunResult:
        return RunResult.unsupported(
            self.name, reason="BigDansing has no term-validation operator"
        )


ALL_SYSTEMS: tuple[type[System], ...] = (
    CleanDBSystem,
    SparkSQLSystem,
    BigDansingSystem,
)
