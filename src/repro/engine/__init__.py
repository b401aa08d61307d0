"""Simulated scale-out execution engine ("sparklite").

Stands in for the paper's Spark runtime: partitioned datasets with an
RDD-like API, an explicit shuffle layer, and a deterministic cost model that
reproduces the plan-shape effects (pre-aggregation, skew, theta-join
balancing) the paper's evaluation measures.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_surface

if TYPE_CHECKING:
    from .cluster import Cluster
    from .dataset import Dataset
    from .faults import FaultPlan, FaultSpec
    from .metrics import CostModel, MetricsCollector, OpMetrics
    from ..errors import StaleHandleError, WorkerTaskError
    from .parallel import DEFAULT_WORKERS, WorkerPool
    from .partitioner import (
        HashPartitioner, Partitioner, RangePartitioner, RoundRobinPartitioner,
        make_partitioner, stable_hash,
    )
    from .transport import ShipLog
    from .worker import StoreRef

__getattr__, __dir__, __all__ = lazy_surface(__name__, {
    "cluster": ("Cluster",),
    "dataset": ("Dataset",),
    "faults": ("FaultPlan", "FaultSpec"),
    "metrics": ("CostModel", "MetricsCollector", "OpMetrics"),
    "parallel": ("DEFAULT_WORKERS", "WorkerPool"),
    "partitioner": (
        "HashPartitioner", "Partitioner", "RangePartitioner", "RoundRobinPartitioner",
        "make_partitioner", "stable_hash",
    ),
    "transport": ("ShipLog",),
    "worker": ("StoreRef",),
    ".errors": ("StaleHandleError", "WorkerTaskError"),
})
