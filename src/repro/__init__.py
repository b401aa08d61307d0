"""CleanM / CleanDB reproduction.

An executable reproduction of "CleanM: An Optimizable Query Language for
Unified Scale-Out Data Cleaning" (VLDB 2017): the CleanM language, its
three-level optimizer (monoid comprehensions -> nested relational algebra ->
physical plans), the CleanDB engine over a simulated scale-out runtime, the
Spark SQL and BigDansing baselines, and the full section-8 benchmark suite.

Quickstart::

    from repro import CleanDB

    db = CleanDB(num_nodes=4)
    db.register_table("customer", rows)
    result = db.execute(
        "SELECT * FROM customer c FD(c.address, prefix(c.phone))"
    )
    print(result.branch("fd1"))
"""

from typing import TYPE_CHECKING

from ._lazy import lazy_surface

if TYPE_CHECKING:
    from .core.language import CleanDB, QueryResult
    from .engine.cluster import Cluster
    from .engine.dataset import Dataset
    from .engine.metrics import CostModel
    from .errors import (
        BudgetExceededError, DataSourceError, MonoidError, ParseError, PlanningError,
        ReproError, SchemaError, UnsupportedOperationError,
    )
    from .physical.lower import PhysicalConfig

__getattr__, __dir__, __all__ = lazy_surface(__name__, {
    "core.language": ("CleanDB", "QueryResult"),
    "engine.cluster": ("Cluster",),
    "engine.dataset": ("Dataset",),
    "engine.metrics": ("CostModel",),
    "errors": (
        "BudgetExceededError", "DataSourceError", "MonoidError", "ParseError",
        "PlanningError", "ReproError", "SchemaError", "UnsupportedOperationError",
    ),
    "physical.lower": ("PhysicalConfig",),
})

__version__ = "1.0.0"
__all__.append("__version__")
