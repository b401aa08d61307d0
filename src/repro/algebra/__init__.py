"""Nested relational algebra — CleanM's second abstraction level."""

from typing import TYPE_CHECKING

from .._lazy import lazy_surface

if TYPE_CHECKING:
    from .operators import (
        TRUE, AlgebraOp, Join, Nest, Reduce, Scan, Select, SharedScanDAG, Unnest,
    )
    from .rewrite import (
        RewriteReport, build_shared_dag, coalesce_nests, leaf_scan, optimize_branches,
        plan_signature,
    )
    from .translate import Translator, conjoin, is_grouping, make_group_comprehension

__getattr__, __dir__, __all__ = lazy_surface(__name__, {
    "operators": (
        "TRUE", "AlgebraOp", "Join", "Nest", "Reduce", "Scan", "Select",
        "SharedScanDAG", "Unnest",
    ),
    "rewrite": (
        "RewriteReport", "build_shared_dag", "coalesce_nests", "leaf_scan",
        "optimize_branches", "plan_signature",
    ),
    "translate": ("Translator", "conjoin", "is_grouping", "make_group_comprehension"),
})
