"""Data cleaning building blocks: similarity, blocking, and the four
operation families of §3.1 (denial constraints, deduplication, term
validation, transformations)."""

from typing import TYPE_CHECKING

from .._lazy import lazy_surface

if TYPE_CHECKING:
    from .blocking import (
        key_blocks, kmeans_blocks, length_blocks, make_blocks, token_blocks,
    )
    from .closure import (
        UnionFind, close_pairs, elect_representatives, entity_clusters, fuse_duplicates,
    )
    from .dedup import (
        DuplicatePair, deduplicate, deduplicate_columnar, deduplicate_parallel,
        ensure_rids, pairwise_within_blocks,
    )
    from .dc_kernel import (
        DCPlan, DCStats, null_safe_compare, parse_dc, plan_dc,
    )
    from .denial import (
        DC_STRATEGIES, DenialConstraint, FDViolation, SingleFilter, TuplePredicate,
        check_dc, check_dc_columnar, check_dc_parallel, check_fd, check_fd_columnar,
        check_fd_parallel, find_violations,
    )
    from .kmeans import assign_to_centers, reservoir_sample
    from .ladder import run_check
    from .similarity import (
        get_metric, jaccard_similarity, jaro_similarity, jaro_winkler_similarity,
        levenshtein_distance, levenshtein_similarity, register_metric, similar,
    )
    from .repair import (
        DCRepairReport, apply_term_repairs, repair_dc_by_relaxation,
        repair_fd_by_majority,
    )
    from .simjoin import (
        DEFAULT_FILTERS, NO_FILTERS, FilterConfig, JoinStats, PreparedRecord, SimJoin,
        banded_ld_similarity, ld_upper_bound,
    )
    from .term_validation import TermRepair, validate_terms
    from .tokenize import qgrams, words
    from .transform import FillMissing, SplitDate, Transform, TransformPipeline, project_all

__getattr__, __dir__, __all__ = lazy_surface(__name__, {
    "blocking": (
        "key_blocks", "kmeans_blocks", "length_blocks", "make_blocks", "token_blocks",
    ),
    "closure": (
        "UnionFind", "close_pairs", "elect_representatives", "entity_clusters",
        "fuse_duplicates",
    ),
    "dedup": (
        "DuplicatePair", "deduplicate", "deduplicate_columnar", "deduplicate_parallel",
        "ensure_rids", "pairwise_within_blocks",
    ),
    "dc_kernel": (
        "DCPlan", "DCStats", "null_safe_compare", "parse_dc", "plan_dc",
    ),
    "denial": (
        "DC_STRATEGIES", "DenialConstraint", "FDViolation", "SingleFilter",
        "TuplePredicate", "check_dc", "check_dc_columnar", "check_dc_parallel",
        "check_fd", "check_fd_columnar", "check_fd_parallel", "find_violations",
    ),
    "kmeans": ("assign_to_centers", "reservoir_sample"),
    "ladder": ("run_check",),
    "similarity": (
        "get_metric", "jaccard_similarity", "jaro_similarity", "jaro_winkler_similarity",
        "levenshtein_distance", "levenshtein_similarity", "register_metric", "similar",
    ),
    "repair": (
        "DCRepairReport", "apply_term_repairs", "repair_dc_by_relaxation",
        "repair_fd_by_majority",
    ),
    "simjoin": (
        "DEFAULT_FILTERS", "NO_FILTERS", "FilterConfig", "JoinStats", "PreparedRecord",
        "SimJoin", "banded_ld_similarity", "ld_upper_bound",
    ),
    "term_validation": ("TermRepair", "validate_terms"),
    "tokenize": ("qgrams", "words"),
    "transform": ("FillMissing", "SplitDate", "Transform", "TransformPipeline", "project_all"),
})
