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
    from .domain import (
        DomainRule, DomainViolation, InRange, InSet, Matches, NotNull, Satisfies,
        check_domains, violation_summary,
    )
    from .dc_kernel import (
        DCPlan, DCStats, null_safe_compare, parse_dc, plan_dc,
    )
    from .denial import (
        DC_STRATEGIES, DenialConstraint, FDViolation, SingleFilter, TuplePredicate,
        check_dc, check_dc_columnar, check_dc_parallel, check_fd, check_fd_columnar,
        check_fd_parallel, find_violations, self_theta_join,
    )
    from .kmeans import (
        assign_to_centers, fixed_step_centers, hierarchical_cluster, multi_pass_kmeans,
        reservoir_sample, single_pass_kmeans,
    )
    from .ladder import run_check
    from .similarity import (
        euclidean_similarity, get_metric, jaccard_similarity, jaro_similarity,
        jaro_winkler_similarity, levenshtein_distance, levenshtein_similarity,
        register_metric, similar,
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
    from .tokenize import normalize_term, qgrams, words
    from .transform import (
        FillMissing, SemanticMap, SplitAttribute, SplitDate, Transform,
        TransformPipeline, project_all,
    )

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
    "domain": (
        "DomainRule", "DomainViolation", "InRange", "InSet", "Matches", "NotNull",
        "Satisfies", "check_domains", "violation_summary",
    ),
    "dc_kernel": (
        "DCPlan", "DCStats", "null_safe_compare", "parse_dc", "plan_dc",
    ),
    "denial": (
        "DC_STRATEGIES", "DenialConstraint", "FDViolation", "SingleFilter",
        "TuplePredicate", "check_dc", "check_dc_columnar", "check_dc_parallel",
        "check_fd", "check_fd_columnar", "check_fd_parallel", "find_violations",
        "self_theta_join",
    ),
    "kmeans": (
        "assign_to_centers", "fixed_step_centers", "hierarchical_cluster",
        "multi_pass_kmeans", "reservoir_sample", "single_pass_kmeans",
    ),
    "ladder": ("run_check",),
    "similarity": (
        "euclidean_similarity", "get_metric", "jaccard_similarity", "jaro_similarity",
        "jaro_winkler_similarity", "levenshtein_distance", "levenshtein_similarity",
        "register_metric", "similar",
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
    "tokenize": ("normalize_term", "qgrams", "words"),
    "transform": (
        "FillMissing", "SemanticMap", "SplitAttribute", "SplitDate", "Transform",
        "TransformPipeline", "project_all",
    ),
})
