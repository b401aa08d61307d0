"""Physical level — CleanM's third abstraction level (§6)."""

from .functions import DEFAULT_FUNCTIONS, prefix, register_function
from .lower import EXECUTION_BACKENDS, Executor, PhysicalConfig
from .parallel_exec import ParallelExecutor
from .stats import (
    Histogram,
    KeyStats,
    build_histogram,
    collect_key_stats,
    zipf_skew_estimate,
)
from .theta_join import (
    self_theta_join,
    theta_join_cartesian,
    theta_join_matrix,
    theta_join_minmax,
)
from .vectorized import EnvBatch, VectorizedExecutor, eval_column

__all__ = [
    "DEFAULT_FUNCTIONS", "prefix", "register_function",
    "EXECUTION_BACKENDS", "Executor", "PhysicalConfig",
    "EnvBatch", "VectorizedExecutor", "eval_column",
    "ParallelExecutor",
    "Histogram", "KeyStats", "build_histogram", "collect_key_stats",
    "zipf_skew_estimate",
    "self_theta_join", "theta_join_cartesian", "theta_join_matrix",
    "theta_join_minmax",
]
