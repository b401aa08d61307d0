"""Physical level — CleanM's third abstraction level (§6)."""

from typing import TYPE_CHECKING

from .._lazy import lazy_surface

if TYPE_CHECKING:
    from .functions import DEFAULT_FUNCTIONS, prefix, register_function
    from .lower import EXECUTION_BACKENDS, Executor, PhysicalConfig
    from .parallel_exec import ParallelExecutor
    from .theta_join import theta_join_cartesian, theta_join_matrix, theta_join_minmax
    from .vectorized import EnvBatch, VectorizedExecutor, eval_column

__getattr__, __dir__, __all__ = lazy_surface(__name__, {
    "functions": ("DEFAULT_FUNCTIONS", "prefix", "register_function"),
    "lower": ("EXECUTION_BACKENDS", "Executor", "PhysicalConfig"),
    "parallel_exec": ("ParallelExecutor",),
    "theta_join": ("theta_join_cartesian", "theta_join_matrix", "theta_join_minmax"),
    "vectorized": ("EnvBatch", "VectorizedExecutor", "eval_column"),
})
