"""Accuracy metrics and experiment-run records for the §8 benchmarks."""

from typing import TYPE_CHECKING

from .._lazy import lazy_surface

if TYPE_CHECKING:
    from .accuracy import AccuracyReport, score_pairs, score_term_repairs
    from .reporting import format_table, print_table, speedup
    from .runner import RunResult

__getattr__, __dir__, __all__ = lazy_surface(__name__, {
    "accuracy": ("AccuracyReport", "score_pairs", "score_term_repairs"),
    "reporting": ("format_table", "print_table", "speedup"),
    "runner": ("RunResult",),
})
