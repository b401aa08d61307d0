"""The evaluated systems: CleanDB plus Spark SQL / BigDansing analogues."""

from typing import TYPE_CHECKING

from .._lazy import lazy_surface

if TYPE_CHECKING:
    from .systems import (
        ALL_SYSTEMS, BigDansingSystem, CleanDBSystem, SparkSQLSystem, System,
    )

__getattr__, __dir__, __all__ = lazy_surface(__name__, {
    "systems": (
        "ALL_SYSTEMS", "BigDansingSystem", "CleanDBSystem", "SparkSQLSystem", "System",
    ),
})
