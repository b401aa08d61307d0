"""Multi-tenant cleaning-as-a-service over one shared worker pool.

The deployment shape the related work converges on (Mimir's on-demand
cleaning interface, HoloClean's shared-infrastructure repair): many logical
tenants submit FD / dedup / DC / SQL cleaning queries concurrently, and one
long-lived :class:`~repro.engine.parallel.WorkerPool` serves them all.
:class:`CleanService` is the asyncio front end; see ``service.py`` for the
scheduling, namespace, budget, and store-eviction semantics.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_surface

if TYPE_CHECKING:
    from .service import (
        CleanService, LoadReport, QueryOutcome, TenantSession, percentile,
    )

__getattr__, __dir__, __all__ = lazy_surface(__name__, {
    "service": (
        "CleanService", "LoadReport", "QueryOutcome", "TenantSession", "percentile",
    ),
})
