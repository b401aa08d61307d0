"""One backend ladder: which driver answers a cleaning check.

A check is answered by the first rung that can: the requested backend's
driver, when the call asks for the one plan the non-row drivers implement
(``aggregate`` grouping / the ``banded`` DC plan) and the backend's
precondition holds; else the row driver.  A driver that fails degradably
(``WorkerTaskError`` / ``StaleHandleError``: the pool could not heal) is
recorded as ``degraded:<op>:<table>`` and the row driver answers.  No
driver falls back on its own: ``CleanDB`` (after the maintained state of
an incremental session) and ``baselines/`` both call :func:`run_check`.
"""

from __future__ import annotations

from typing import Any, Sequence

from ..core.shippable import shippable
from ..engine.cluster import Cluster
from ..engine.dataset import Dataset
from ..errors import StaleHandleError, WorkerTaskError
from ..sources.columnar import uniform_dict_records
from . import dedup, denial


def _uniform(cluster: Cluster, records: list, pinned: Any, plan: dict) -> bool:
    """The vectorized backend's precondition, called like the parallel one's."""
    return uniform_dict_records(records)


#: op → (module of its drivers, the plan parameter only the row driver
#: generalizes, the one value every other driver and maintained state has).
OPS = {
    "fd": (denial, "grouping", "aggregate"),
    "dc": (denial, "strategy", "banded"),
    "dedup": (dedup, "grouping", "aggregate"),
}

#: ``(op, execution) → (driver, precondition, session state it takes)``.  A
#: driver is named, not bound: it is looked up on its module per call, so
#: what runs is the binding a tracer (``bench/layers.py``) or a spy wraps.
RUNGS = {
    ("fd", "row"): ("check_fd", None, ()),
    ("fd", "vectorized"): ("check_fd_columnar", _uniform, ()),
    ("fd", "parallel"): ("check_fd_parallel", shippable, ("pinned",)),
    ("dc", "row"): ("check_dc", None, ("derived",)),
    ("dc", "vectorized"): ("check_dc_columnar", _uniform, ("derived",)),
    ("dc", "parallel"): ("check_dc_parallel", shippable, ("pinned",)),
    ("dedup", "row"): ("deduplicate", None, ("derived",)),
    ("dedup", "vectorized"): ("deduplicate_columnar", _uniform, ("derived",)),
    ("dedup", "parallel"): ("deduplicate_parallel", shippable, ("pinned",)),
}


def has_fast_plan(op: str, params: dict) -> bool:
    """Whether a call asks for the plan that has more than a row driver."""
    _, knob, fast = OPS[op]
    return params.get(knob, fast) == fast


def run_check(
    cluster: Cluster, op: str, records: Sequence[dict], execution: str = "row", *,
    name: str, fmt: str = "memory", pinned: tuple[str, int] | None = None,
    derived: Any = None, **params: Any,
) -> Dataset:
    """The ``fd`` / ``dc`` / ``dedup`` check ``op`` of ``records`` (the table
    ``name``, read from ``fmt``) on the first rung that can answer it.
    ``params`` are the row driver's own; ``pinned`` (the table's identity in
    the worker store) and ``derived`` (a session's ``TableStore.derived``
    bound to the table) reach the rungs that take them.  The result's
    ``op`` tag tells which driver answered."""
    records = records if isinstance(records, list) else list(records)
    module, knob, _ = OPS[op]
    driver, holds, takes = RUNGS[op, execution]
    session = {"pinned": pinned, "derived": derived}
    state = {key: session[key] for key in takes}
    if holds is None:
        dataset = cluster.parallelize(records, fmt=fmt, name=name)
        return getattr(module, driver)(dataset, **params, **state)
    plan = {key: value for key, value in params.items() if key != knob}
    if has_fast_plan(op, params) and holds(cluster, records, pinned, plan):
        try:
            return getattr(module, driver)(cluster, records, fmt=fmt, name=name, **plan, **state)
        except (WorkerTaskError, StaleHandleError):
            cluster.record_op(f"degraded:{op}:{name}", [0.0] * cluster.num_nodes)
    return run_check(
        cluster, op, records, "row", name=name, fmt=fmt, pinned=pinned, derived=derived, **params
    )
