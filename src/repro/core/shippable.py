"""The shippability rule: can this value cross a process boundary?

One pure module (``sys`` only; ``pickle`` at the first probe, so asking never
loads the worker pool) behind every place the question comes up: the static
analyzer's CM501, ``ParallelExecutor.supports`` and :func:`shippable`, the
cleaning ladder's parallel precondition (it reaches the pool only through
the cluster it is handed).  ``is_hashable`` is its sibling for caches.
"""

from __future__ import annotations

import sys
from typing import Any, Callable


def is_picklable(obj: Any) -> bool:
    """Whether ``obj`` survives a pickle round trip (task-shippable)."""
    import pickle

    try:
        pickle.loads(pickle.dumps(obj))
        return True
    except Exception:
        return False


def is_hashable(obj: Any) -> bool:
    """Whether ``obj`` can key a cache: hashable all the way down, so it
    cannot change after it was stored.  The one rule behind every derived
    cache (``TableStore.derived``, the pool's DC state): a key that fails
    it never caches."""
    try:
        hash(obj)
        return True
    except TypeError:
        return False


def is_module_level_callable(func: Any) -> bool:
    """Whether ``func`` pickles *by reference* — the static fast path.

    Pickle ships plain functions as ``module.qualname`` references, so a
    module-level def is shippable iff its qualname resolves back to the
    same object; lambdas and closures (``<lambda>``/``<locals>`` in the
    qualname) never are.  This answers without serializing anything,
    replacing a pickle round trip per probe.
    """
    if not callable(func):
        return False
    qualname = getattr(func, "__qualname__", None)
    module = getattr(func, "__module__", None)
    if not qualname or not module:
        return False
    if "<lambda>" in qualname or "<locals>" in qualname:
        return False
    obj: Any = sys.modules.get(module)
    if obj is None:
        return False
    for part in qualname.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return False
    return obj is func


def unshippable_reason(func: Callable) -> str:
    """Why a function failed both probes above, for the CM501 message."""
    qualname = getattr(func, "__qualname__", "")
    if "<lambda>" in qualname:
        return "it is a lambda (not picklable)"
    if "<locals>" in qualname:
        return f"it is defined inside {qualname.split('.<locals>')[0]!r} (a closure)"
    return "it does not survive a pickle round trip"


#: Builtin container/scalar types whose instances always pickle, provided
#: their elements do — the type-walk below recurses into them.
_SHIPPABLE_SCALARS = (str, bytes, bool, int, float, complex, type(None))
_SHIPPABLE_CONTAINERS = (list, tuple, set, frozenset)


def rows_statically_shippable(rows: Any, sample: int = 256) -> bool:
    """Whether a table's rows can cross the process boundary — statically.

    Instead of serializing the whole table to answer yes/no, this walk
    type-checks a sampled prefix: builtin scalars and containers of them
    always pickle, and only rows holding exotic values pay an actual
    per-row pickle probe.  Sampling is sound for the engine's use: a False
    here merely routes the plan to the serial path, and a True is
    re-validated by the pin itself (a failing pin falls back identically).
    """
    if not isinstance(rows, list):
        return is_picklable(rows)
    for row in rows[:sample]:
        if not _value_shippable(row):
            return False
    return True


def _value_shippable(value: Any, depth: int = 6) -> bool:
    if isinstance(value, _SHIPPABLE_SCALARS):
        return True
    if depth <= 0:
        return is_picklable(value)
    if isinstance(value, dict):
        return all(
            _value_shippable(k, depth - 1) and _value_shippable(v, depth - 1)
            for k, v in value.items()
        )
    if isinstance(value, _SHIPPABLE_CONTAINERS):
        return all(_value_shippable(v, depth - 1) for v in value)
    # Exotic value (custom class, callable, file handle...): one real probe.
    return is_picklable(value)


def pin_is_warm(
    cluster: Any, records: list[Any], pinned: tuple[str, int] | None
) -> bool:
    """Whether ``pinned`` resolves to resident handles covering ``records``.

    A warm pin also proves the rows are picklable (they crossed the
    process boundary when pinned), letting callers skip the O(table)
    driver-side shippability probe on every warm call.
    """
    if pinned is None:
        return False
    refs = cluster.pool.pinned(*pinned)
    return refs is not None and sum(max(r.count, 0) for r in refs) == len(records)


def shippable(
    cluster: Any,
    records: list[Any],
    pinned: tuple[str, int] | None,
    spec: Any = None,
) -> bool:
    """Whether a call can cross the process boundary: its argument ``spec``
    pickles, and its rows do — a warm pin proves that outright (they already
    crossed), a cold table is judged by the *static* type-walk over a
    sampled prefix (an exotic row the sample missed cannot crash dispatch:
    the pin itself fails with :class:`WorkerTaskError` and the caller
    degrades)."""
    return is_picklable(spec) and (
        pin_is_warm(cluster, records, pinned) or rows_statically_shippable(records)
    )
