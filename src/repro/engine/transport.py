"""The transport ledger: what crossed the process boundary, and for whom.

Every payload that crosses it (task args, pinned partitions, broadcasts,
result blobs) is pre-pickled by the sender, so the pool counts exactly how
many bytes and payloads each call shipped.  Accounting is *per thread*: a
public pool call tallies its own transport in a :class:`_CallRecord` and,
when it finishes, the pool folds that into its lifetime totals and into the
calling thread's ledger — so callers on other threads (the serving layer
runs each tenant on one) never see each other's bytes.  :class:`ShipLog` is
the reader: stages bracket their pool calls with one and attach the delta
to the op they record.
"""

from __future__ import annotations

import threading
from typing import Any


class _Ledger(threading.local):
    """What the current thread's pool calls shipped; each thread reads its
    own attributes, starting from these zeros."""

    wall_seconds = 0.0
    bytes_shipped = 0
    ship_count = 0
    retries = 0


_LEDGER = _Ledger()
_FIELDS = ("wall_seconds", "bytes_shipped", "ship_count", "retries")


class _CallRecord:
    """Transport tally for one public pool call (one token's worth)."""

    __slots__ = ("bytes", "ships", "wall", "tasks", "retries")

    def __init__(self) -> None:
        self.bytes = 0
        self.ships = 0
        self.wall: float | None = None
        self.tasks = 0
        self.retries = 0

    def credit_context(self) -> None:
        """Fold this finished call into the calling thread's ledger."""
        _LEDGER.bytes_shipped += self.bytes
        _LEDGER.ship_count += self.ships
        _LEDGER.retries += self.retries
        if self.wall is not None:
            _LEDGER.wall_seconds += self.wall


class ShipLog:
    """Delta-reader over the *calling thread's* transport ledger.

    Stages bracket their pool calls with a ``ShipLog`` and attach
    ``take()`` to ``record_op`` — measured wall seconds, bytes shipped, and
    payload count for exactly that stage, whoever else is using the pool.
    """

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self._start = [getattr(_LEDGER, name) for name in _FIELDS]

    def take(self) -> dict[str, Any]:
        """Counter deltas since construction/last take, as record_op kwargs."""
        out = {name: getattr(_LEDGER, name) - start for name, start in zip(_FIELDS, self._start)}
        self.reset()
        return out
