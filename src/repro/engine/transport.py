"""The transport ledger: what crossed the process boundary, and for whom.

Every payload that crosses it (task args, pinned partitions, broadcasts,
result blobs) is pre-pickled by the sender, so the pool counts exactly how
many bytes and payloads each call shipped.  Accounting is *token-scoped*:
a public pool call tallies its own transport in a :class:`_CallRecord` and,
when it finishes, the pool folds that into its lifetime totals and into the
calling context's :class:`TransportCounters` — so interleaved callers never
see each other's bytes.  :class:`ShipLog` is the reader: stages bracket
their pool calls with one and attach the delta to the op they record.
"""

from __future__ import annotations

from contextvars import ContextVar
from typing import Any


class TransportCounters:
    """Per-context transport ledger: what *this* logical caller shipped
    (one per :mod:`contextvars` context, created lazily on first use)."""

    __slots__ = ("wall_seconds", "bytes_shipped", "ship_count", "retries")

    def __init__(self) -> None:
        self.wall_seconds = 0.0
        self.bytes_shipped = 0
        self.ship_count = 0
        self.retries = 0


_TRANSPORT: ContextVar[TransportCounters | None] = ContextVar(
    "repro_transport_counters", default=None
)


def begin_transport_scope() -> TransportCounters:
    """Give the current context its own fresh transport ledger.

    Threads spawned via ``asyncio.to_thread`` *copy* the submitting task's
    context, so sibling query threads would otherwise share (and race on)
    one inherited :class:`TransportCounters` object.  The serving layer
    calls this at the top of each query thread; single-threaded callers
    never need to.
    """
    counters = TransportCounters()
    _TRANSPORT.set(counters)
    return counters


def _context_counters() -> TransportCounters:
    return _TRANSPORT.get() or begin_transport_scope()


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
        """Fold this finished call into the calling context's ledger."""
        counters = _context_counters()
        counters.bytes_shipped += self.bytes
        counters.ship_count += self.ships
        counters.retries += self.retries
        if self.wall is not None:
            counters.wall_seconds += self.wall


class ShipLog:
    """Delta-reader over the *calling context's* transport ledger.

    Stages bracket their pool calls with a ``ShipLog`` and attach
    ``take()`` to ``record_op`` — measured wall seconds, bytes shipped, and
    payload count for exactly that stage, whoever else is using the pool.
    """

    def __init__(self, pool: Any):
        self.pool = pool
        self._counters = _context_counters()
        self.reset()

    def reset(self) -> None:
        counters = self._counters
        self._wall = counters.wall_seconds
        self._bytes = counters.bytes_shipped
        self._ships = counters.ship_count
        self._retries = counters.retries

    def take(self) -> dict[str, Any]:
        """Counter deltas since construction/last take, as record_op kwargs."""
        counters = self._counters
        out = {
            "wall_seconds": counters.wall_seconds - self._wall,
            "bytes_shipped": counters.bytes_shipped - self._bytes,
            "ship_count": counters.ship_count - self._ships,
            "retries": counters.retries - self._retries,
        }
        self.reset()
        return out
