"""Partitioning strategies for the simulated shuffle layer.

Three partitioners model the three grouping strategies §8.3 contrasts:

* :class:`HashPartitioner` — records go to ``hash(key) % n``; a hot key
  lands entirely on one partition (skew-sensitive).
* :class:`RangePartitioner` — Spark SQL's sort-based shuffle: sample the
  keys, cut quantile boundaries, route by binary search.  A hot key still
  lands in a single range, so it is equally skew-sensitive, but the shuffle
  itself is cheaper than hash shuffling (see :class:`~repro.engine.metrics.
  CostModel`).
* :class:`RoundRobinPartitioner` — key-oblivious even spreading, used for
  re-balancing non-keyed data.
"""

from __future__ import annotations

import bisect
import zlib
from typing import Any, Callable, Sequence


def canonical_key(value: Any) -> Any:
    """The one rule for which keys are one key: keys that ``==`` merges
    route together.  An ``int`` subclass (``True``, an ``IntEnum``) and an
    integral float (``-0.0`` included) become their ``int``; a tuple is
    canonicalized element by element; every other value is itself."""
    kind = type(value)
    if kind is int or kind is str:
        return value
    if isinstance(value, tuple):
        return tuple([canonical_key(v) for v in value])
    if isinstance(value, int) or isinstance(value, float) and value.is_integer():
        return int(value)
    return value


def stable_hash(value: Any) -> int:
    """A deterministic hash of :func:`canonical_key`, stable across
    processes and runs.

    Python's built-in ``hash`` is randomized for strings; benchmarks must be
    reproducible, so keys are serialized with ``repr`` and crc32-hashed.
    """
    kind = type(value)
    if kind is not int and kind is not str:
        value = canonical_key(value)
    if isinstance(value, int):
        return value & 0x7FFFFFFF
    return zlib.crc32(repr(value).encode("utf-8")) & 0x7FFFFFFF


class Partitioner:
    """Maps a key to a partition index in ``[0, num_partitions)``."""

    def __init__(self, num_partitions: int):
        if num_partitions <= 0:
            raise ValueError("num_partitions must be positive")
        self.num_partitions = num_partitions

    def partition(self, key: Any) -> int:
        raise NotImplementedError


class HashPartitioner(Partitioner):
    """Route by stable hash of the key."""

    def partition(self, key: Any) -> int:
        return stable_hash(key) % self.num_partitions


class RoundRobinPartitioner(Partitioner):
    """Spread records evenly regardless of key."""

    def __init__(self, num_partitions: int):
        super().__init__(num_partitions)
        self._next = 0

    def partition(self, key: Any) -> int:
        target = self._next
        self._next = (self._next + 1) % self.num_partitions
        return target


class RangePartitioner(Partitioner):
    """Quantile-boundary routing over sampled keys (sort-based shuffle).

    Keys must be mutually comparable.  Boundaries are computed from the key
    sample at construction; each record is routed to the range its key falls
    into, which is how Spark's sort-based shuffle assigns reducers.
    """

    def __init__(self, num_partitions: int, key_sample: Sequence[Any]):
        super().__init__(num_partitions)
        ordered = sorted(key_sample, key=_comparable)
        self.boundaries: list[Any] = []
        if ordered and num_partitions > 1:
            step = len(ordered) / num_partitions
            seen = set()
            for i in range(1, num_partitions):
                candidate = ordered[min(int(i * step), len(ordered) - 1)]
                marker = _comparable(candidate)
                if marker not in seen:
                    seen.add(marker)
                    self.boundaries.append(candidate)
        self._boundary_keys = [_comparable(b) for b in self.boundaries]

    def partition(self, key: Any) -> int:
        return bisect.bisect_left(self._boundary_keys, _comparable(key))


def _comparable(key: Any) -> tuple:
    """Wrap a key so heterogeneous keys (int vs str vs tuple) sort stably,
    and keys :func:`canonical_key` merges fall in one range."""
    key = canonical_key(key)
    if isinstance(key, tuple):
        return ("tuple", tuple(map(_comparable, key)))
    return (type(key).__name__, key)


def make_partitioner(
    kind: str, num_partitions: int, key_sample: Sequence[Any] = ()
) -> Partitioner:
    """Factory used by the shuffle layer.

    ``kind`` is one of ``"hash"``, ``"range"``, ``"roundrobin"``.
    """
    if kind == "hash":
        return HashPartitioner(num_partitions)
    if kind == "range":
        return RangePartitioner(num_partitions, key_sample)
    if kind == "roundrobin":
        return RoundRobinPartitioner(num_partitions)
    raise ValueError(f"unknown partitioner kind: {kind!r}")


def round_robin_split(records: Sequence[Any], num_partitions: int) -> list[list[Any]]:
    """Round-robin records into ``num_partitions`` partitions, clamped to
    ``[1, len(records)]``: ``Cluster.parallelize``'s default placement, so
    every backend's driver sees exactly the row path's partitioning."""
    parts = max(1, min(num_partitions, max(1, len(records))))
    records = records if isinstance(records, list) else list(records)
    return [records[p::parts] for p in range(parts)]


KeyFunc = Callable[[Any], Any]
