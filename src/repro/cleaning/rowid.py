"""The one row-id rule every cleaning path shares.

A record's stable id is its ``_rid`` when it carries one; a missing key and
a ``None`` value both mean *absent*.  An absent id is the record's position
in the partition-major numbering of the table's round-robin layout — the
numbering :func:`partition_offsets` turns partition sizes into, and the one
the engine's ``zip_with_index`` produces over the same layout — so every
backend numbers an id-less table identically without comparing notes.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Any, Sequence

RID = "_rid"


def has_rids(records: Sequence[Any]) -> bool:
    """Whether a table carries row ids, judged by its first record."""
    return (
        bool(records)
        and isinstance(records[0], dict)
        and records[0].get(RID) is not None
    )


def partition_offsets(sizes: Sequence[int]) -> list[int]:
    """Each partition's first position in the partition-major numbering."""
    return [0, *accumulate(max(size, 0) for size in sizes)][:-1]


def row_indices(part: int, stride: int, count: int) -> range:
    """The table indices of round-robin partition ``part``'s ``count`` rows,
    ``stride`` being ``round_robin_split``'s clamped partition count: how a
    worker names a row, resolved by one ``map(records.__getitem__, ...)``."""
    return range(part, part + stride * count, stride)


def row_ids(records: Sequence[dict], start: int = 0) -> list[Any]:
    """Per-record ids of one partition whose first position is ``start``:
    the carried ``_rid``, or the record's position when it has none."""
    return [
        start + i if (rid := record.get(RID)) is None else rid
        for i, record in enumerate(records)
    ]


def stamp(record: dict, rid: Any) -> dict:
    """A copy of ``record`` carrying ``rid`` (the source row is shared with
    the caller's table and must not change under it)."""
    return {**record, RID: rid}


def number_rows(records: Sequence[dict], start: int = 0) -> list[dict]:
    """Every record of an id-less partition stamped with its position."""
    return [stamp(record, start + i) for i, record in enumerate(records)]


def fill_rids(records: Sequence[Any], start: int = 0) -> list[Any]:
    """Table registration's form of the rule: dict rows that carry an id
    are kept as they are, the others are stamped with their position."""
    return [
        stamp(record, start + i)
        if isinstance(record, dict) and record.get(RID) is None
        else record
        for i, record in enumerate(records)
    ]
