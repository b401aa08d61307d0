"""A Parquet-like binary columnar format and an in-memory column batch.

Stand-in for Parquet in the Fig. 6b / Fig. 7 experiments: values are stored
per *column*, serialized compactly and zlib-compressed, which makes files
much smaller and cheaper to decode than CSV — the property those figures
measure.  Nested (list) columns are stored as offsets + a flattened child
column, the standard columnar nesting encoding.

Layout::

    magic "RCOL1\\n"
    header: JSON {schema: [[name, type], ...], rows: N}, length-prefixed
    per field: u32 compressed-block length + zlib(block)

Scalar blocks are JSON arrays of the column's values (simple, deterministic,
and honestly compressible); list blocks are ``{"offsets": [...], "values":
[...]}``.

:class:`ColumnBatch` is the in-memory counterpart: typed column arrays plus
a selection vector.  It is the unit of work of the vectorized execution
backend (``repro.physical.vectorized``): operators process one batch —
thousands of rows — per dispatch instead of one row-environment dict, and a
filter marks surviving rows in the selection vector instead of copying
columns.
"""

from __future__ import annotations

import json
import struct
import zlib
from array import array
from pathlib import Path
from typing import Any, Iterable, Sequence

from ..engine.partitioner import round_robin_split
from ..errors import DataSourceError
from .schema import Field, Schema

MAGIC = b"RCOL1\n"


def write_columnar(
    path: str | Path, records: Iterable[dict[str, Any]], schema: Schema
) -> int:
    rows = list(records)
    with open(path, "wb") as handle:
        handle.write(MAGIC)
        header = json.dumps(
            {"schema": [[f.name, f.type] for f in schema.fields], "rows": len(rows)}
        ).encode("utf-8")
        handle.write(struct.pack("<I", len(header)))
        handle.write(header)
        for f in schema.fields:
            block = _encode_column(rows, f)
            compressed = zlib.compress(block, level=6)
            handle.write(struct.pack("<I", len(compressed)))
            handle.write(compressed)
    return len(rows)


def read_columnar(path: str | Path) -> tuple[list[dict[str, Any]], Schema]:
    """Read all records; returns ``(records, schema)``."""
    path = Path(path)
    if not path.exists():
        raise DataSourceError(f"no such columnar file: {path}")
    with open(path, "rb") as handle:
        if handle.read(len(MAGIC)) != MAGIC:
            raise DataSourceError(f"{path}: bad magic (not a columnar file)")
        (header_len,) = struct.unpack("<I", handle.read(4))
        header = json.loads(handle.read(header_len).decode("utf-8"))
        schema = Schema(tuple(Field(n, t) for n, t in header["schema"]))
        num_rows = header["rows"]
        columns: dict[str, list[Any]] = {}
        for f in schema.fields:
            size_bytes = handle.read(4)
            if len(size_bytes) < 4:
                raise DataSourceError(f"{path}: truncated column {f.name!r}")
            (size,) = struct.unpack("<I", size_bytes)
            block = zlib.decompress(handle.read(size))
            columns[f.name] = _decode_column(block, f, num_rows)
    records = [
        {f.name: columns[f.name][i] for f in schema.fields} for i in range(num_rows)
    ]
    return records, schema


def _encode_column(rows: list[dict[str, Any]], f: Field) -> bytes:
    if f.type == "list":
        offsets = [0]
        values: list[Any] = []
        for row in rows:
            items = row.get(f.name) or []
            values.extend(items)
            offsets.append(len(values))
        payload: Any = {"offsets": offsets, "values": values}
    else:
        payload = [row.get(f.name) for row in rows]
    return json.dumps(payload).encode("utf-8")


def _decode_column(block: bytes, f: Field, num_rows: int) -> list[Any]:
    payload = json.loads(block.decode("utf-8"))
    if f.type == "list":
        offsets, values = payload["offsets"], payload["values"]
        if len(offsets) != num_rows + 1:
            raise DataSourceError(f"corrupt offsets for list column {f.name!r}")
        return [values[offsets[i] : offsets[i + 1]] for i in range(num_rows)]
    if len(payload) != num_rows:
        raise DataSourceError(f"corrupt column {f.name!r}")
    return payload


def file_size(path: str | Path) -> int:
    return Path(path).stat().st_size


# ---------------------------------------------------------------------- #
# In-memory column batches (the vectorized backend's data representation)
# ---------------------------------------------------------------------- #

class Column:
    """One named, typed column of values.

    Homogeneous numeric columns are packed into compact ``array`` buffers
    (``'q'`` for ints, ``'d'`` for floats); everything else stays a plain
    list.  Access semantics are identical either way.
    """

    __slots__ = ("name", "type", "values")

    def __init__(self, name: str, values: Sequence[Any], type_: str = "any"):
        self.name = name
        self.type = type_
        self.values = _pack_values(values)

    def __len__(self) -> int:
        return len(self.values)

    def __repr__(self) -> str:
        kind = "packed" if isinstance(self.values, array) else "list"
        return f"Column({self.name!r}, {self.type}, {len(self)} rows, {kind})"


def _pack_values(values: Sequence[Any]) -> Sequence[Any]:
    """Pack a homogeneous numeric column into a typed array buffer."""
    if isinstance(values, array):
        return values
    values = values if isinstance(values, list) else list(values)
    if values and all(type(v) is int for v in values):
        try:
            return array("q", values)
        except OverflowError:
            return values
    if values and all(type(v) is float for v in values):
        return array("d", values)
    return values


class ColumnBatch:
    """A batch of rows stored column-wise, with an optional selection vector.

    ``columns`` maps field name to :class:`Column`; every column has
    ``physical_rows`` entries.  ``selection`` — when set — is the list of
    physical row indices that are logically present, in order.  Filters
    compose selections without copying column data; :meth:`compact`
    materializes the selection when an operator needs dense columns.
    """

    __slots__ = ("columns", "order", "physical_rows", "selection")

    def __init__(
        self,
        columns: dict[str, Column],
        physical_rows: int,
        selection: list[int] | None = None,
    ):
        self.columns = columns
        self.order = list(columns)
        self.physical_rows = physical_rows
        self.selection = selection

    # -- construction -------------------------------------------------- #
    @classmethod
    def from_records(
        cls, records: Sequence[dict[str, Any]], schema: Schema | None = None
    ) -> "ColumnBatch | None":
        """Columnarize uniform dict records; ``None`` if they don't qualify.

        Rows qualify when every record is a dict with the same key set —
        the precondition the vectorized backend checks before claiming a
        plan (heterogeneous rows fall back to the row-at-a-time path).
        """
        records = records if isinstance(records, list) else list(records)
        if not records:
            names = schema.names if schema else []
            return cls({n: Column(n, []) for n in names}, 0)
        first = records[0]
        if not isinstance(first, dict):
            return None
        names = list(first)
        key_view = first.keys()
        for record in records:
            if not isinstance(record, dict) or record.keys() != key_view:
                return None
        types = {f.name: f.type for f in schema.fields} if schema else {}
        columns = {
            name: Column(
                name, [r[name] for r in records], types.get(name, "any")
            )
            for name in names
        }
        return cls(columns, len(records))

    # -- shape --------------------------------------------------------- #
    def __len__(self) -> int:
        """Logical row count (selection-aware)."""
        if self.selection is not None:
            return len(self.selection)
        return self.physical_rows

    @property
    def num_rows(self) -> int:
        return len(self)

    @property
    def names(self) -> list[str]:
        return list(self.order)

    # -- access -------------------------------------------------------- #
    def column(self, name: str) -> list[Any]:
        """The logical values of one column (selection applied)."""
        try:
            values = self.columns[name].values
        except KeyError:
            raise DataSourceError(f"batch has no column {name!r}") from None
        if self.selection is None:
            return values if isinstance(values, list) else list(values)
        return [values[i] for i in self.selection]

    def row(self, logical_index: int) -> dict[str, Any]:
        """Rebuild one row dict — the late-materialization escape hatch."""
        i = (
            self.selection[logical_index]
            if self.selection is not None
            else logical_index
        )
        return {name: self.columns[name].values[i] for name in self.order}

    def to_records(self) -> list[dict[str, Any]]:
        """Rebuild all logical rows as record dicts (field order preserved)."""
        indices = (
            self.selection
            if self.selection is not None
            else range(self.physical_rows)
        )
        cols = [(name, self.columns[name].values) for name in self.order]
        return [{name: values[i] for name, values in cols} for i in indices]

    # -- transformations ----------------------------------------------- #
    def filter(self, mask: Sequence[Any]) -> "ColumnBatch":
        """Keep rows whose mask entry is truthy; composes selection vectors."""
        if self.selection is None:
            selection = [i for i, keep in enumerate(mask) if keep]
        else:
            selection = [i for i, keep in zip(self.selection, mask) if keep]
        return ColumnBatch(self.columns, self.physical_rows, selection)

    def select(self, indices: Sequence[int]) -> "ColumnBatch":
        """Keep the logical rows at ``indices`` (in the given order)."""
        if self.selection is None:
            selection = list(indices)
        else:
            selection = [self.selection[i] for i in indices]
        return ColumnBatch(self.columns, self.physical_rows, selection)

    def project(self, names: Sequence[str]) -> "ColumnBatch":
        """Keep only the named columns (no data movement)."""
        columns = {n: self.columns[n] for n in names}
        return ColumnBatch(columns, self.physical_rows, self.selection)

    def compact(self) -> "ColumnBatch":
        """Materialize the selection vector into dense columns."""
        if self.selection is None:
            return self
        sel = self.selection
        columns = {
            name: Column(name, [col.values[i] for i in sel], col.type)
            for name, col in self.columns.items()
        }
        return ColumnBatch(columns, len(sel))

    def with_column(self, name: str, values: Sequence[Any], type_: str = "any") -> "ColumnBatch":
        """A new batch with one extra (or replaced) dense column.

        The batch must be compact (no pending selection), since the new
        column is aligned with logical rows.
        """
        if self.selection is not None:
            return self.compact().with_column(name, values, type_)
        if len(values) != self.physical_rows:
            raise DataSourceError(
                f"column {name!r} has {len(values)} rows, batch has {self.physical_rows}"
            )
        columns = dict(self.columns)
        columns[name] = Column(name, values, type_)
        return ColumnBatch(columns, self.physical_rows)

    @staticmethod
    def concat(batches: Sequence["ColumnBatch"]) -> "ColumnBatch":
        """Stack batches with identical column sets into one dense batch."""
        batches = [b for b in batches if len(b)]
        if not batches:
            return ColumnBatch({}, 0)
        names = batches[0].order
        columns: dict[str, Column] = {}
        for name in names:
            merged: list[Any] = []
            for b in batches:
                merged.extend(b.column(name))
            columns[name] = Column(name, merged, batches[0].columns[name].type)
        return ColumnBatch(columns, len(columns[names[0]]) if names else 0)

    def __repr__(self) -> str:
        sel = "" if self.selection is None else f", sel={len(self.selection)}"
        return f"ColumnBatch({len(self.order)} cols, {self.physical_rows} rows{sel})"


def read_columnar_batch(path: str | Path) -> tuple[ColumnBatch, Schema]:
    """Read a columnar file straight into a :class:`ColumnBatch`.

    Unlike :func:`read_columnar` this never builds per-row dicts — the
    on-disk layout is already column-wise, so decoding goes block → typed
    column with no row pivot.  This is the natural scan for the vectorized
    backend.
    """
    path = Path(path)
    if not path.exists():
        raise DataSourceError(f"no such columnar file: {path}")
    with open(path, "rb") as handle:
        if handle.read(len(MAGIC)) != MAGIC:
            raise DataSourceError(f"{path}: bad magic (not a columnar file)")
        (header_len,) = struct.unpack("<I", handle.read(4))
        header = json.loads(handle.read(header_len).decode("utf-8"))
        schema = Schema(tuple(Field(n, t) for n, t in header["schema"]))
        num_rows = header["rows"]
        columns: dict[str, Column] = {}
        for f in schema.fields:
            size_bytes = handle.read(4)
            if len(size_bytes) < 4:
                raise DataSourceError(f"{path}: truncated column {f.name!r}")
            (size,) = struct.unpack("<I", size_bytes)
            block = zlib.decompress(handle.read(size))
            columns[f.name] = Column(
                f.name, _decode_column(block, f, num_rows), f.type
            )
    return ColumnBatch(columns, num_rows), schema


def uniform_dict_records(records: Sequence[Any]) -> bool:
    """Whether every record is a dict with the same key set.

    This is the columnarizability precondition; it must hold across the
    WHOLE input, not per chunk — a ragged table split one-row-per-partition
    would otherwise produce batches with differing schemas.
    """
    if not records:
        return True
    first = records[0]
    if not isinstance(first, dict):
        return False
    key_view = first.keys()
    return all(isinstance(r, dict) and r.keys() == key_view for r in records)


def batch_partitions(
    records: Sequence[dict[str, Any]],
    num_partitions: int,
    schema: Schema | None = None,
) -> "list[ColumnBatch] | None":
    """Split records round-robin into per-partition column batches.

    Returns ``None`` when the records are not uniform dicts (the caller
    falls back to row-at-a-time execution).
    """
    records = records if isinstance(records, list) else list(records)
    if not uniform_dict_records(records):
        return None
    return [
        ColumnBatch.from_records(chunk, schema)
        for chunk in round_robin_split(records, num_partitions)
    ]
