"""CSV reader/writer.

The flat text format of the TPC-H experiments (Fig. 6a).  Quoting follows
RFC 4180 (double quotes, doubled to escape); nested attributes are joined
with ``|`` on write and split on read when the schema marks them ``list``.
"""

from __future__ import annotations

import csv
import re
from itertools import islice
from pathlib import Path
from typing import Any, Callable, Iterable

from ..errors import DataSourceError, SchemaError
from .schema import Field, Schema

LIST_SEPARATOR = "|"
BLOCK_ROWS = 1024  # rows taken at a time: a block, never the whole table, is transposed
_FAST_CASTS: dict[str, Callable[[str], Any]] = {"int": int, "float": float}
_SPECIAL = re.compile('[,"\n\r]').search  # a cell holding one of these is quoted


def write_csv(path: str | Path, records: Iterable[dict[str, Any]], schema: Schema) -> int:
    """Write records; returns the row count."""
    count, rows, lone = 0, iter(records), len(schema.fields) == 1
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(schema.names) + "\n")
        while block := list(islice(rows, BLOCK_ROWS)):
            columns = (_cells(block, f, lone) for f in schema.fields)
            handle.write("\n".join(map(",".join, zip(*columns))) + "\n")
            count += len(block)
    return count


def read_csv(path: str | Path, schema: Schema) -> list[dict[str, Any]]:
    """Read an entire CSV file into records, casting via the schema.  The
    first bad row or cell in file order is the error, whatever the blocks.
    A bad cell's ``SchemaError`` keeps the caster's message and carries
    ``location`` (``path:line``)."""
    path = Path(path)
    if not path.exists():
        raise DataSourceError(f"no such CSV file: {path}")
    names = schema.names
    casters = [_split_list if f.type == "list" else f.caster() for f in schema.fields]
    kinds = [f.type for f in schema.fields]
    records: list[dict[str, Any]] = []
    block: list[list[str]] = []
    # newline="" hands line endings to the csv module, which is what lets a
    # quoted cell span lines (and still accepts \r\n files).
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, None)
            if header is None:
                raise DataSourceError(f"empty CSV file: {path}")
            if header != names:
                raise DataSourceError(f"CSV header {header} does not match schema {names}")
            for cells in reader:
                if not cells:  # a blank line
                    continue
                if len(cells) != len(names):
                    raise DataSourceError(
                        f"{path}:{reader.line_num}: expected {len(names)} cells, found {len(cells)}"
                    )
                block.append(cells)
                if len(block) == BLOCK_ROWS:
                    records += _cast_block(block, names, kinds, casters, path, len(records))
                    block = []
        except (csv.Error, DataSourceError, UnicodeDecodeError) as exc:
            # an earlier bad cell is reported first
            _cast_block(block, names, kinds, casters, path, len(records))
            if isinstance(exc, csv.Error):
                raise DataSourceError(f"{path}:{reader.line_num}: {exc}") from exc
            if isinstance(exc, UnicodeDecodeError):
                raise DataSourceError.undecodable(path) from exc
            raise
    records += _cast_block(block, names, kinds, casters, path, len(records))
    return records


def _line_of(path: Path, record: int) -> int:
    """The line on which data record ``record`` (1-based) ends, by a re-read
    that only an error pays for."""
    with open(path, "r", encoding="utf-8", errors="replace", newline="") as handle:
        reader = csv.reader(handle)
        next(islice(filter(None, reader), record, None))  # the header, then the records
        return reader.line_num


def _split_list(cell: str) -> list[str]:
    return cell.split(LIST_SEPARATOR) if cell else []


def _cast_block(
    rows: list[list[str]], names: list[str], kinds: list[str], casters: list[Callable[[str], Any]],
    path: Path, start: int,
) -> list[dict[str, Any]]:
    """Cast a block column by column: without an empty cell, a ``str`` column
    is kept and an ``int`` / ``float`` one mapped through the bare type, any
    other column through its caster.  If one fails, re-run the block row by
    row, which raises for the first bad cell in file order; ``start`` is the
    count of records before the block, so the error can say where it is."""
    try:
        columns = [
            list(map(cast, column)) if "" in column
            else column if kind == "str" else list(map(_FAST_CASTS.get(kind, cast), column))
            for column, kind, cast in zip(zip(*rows), kinds, casters)
        ]
    except (ValueError, SchemaError):
        records = []
        for cells in rows:
            try:
                records.append({n: cast(cell) for n, cast, cell in zip(names, casters, cells)})
            except SchemaError as exc:
                exc.location = f"{path}:{_line_of(path, start + len(records) + 1)}"
                raise
        return records
    return [dict(zip(names, values)) for values in zip(*columns)]


def _cells(block: list[dict[str, Any]], f: Field, lone: bool) -> list[str]:
    """One column's cell text, quoted cell by cell only if the column holds a
    special character.  In a one-field table an empty cell is written ``""``,
    as the csv module does, since a blank line is no row to a reader."""
    values = [record.get(f.name) for record in block]
    if f.type == "list":
        values = [LIST_SEPARATOR.join(map(str, v)) if isinstance(v, list) else v for v in values]
    cells = ["" if v is None else str(v) for v in values]
    if _SPECIAL("".join(cells)):
        cells = ['"' + cell.replace('"', '""') + '"' if _SPECIAL(cell) else cell for cell in cells]
    return [cell or '""' for cell in cells] if lone else cells
