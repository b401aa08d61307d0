"""CSV reader/writer.

The flat text format of the TPC-H experiments (Fig. 6a).  Quoting follows
RFC 4180 (double quotes, doubled to escape); nested attributes are joined
with ``|`` on write and split on read when the schema marks them ``list``.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Any, Iterable

from ..errors import DataSourceError
from .schema import Schema

LIST_SEPARATOR = "|"


def write_csv(path: str | Path, records: Iterable[dict[str, Any]], schema: Schema) -> int:
    """Write records; returns the row count."""
    count = 0
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(schema.names) + "\n")
        for record in records:
            cells = []
            for f in schema.fields:
                value = record.get(f.name)
                if f.type == "list" and isinstance(value, list):
                    cell = LIST_SEPARATOR.join(str(v) for v in value)
                else:
                    cell = "" if value is None else str(value)
                cells.append(_quote(cell))
            handle.write(",".join(cells) + "\n")
            count += 1
    return count


def read_csv(path: str | Path, schema: Schema) -> list[dict[str, Any]]:
    """Read an entire CSV file into records, casting via the schema."""
    path = Path(path)
    if not path.exists():
        raise DataSourceError(f"no such CSV file: {path}")
    names = schema.names
    casters = [
        _split_list if f.type == "list" else cast
        for f, cast in zip(schema.fields, schema.casters())
    ]
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
            records = []
            for cells in reader:
                if not cells:  # a blank line
                    continue
                if len(cells) != len(names):
                    raise DataSourceError(
                        f"{path}:{reader.line_num}: expected {len(names)} cells, found {len(cells)}"
                    )
                records.append(
                    {name: cast(cell) for name, cast, cell in zip(names, casters, cells)}
                )
        except csv.Error as exc:
            raise DataSourceError(f"{path}:{reader.line_num}: {exc}") from exc
    return records


def _split_list(cell: str) -> list[str]:
    return cell.split(LIST_SEPARATOR) if cell else []


def _quote(cell: str) -> str:
    if any(ch in cell for ch in (",", '"', "\n", "\r")):
        return '"' + cell.replace('"', '""') + '"'
    return cell
