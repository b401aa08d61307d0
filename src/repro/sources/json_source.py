"""JSON-lines reader/writer.

The "most popular data exchange format" of the Fig. 7 experiment.  Nested
attributes serialize naturally, so no schema is needed; one record per line
keeps reading streamable.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable

from ..errors import DataSourceError


def write_json(path: str | Path, records: Iterable[dict[str, Any]]) -> int:
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
            count += 1
    return count


def read_json(path: str | Path) -> list[dict[str, Any]]:
    path = Path(path)
    if not path.exists():
        raise DataSourceError(f"no such JSON file: {path}")
    records: list[dict[str, Any]] = []
    with open(path, "rb") as handle:  # decoded by line, so errors come in file order
        for line_number, raw in enumerate(handle, start=1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise DataSourceError.undecodable(path) from exc
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataSourceError(f"{path}:{line_number}: invalid JSON: {exc}") from exc
            if not isinstance(record, dict):
                raise DataSourceError(
                    f"{path}:{line_number}: expected an object, found {type(record).__name__}"
                )
            records.append(record)
    return records
