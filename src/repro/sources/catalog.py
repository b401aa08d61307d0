"""A format-dispatching catalog: register files, load records uniformly.

The entry point CleanDB uses to "query heterogeneous data" (Fig. 2's left
edge): each source is a file plus a format tag; :meth:`Catalog.load` returns
records regardless of the underlying representation, and the format tag is
forwarded to the engine so scan costs differ per format.
"""

from __future__ import annotations

from importlib import import_module
from pathlib import Path
from typing import TYPE_CHECKING, Any, NamedTuple

from ..errors import DataSourceError

if TYPE_CHECKING:
    from .schema import Schema

_CODECS = {"csv": "csv_source", "json": "json_source", "xml": "xml_source", "columnar": "columnar"}
FORMATS = tuple(_CODECS)


def _codec(fmt: str) -> Any:
    """The module that reads and writes ``fmt``, imported when a file of that
    format is touched (listing FORMATS loads no parser)."""
    return import_module(f".{_CODECS[fmt]}", __package__)


class SourceEntry(NamedTuple):
    name: str
    path: Path
    fmt: str
    schema: Schema | None = None


class Catalog:
    """Named, file-backed data sources."""

    def __init__(self) -> None:
        self._entries: dict[str, SourceEntry] = {}

    def register(
        self, name: str, path: str | Path, fmt: str, schema: Schema | None = None
    ) -> SourceEntry:
        if fmt not in FORMATS:
            raise DataSourceError(f"unknown format {fmt!r}; known: {FORMATS}")
        if fmt in ("csv",) and schema is None:
            raise DataSourceError(f"format {fmt!r} requires a schema")
        entry = SourceEntry(name=name, path=Path(path), fmt=fmt, schema=schema)
        self._entries[name] = entry
        return entry

    def entry(self, name: str) -> SourceEntry:
        try:
            return self._entries[name]
        except KeyError:
            known = ", ".join(sorted(self._entries))
            raise DataSourceError(f"unknown source {name!r}; known: {known}") from None

    def load(self, name: str) -> list[dict[str, Any]]:
        entry = self.entry(name)
        if entry.fmt == "csv":
            assert entry.schema is not None
            return _codec("csv").read_csv(entry.path, entry.schema)
        if entry.fmt == "json":
            return _codec("json").read_json(entry.path)
        if entry.fmt == "xml":
            return _codec("xml").read_xml(entry.path, entry.schema)
        if entry.fmt == "columnar":
            records, _ = _codec("columnar").read_columnar(entry.path)
            return records
        raise DataSourceError(f"unknown format {entry.fmt!r}")

    def names(self) -> list[str]:
        return sorted(self._entries)


def write_records(
    path: str | Path, records: list[dict[str, Any]], fmt: str, schema: Schema | None = None
) -> int:
    """Serialize records in any supported format (schema where required)."""
    if fmt == "csv":
        if schema is None:
            raise DataSourceError("csv requires a schema")
        return _codec("csv").write_csv(path, records, schema)
    if fmt == "json":
        return _codec("json").write_json(path, records)
    if fmt == "xml":
        return _codec("xml").write_xml(path, records)
    if fmt == "columnar":
        if schema is None:
            raise DataSourceError("columnar requires a schema")
        return _codec("columnar").write_columnar(path, records, schema)
    raise DataSourceError(f"unknown format {fmt!r}; known: {FORMATS}")
