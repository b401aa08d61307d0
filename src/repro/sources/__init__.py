"""Heterogeneous data sources: CSV, JSON, XML, and a binary columnar format."""

from typing import TYPE_CHECKING

from .._lazy import lazy_surface

if TYPE_CHECKING:
    from .catalog import FORMATS, Catalog, SourceEntry, write_records
    from .columnar import (
        Column, ColumnBatch, batch_partitions, file_size, read_columnar,
        read_columnar_batch, write_columnar,
    )
    from .csv_source import read_csv, write_csv
    from .json_source import read_json, write_json
    from .schema import Field, Schema, flatten_records
    from .xml_source import read_xml, write_xml

__getattr__, __dir__, __all__ = lazy_surface(__name__, {
    "catalog": ("FORMATS", "Catalog", "SourceEntry", "write_records"),
    "columnar": (
        "Column", "ColumnBatch", "batch_partitions", "file_size", "read_columnar",
        "read_columnar_batch", "write_columnar",
    ),
    "csv_source": ("read_csv", "write_csv"),
    "json_source": ("read_json", "write_json"),
    "schema": ("Field", "Schema", "flatten_records"),
    "xml_source": ("read_xml", "write_xml"),
})
