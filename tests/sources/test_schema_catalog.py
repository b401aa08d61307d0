"""Unit tests for schemas, flattening, and the catalog."""

import pytest

from repro.errors import DataSourceError, SchemaError
from repro.sources import (
    Catalog,
    Field,
    Schema,
    flatten_records,
    write_records,
)


class TestSchema:
    def test_of_builder(self):
        s = Schema.of(a="int", b="str")
        assert s.names == ["a", "b"]

    def test_casters(self):
        s = Schema.of(a="int", b="float")
        assert [cast(v) for cast, v in zip(s.casters(), ["3", "4.5"])] == [3, 4.5]

    def test_field_lookup(self):
        s = Schema.of(a="int")
        assert s.field("a").type == "int"
        with pytest.raises(SchemaError):
            s.field("z")

    def test_bad_cast(self):
        with pytest.raises(SchemaError):
            Field("a", "int").cast("not-a-number")

    def test_unknown_type(self):
        with pytest.raises(SchemaError):
            Field("a", "decimal").cast("1")


class TestFlattening:
    def test_flatten_multiplies_rows(self):
        records = [{"t": "p1", "authors": ["a", "b", "c"]}]
        flat = flatten_records(records, "authors")
        assert len(flat) == 3
        assert {r["authors"] for r in flat} == {"a", "b", "c"}

    def test_flatten_empty_list_keeps_row(self):
        flat = flatten_records([{"t": "p", "authors": []}], "authors")
        assert len(flat) == 1 and flat[0]["authors"] is None

    def test_flatten_blows_up_size(self):
        # The Fig. 7 motivation: flat representations carry many more rows.
        records = [{"t": f"p{i}", "authors": ["a"] * 4} for i in range(10)]
        assert len(flatten_records(records, "authors")) == 40


class TestCatalog:
    def test_register_and_load(self, tmp_path):
        schema = Schema.of(a="int")
        rows = [{"a": 1}, {"a": 2}]
        path = tmp_path / "t.csv"
        write_records(path, rows, "csv", schema)
        catalog = Catalog()
        catalog.register("t", path, "csv", schema)
        assert catalog.load("t") == rows
        assert catalog.names() == ["t"]

    def test_all_formats_loadable(self, tmp_path):
        schema = Schema.of(a="int", b="str")
        rows = [{"a": 1, "b": "x"}]
        catalog = Catalog()
        for fmt in ("csv", "json", "columnar"):
            path = tmp_path / f"t.{fmt}"
            write_records(path, rows, fmt, schema)
            catalog.register(f"t_{fmt}", path, fmt, schema)
            assert catalog.load(f"t_{fmt}")[0]["a"] == 1

    def test_xml_loadable(self, tmp_path):
        schema = Schema.of(a="int", b="str")
        rows = [{"a": 1, "b": "x"}]
        path = tmp_path / "t.xml"
        write_records(path, rows, "xml")
        catalog = Catalog()
        catalog.register("t", path, "xml", schema)
        assert catalog.load("t")[0]["a"] == 1

    def test_unknown_source(self):
        with pytest.raises(DataSourceError):
            Catalog().load("missing")

    def test_unknown_format(self, tmp_path):
        with pytest.raises(DataSourceError):
            Catalog().register("t", tmp_path / "f", "avro")

    def test_csv_requires_schema(self, tmp_path):
        with pytest.raises(DataSourceError):
            Catalog().register("t", tmp_path / "f.csv", "csv")

    def test_write_records_unknown_format(self, tmp_path):
        with pytest.raises(DataSourceError):
            write_records(tmp_path / "f", [], "avro")
