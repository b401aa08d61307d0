"""Round-trip tests for every storage format."""

import pytest

from repro.errors import DataSourceError, SchemaError
from repro.sources import (
    Field,
    Schema,
    file_size,
    read_columnar,
    read_csv,
    read_json,
    read_xml,
    write_columnar,
    write_csv,
    write_json,
    write_xml,
)

FLAT_SCHEMA = Schema.of(id="int", name="str", score="float", active="bool")
NESTED_SCHEMA = Schema(
    (Field("title", "str"), Field("year", "int"), Field("authors", "list"))
)


def flat_rows():
    return [
        {"id": 1, "name": "alice", "score": 9.5, "active": True},
        {"id": 2, "name": 'has,"quotes"', "score": 0.5, "active": False},
        {"id": 3, "name": "", "score": 1.0, "active": True},
    ]


def nested_rows():
    return [
        {"title": "paper one", "year": 2001, "authors": ["a b", "c d"]},
        {"title": "paper two", "year": 2002, "authors": []},
    ]


class TestCSV:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "data.csv"
        write_csv(path, flat_rows(), FLAT_SCHEMA)
        back = read_csv(path, FLAT_SCHEMA)
        assert back[0]["id"] == 1 and back[0]["score"] == 9.5
        assert back[1]["name"] == 'has,"quotes"'

    def test_bool_cast(self, tmp_path):
        path = tmp_path / "data.csv"
        write_csv(path, flat_rows(), FLAT_SCHEMA)
        back = read_csv(path, FLAT_SCHEMA)
        assert back[0]["active"] is True and back[1]["active"] is False

    def test_empty_becomes_none(self, tmp_path):
        path = tmp_path / "data.csv"
        write_csv(path, flat_rows(), FLAT_SCHEMA)
        assert read_csv(path, FLAT_SCHEMA)[2]["name"] is None

    def test_list_field_round_trip(self, tmp_path):
        path = tmp_path / "nested.csv"
        write_csv(path, nested_rows(), NESTED_SCHEMA)
        back = read_csv(path, NESTED_SCHEMA)
        assert back[0]["authors"] == ["a b", "c d"]

    def test_header_mismatch_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        write_csv(path, flat_rows(), FLAT_SCHEMA)
        with pytest.raises(DataSourceError):
            read_csv(path, Schema.of(other="int"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataSourceError, match="no such CSV file"):
            read_csv(tmp_path / "nope.csv", FLAT_SCHEMA)

    def test_quoted_newline_round_trips(self, tmp_path):
        """``write_csv`` quotes a cell holding a line break, so the reader
        has to read records, not physical lines."""
        schema = Schema.of(a="str", b="int")
        rows = [{"a": "x\ny", "b": 1}, {"a": "cr\r\nlf", "b": 2}, {"a": "z", "b": 3}]
        path = tmp_path / "multiline.csv"
        write_csv(path, rows, schema)
        assert read_csv(path, schema) == rows

    @pytest.mark.parametrize("line, found", [("1,alice,9.5", 3), ("1,alice,9.5,true,extra", 5)])
    def test_wrong_cell_count_names_path_and_line(self, tmp_path, line, found):
        path = tmp_path / "data.csv"
        path.write_text(f"id,name,score,active\n2,bob,1.0,true\n\n{line}\n")
        with pytest.raises(DataSourceError) as excinfo:
            read_csv(path, FLAT_SCHEMA)
        assert str(excinfo.value) == f"{path}:4: expected 4 cells, found {found}"

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataSourceError, match=f"empty CSV file: {path}"):
            read_csv(path, FLAT_SCHEMA)

    def test_blank_lines_skipped_and_crlf_accepted(self, tmp_path):
        path = tmp_path / "crlf.csv"
        path.write_bytes(b"id,name,score,active\r\n1,alice,9.5,True\r\n\r\n2,,0.5,0\r\n")
        assert read_csv(path, FLAT_SCHEMA) == [
            {"id": 1, "name": "alice", "score": 9.5, "active": True},
            {"id": 2, "name": None, "score": 0.5, "active": False},
        ]

    def test_bad_cell_is_a_schema_error(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("id,name,score,active\nseven,bob,1.0,true\n")
        with pytest.raises(SchemaError, match="cannot cast 'seven' to int for field 'id'"):
            read_csv(path, FLAT_SCHEMA)


class TestJSON:
    def test_round_trip_nested(self, tmp_path):
        path = tmp_path / "data.json"
        write_json(path, nested_rows())
        assert read_json(path) == nested_rows()

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json}\n")
        with pytest.raises(DataSourceError):
            read_json(path)

    def test_non_object_line_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1,2,3]\n")
        with pytest.raises(DataSourceError):
            read_json(path)


class TestXML:
    def test_round_trip_nested(self, tmp_path):
        path = tmp_path / "data.xml"
        write_xml(path, nested_rows())
        back = read_xml(path, NESTED_SCHEMA)
        assert back[0]["title"] == "paper one"
        assert back[0]["year"] == 2001
        assert back[0]["authors"] == ["a b", "c d"]

    def test_without_schema_strings(self, tmp_path):
        path = tmp_path / "data.xml"
        write_xml(path, nested_rows())
        back = read_xml(path)
        assert back[0]["year"] == "2001"

    def test_invalid_xml(self, tmp_path):
        path = tmp_path / "bad.xml"
        path.write_text("<open>")
        with pytest.raises(DataSourceError):
            read_xml(path)


class TestColumnar:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "data.rcol"
        write_columnar(path, flat_rows(), FLAT_SCHEMA)
        back, schema = read_columnar(path)
        assert back[0]["id"] == 1
        assert schema.names == FLAT_SCHEMA.names

    def test_nested_round_trip(self, tmp_path):
        path = tmp_path / "nested.rcol"
        write_columnar(path, nested_rows(), NESTED_SCHEMA)
        back, _ = read_columnar(path)
        assert back[0]["authors"] == ["a b", "c d"]
        assert back[1]["authors"] == []

    def test_compression_beats_csv_for_repetitive_data(self, tmp_path):
        rows = [{"id": i, "name": "same name", "score": 1.0, "active": True} for i in range(500)]
        csv_path = tmp_path / "d.csv"
        col_path = tmp_path / "d.rcol"
        write_csv(csv_path, rows, FLAT_SCHEMA)
        write_columnar(col_path, rows, FLAT_SCHEMA)
        assert file_size(col_path) < file_size(csv_path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.rcol"
        path.write_bytes(b"NOTCOL\n12345")
        with pytest.raises(DataSourceError):
            read_columnar(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "trunc.rcol"
        write_columnar(path, flat_rows(), FLAT_SCHEMA)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 30])
        with pytest.raises(Exception):
            read_columnar(path)
