"""A JSON or XML input error names its file: an undecodable JSON byte is a
``DataSourceError`` naming ``path:line``, and an XML bad cast keeps the
caster's message and carries a ``location`` naming the file and record."""

import pytest

from repro.errors import DataSourceError, SchemaError
from repro.sources.json_source import read_json
from repro.sources.schema import Schema
from repro.sources.xml_source import read_xml


def test_an_undecodable_json_byte_names_its_line(tmp_path):
    path = tmp_path / "byte.json"
    path.write_bytes(b'{"a": 1}\n\n{"a": "x\xff"}\n')
    with pytest.raises(DataSourceError) as excinfo:
        read_json(path)
    assert str(excinfo.value) == f"{path}:3: cannot decode byte 0xff as UTF-8 (invalid start byte)"
    assert isinstance(excinfo.value.__cause__, UnicodeDecodeError)


def test_a_bad_json_line_is_reported_before_an_undecodable_byte_further_on(tmp_path):
    """A text layer decodes ahead of the lines taken: a bad byte in the same
    read-ahead as an earlier bad line must not preempt it."""
    path = tmp_path / "both.json"
    path.write_bytes(b'{"a": 1}\n{not json}\n{"a": "x\xff"}\n')
    with pytest.raises(DataSourceError, match=f"^{path}:2: invalid JSON"):
        read_json(path)


def test_an_xml_bad_cast_names_its_file_and_record(tmp_path):
    path = tmp_path / "cast.xml"
    path.write_text("<records><record><a>1</a></record><record><a>seven</a></record></records>")
    with pytest.raises(SchemaError) as excinfo:
        read_xml(path, Schema.of(a="int"))
    assert str(excinfo.value) == "cannot cast 'seven' to int for field 'a'"
    assert excinfo.value.location == f"{path}: record 2"
