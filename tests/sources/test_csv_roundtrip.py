"""write_csv -> read_csv over hostile cell text, and the codec against the
line-at-a-time parser and the per-cell writer it replaced.

``_reference_read`` is the previous reader kept verbatim as the reference:
on any file it could read (no line break inside a cell) ``read_csv`` must
return ``==`` records.  ``_reference_write`` is the per-cell writer, kept
verbatim: the block writer must write the same bytes.  The block properties
shrink ``BLOCK_ROWS`` to 2 or 3 so that blocks end mid-table.
"""

import csv
import io
import tracemalloc
from unittest import mock

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import nully_dedup_rows, nully_fd_rows, nully_orders_rows
from repro.errors import DataSourceError, SchemaError
from repro.sources import csv_source
from repro.sources.csv_source import LIST_SEPARATOR, read_csv, write_csv
from repro.sources.schema import Field, Schema

SCHEMA = Schema((
    Field("text", "str"), Field("n", "int"), Field("x", "float"),
    Field("flag", "bool"), Field("tags", "list"), Field("tail", "str"),
))

# Commas, quotes, separators and both line-break characters are over-weighted;
# NUL is left out because the csv module of Python 3.10 rejects it.
_ALPHABET = st.one_of(
    st.sampled_from(list(',"|\n\r ab')),
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
)
_TEXT = st.one_of(st.none(), st.text(_ALPHABET, max_size=8))
_ONE_LINE = st.one_of(st.none(), st.text(_ALPHABET.filter(lambda c: c not in "\n\r"), max_size=8))
_TAG = st.text(st.sampled_from(list('a,"\n x')), min_size=1, max_size=4)


def _rows(text):
    return st.lists(
        st.fixed_dictionaries({
            "text": text,
            "n": st.one_of(st.none(), st.integers()),
            "x": st.one_of(st.none(), st.floats(allow_nan=False)),
            "flag": st.one_of(st.none(), st.booleans()),
            "tags": st.one_of(st.none(), st.lists(_TAG, max_size=3)),
            "tail": text,
        }),
        max_size=6,
    )


def _as_read(row):
    """What the reader hands back: ``""`` is ``None``, a missing list is empty."""
    out = {k: (None if v == "" else v) for k, v in row.items()}
    out["tags"] = row["tags"] or []
    return out


def _parse_line(line):
    cells, buf, in_quotes, i = [], io.StringIO(), False, 0
    while i < len(line):
        ch = line[i]
        if in_quotes:
            if ch == '"' and line[i : i + 2] == '""':
                buf.write('"')
                i += 2
                continue
            if ch == '"':
                in_quotes = False
                i += 1
                continue
            buf.write(ch)
        elif ch == '"':
            in_quotes = True
        elif ch == ",":
            cells.append(buf.getvalue())
            buf = io.StringIO()
        else:
            buf.write(ch)
        i += 1
    cells.append(buf.getvalue())
    return cells


def _reference_read(path, schema):
    with open(path, "r", encoding="utf-8") as handle:
        assert _parse_line(handle.readline().rstrip("\n")) == schema.names
        records = []
        for line in handle:
            line = line.rstrip("\n")
            if not line:
                continue
            record = {}
            for f, cell in zip(schema.fields, _parse_line(line), strict=True):
                if f.type == "list":
                    record[f.name] = cell.split(LIST_SEPARATOR) if cell else []
                else:
                    record[f.name] = f.cast(cell)
            records.append(record)
        return records


@settings(max_examples=150, deadline=None)
@given(rows=_rows(_TEXT))
def test_write_then_read_returns_the_rows(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("csv") / "rows.csv"
    assert write_csv(path, rows, SCHEMA) == len(rows)
    assert read_csv(path, SCHEMA) == [_as_read(row) for row in rows]


@settings(max_examples=150, deadline=None)
@given(rows=_rows(_ONE_LINE))
def test_reader_equals_the_line_parser_it_replaced(tmp_path_factory, rows):
    for row in rows:  # the old reader split physical lines: keep tags on one
        row["tags"] = row["tags"] and [t.replace("\n", " ") for t in row["tags"]]
    path = tmp_path_factory.mktemp("csv") / "rows.csv"
    write_csv(path, rows, SCHEMA)
    assert read_csv(path, SCHEMA) == _reference_read(path, SCHEMA)


def test_null_laden_fixture_rows_round_trip(tmp_path):
    for name, rows, schema in (
        ("fd", nully_fd_rows(), Schema.of(addr="str", phone="str", nation="int", _rid="int")),
        ("dc", nully_orders_rows(), Schema.of(price="float", qty="int", _rid="int")),
        ("dedup", nully_dedup_rows(), Schema.of(_rid="int", city="str", name="str")),
    ):
        assert any(None in row.values() for row in rows)
        path = tmp_path / f"{name}.csv"
        write_csv(path, rows, schema)
        assert read_csv(path, schema) == rows


# --------------------------------------------------------------------- #
# The block codec against the per-cell writer and reader it replaced
# --------------------------------------------------------------------- #
ONE_FIELD = Schema((Field("text", "str"),))
FLAT = Schema.of(id="int", name="str", score="float", active="bool")
_BLOCK = st.sampled_from([2, 3])


def _reference_quote(cell):
    if any(ch in cell for ch in (",", '"', "\n", "\r")):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _reference_write(path, records, schema):
    """The per-cell writer, verbatim (it wrote a one-field empty cell as a
    blank line; every schema it is compared under has several fields)."""
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
                cells.append(_reference_quote(cell))
            handle.write(",".join(cells) + "\n")
            count += 1
    return count


def _cell_at_a_time_read(path, schema):
    """The per-cell cast loop ``read_csv`` replaced: each row is cast as it
    is parsed, so its errors come in file order by construction."""
    casters = [csv_source._split_list if f.type == "list" else f.caster() for f in schema.fields]
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        try:
            assert next(reader) == schema.names
            records = []
            for cells in reader:
                if not cells:
                    continue
                if len(cells) != len(casters):
                    raise DataSourceError(
                        f"{path}:{reader.line_num}: expected {len(casters)} cells, found {len(cells)}"
                    )
                records.append({f.name: cast(c) for f, cast, c in zip(schema.fields, casters, cells)})
        except csv.Error as exc:
            raise DataSourceError(f"{path}:{reader.line_num}: {exc}") from exc
    return records


def _typed(records):
    """Records with each value's type beside it, so that ``1 == 1.0`` cannot hide a cast."""
    return [{k: (v, type(v)) for k, v in record.items()} for record in records]


def _outcome(read, path, schema):
    try:
        return _typed(read(path, schema))
    except (DataSourceError, SchemaError) as exc:
        return type(exc), str(exc)


@settings(max_examples=150, deadline=None)
@given(rows=_rows(_TEXT), block=_BLOCK)
def test_blocks_write_the_reference_bytes(tmp_path_factory, rows, block):
    folder = tmp_path_factory.mktemp("csv")
    with mock.patch.object(csv_source, "BLOCK_ROWS", block):
        assert write_csv(folder / "blocks.csv", rows, SCHEMA) == len(rows)
    _reference_write(folder / "cells.csv", rows, SCHEMA)
    assert (folder / "blocks.csv").read_bytes() == (folder / "cells.csv").read_bytes()


@settings(max_examples=150, deadline=None)
@given(rows=_rows(_TEXT), block=_BLOCK)
def test_blocks_read_back_the_rows_and_their_types(tmp_path_factory, rows, block):
    path = tmp_path_factory.mktemp("csv") / "rows.csv"
    with mock.patch.object(csv_source, "BLOCK_ROWS", block):
        write_csv(path, rows, SCHEMA)
        back = read_csv(path, SCHEMA)
    assert _typed(back) == _typed([_as_read(row) for row in rows])
    assert _typed(back) == _typed(_cell_at_a_time_read(path, SCHEMA))


@settings(max_examples=150, deadline=None)
@given(cells=st.lists(_TEXT, max_size=7), block=_BLOCK)
def test_a_one_field_table_round_trips(tmp_path_factory, cells, block):
    path = tmp_path_factory.mktemp("csv") / "one.csv"
    with mock.patch.object(csv_source, "BLOCK_ROWS", block):
        assert write_csv(path, [{"text": cell} for cell in cells], ONE_FIELD) == len(cells)
        assert read_csv(path, ONE_FIELD) == [{"text": cell or None} for cell in cells]


_CELL = st.one_of(
    st.sampled_from(["", "1", "-2", "0.5", "x", "seven", "1e3", "true", " 3"]),
    st.text(_ALPHABET, max_size=3),
)


# Mostly rows of the right width, so that casts fail before and after short rows.
_LINE = st.one_of(st.lists(_CELL, min_size=4, max_size=4), st.lists(_CELL, min_size=3, max_size=5))


@settings(max_examples=200, deadline=None)
@given(lines=st.lists(_LINE, max_size=8), block=_BLOCK)
def test_blocks_raise_the_first_bad_row_or_cell_in_file_order(tmp_path_factory, lines, block):
    """Short and long rows, bad casts, and bare quotes and line breaks that
    reshape the rows, at random places: the block reader returns or raises
    what the per-cell one did."""
    path = tmp_path_factory.mktemp("csv") / "bad.csv"
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(FLAT.names) + "\n")
        handle.writelines(",".join(cells) + "\n" for cells in lines)
    with mock.patch.object(csv_source, "BLOCK_ROWS", block):
        assert _outcome(read_csv, path, FLAT) == _outcome(_cell_at_a_time_read, path, FLAT)


def test_a_one_field_null_row_is_written_as_an_empty_quoted_cell(tmp_path):
    rows = [{"a": "x"}, {"a": None}, {"a": "y"}]
    path = tmp_path / "one.csv"
    assert write_csv(path, rows, Schema.of(a="str")) == 3
    assert path.read_text() == 'a\nx\n""\ny\n'
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows([["a"], ["x"], [""], ["y"]])
    assert out.getvalue() == path.read_text()  # the csv module's own convention
    assert read_csv(path, Schema.of(a="str")) == rows


def test_a_table_of_several_blocks_matches_both_references(tmp_path):
    """Two and a half blocks at the shipped block size, each taking another
    path: plain cells, then quoted text and nulls in ``n`` (the caster
    instead of bare ``int``), then nulls in ``x`` and lists."""
    size = csv_source.BLOCK_ROWS
    rows = []
    for i in range(2 * size + size // 2):
        part = i // size
        rows.append({
            "text": f"row {i}" if part != 1 else f'say "{i}", twice',
            "n": None if part == 1 and i % 7 == 0 else i,
            "x": None if part == 2 and i % 5 == 0 else i / 4,
            "flag": i % 3 == 0,
            "tags": [f"t{i}", "u"] if part == 2 else None,
            "tail": "" if part == 0 and i % 11 == 0 else "end",
        })
    path = tmp_path / "blocks.csv"
    assert write_csv(path, rows, SCHEMA) == len(rows)
    _reference_write(tmp_path / "cells.csv", rows, SCHEMA)
    assert path.read_bytes() == (tmp_path / "cells.csv").read_bytes()
    back = read_csv(path, SCHEMA)
    assert all(list(record) == SCHEMA.names for record in back)
    assert _typed(back) == _typed(_reference_read(path, SCHEMA))
    assert _typed(back) == _typed([_as_read(row) for row in rows])


_BIG = "x" * (csv.field_size_limit() + 1)


@pytest.mark.parametrize("block", [2, 3, csv_source.BLOCK_ROWS])
@pytest.mark.parametrize("body, error, message", [
    # a bad cast, then a short row later in the same block
    ("1,a,1.0,true\nseven,b,1.0,true\n3,c,1.0,true\n4,d\n",
     SchemaError, "cannot cast 'seven' to int for field 'id'"),
    # bad cells in two columns: the later column's is in the earlier row,
    # and that column also holds an empty cell (its caster, not bare float)
    ("1,a,,true\n2,b,oops,true\nnine,c,1.0,true\n",
     SchemaError, "cannot cast 'oops' to float for field 'score'"),
    # a bad cast, then a cell the csv module refuses
    (f"1,a,1.0,true\nseven,b,1.0,true\n3,{_BIG},1.0,true\n",
     SchemaError, "cannot cast 'seven' to int for field 'id'"),
    # a short row before a bad cast is the error
    ("1,a,1.0,true\n2,b\nseven,c,1.0,true\n",
     DataSourceError, "{path}:3: expected 4 cells, found 2"),
    (f"1,a,1.0,true\n3,{_BIG},1.0,true\nseven,b,1.0,true\n",
     DataSourceError, f"{{path}}:3: field larger than field limit ({csv.field_size_limit()})"),
])
def test_the_first_bad_row_or_cell_is_the_one_reported(tmp_path, block, body, error, message):
    path = tmp_path / "bad.csv"
    path.write_text("id,name,score,active\n" + body)
    with mock.patch.object(csv_source, "BLOCK_ROWS", block), pytest.raises(error) as excinfo:
        read_csv(path, FLAT)
    assert str(excinfo.value) == message.format(path=path)


def test_a_bad_cast_is_reported_before_an_undecodable_byte_further_on(tmp_path):
    """The text layer decodes ahead of the rows the reader has taken, so a
    bad byte a few kilobytes past a bad cell (in rows of the same block)
    must not preempt it."""
    path = tmp_path / "bytes.csv"
    rows = "".join(f"{i},name {i},1.5,true\n" for i in range(600))
    path.write_bytes(f"id,name,score,active\nseven,a,1.0,true\n{rows}".encode() + b"9,\xff,1.0,true\n")
    with pytest.raises(SchemaError, match="cannot cast 'seven' to int for field 'id'"):
        read_csv(path, FLAT)



@pytest.mark.parametrize("block", [2, csv_source.BLOCK_ROWS])
def test_a_bad_cell_carries_its_line(tmp_path, block):
    """Blank lines and a cell over two lines make the record number (3) and
    the line differ; the message stays the caster's own."""
    path = tmp_path / "bad.csv"
    path.write_text('id,name,score,active\n1,a,1.0,true\n\n2,"b\nb",1.0,true\nseven,c,1.0,true\n')
    with mock.patch.object(csv_source, "BLOCK_ROWS", block), pytest.raises(SchemaError) as excinfo:
        read_csv(path, FLAT)
    assert str(excinfo.value) == "cannot cast 'seven' to int for field 'id'"
    assert excinfo.value.location == f"{path}:6"


def test_an_undecodable_byte_is_a_data_source_error_naming_its_line(tmp_path):
    path = tmp_path / "bytes.csv"
    rows = "".join(f"{i},name {i},1.5,true\n" for i in range(600))
    path.write_bytes(f"id,name,score,active\n{rows}".encode() + b"9,\xff,1.0,true\n")
    with pytest.raises(DataSourceError) as excinfo:
        read_csv(path, FLAT)
    assert str(excinfo.value) == f"{path}:602: cannot decode byte 0xff as UTF-8 (invalid start byte)"
    assert isinstance(excinfo.value.__cause__, UnicodeDecodeError)

def _memory_rows(count):
    return [
        {"text": f"name {i}", "n": i, "x": i * 0.25, "flag": i % 2 == 0,
         "tags": [f"t{i}", "u"] if i % 3 else None, "tail": None if i % 5 == 0 else f'say "{i}"'}
        for i in range(count)
    ]


def _transient_peaks(path, count):
    """(write, read) transient peaks in bytes: the traced peak less what the
    call leaves behind (the read's result)."""
    rows = _memory_rows(count)
    tracemalloc.start()
    try:
        write_csv(path, rows, SCHEMA)
        write_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        back = read_csv(path, SCHEMA)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(back) == count
    return write_peak, peak - current


def test_reading_or_writing_holds_about_one_block_at_a_time(tmp_path):
    """Ten blocks cost the transient memory of one, within 25 %.  Measured:
    the ten-block peaks were 0.99x (read) and 1.05x (write) the one-block
    ones; a codec that transposed the whole table would read about 10x."""
    size = csv_source.BLOCK_ROWS
    assert 256 <= size <= 2048  # a few hundred to about a thousand rows
    one_write, one_read = _transient_peaks(tmp_path / "one.csv", size)
    ten_write, ten_read = _transient_peaks(tmp_path / "ten.csv", 10 * size)
    assert ten_write <= 1.25 * one_write, (ten_write, one_write)
    assert ten_read <= 1.25 * one_read, (ten_read, one_read)
