"""write_csv -> read_csv over hostile cell text, and the reader against the
line-at-a-time parser it replaced.

``_reference_read`` is the previous reader kept verbatim as the reference:
on any file it could read (no line break inside a cell) ``read_csv`` must
return ``==`` records.
"""

import io

from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import nully_dedup_rows, nully_fd_rows, nully_orders_rows
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
