"""Unit tests for the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main, parse_table_spec
from repro.sources import Schema, write_records


@pytest.fixture
def customer_csv(tmp_path):
    schema = Schema.of(name="str", address="str", nationkey="int")
    rows = [
        {"name": "ann", "address": "x", "nationkey": 1},
        {"name": "bob", "address": "x", "nationkey": 2},
    ]
    path = tmp_path / "customer.csv"
    write_records(path, rows, "csv", schema)
    return path


class TestParseTableSpec:
    def test_full_spec(self):
        name, path, fmt, schema = parse_table_spec(
            "t=/data/f.csv:csv:a:int,b:str"
        )
        assert name == "t" and fmt == "csv"
        assert schema.names == ["a", "b"]
        assert schema.field("a").type == "int"

    def test_no_schema(self):
        name, path, fmt, schema = parse_table_spec("t=/data/f.json:json")
        assert fmt == "json" and schema is None

    def test_missing_equals(self):
        with pytest.raises(ValueError):
            parse_table_spec("nonsense")

    def test_missing_format(self):
        with pytest.raises(ValueError):
            parse_table_spec("t=/data/file")

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            parse_table_spec("t=/data/f.avro:avro")

    def test_bad_schema_entry(self):
        with pytest.raises(ValueError):
            parse_table_spec("t=f.csv:csv:notypehere")


class TestCommands:
    def test_formats(self, capsys):
        assert main(["formats"]) == 0
        out = capsys.readouterr().out
        assert "csv" in out and "columnar" in out

    def test_query(self, customer_csv, capsys):
        code = main(
            [
                "query",
                "--table",
                f"customer={customer_csv}:csv:name:str,address:str,nationkey:int",
                "--nodes", "2",
                "SELECT * FROM customer c FD(c.address, c.nationkey)",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "branch 'fd1'" in out
        assert "1 rows" in out

    def test_query_parallel_backend_matches_row(self, customer_csv, capsys):
        args_tail = [
            "--table",
            f"customer={customer_csv}:csv:name:str,address:str,nationkey:int",
            "--nodes", "2",
            "SELECT * FROM customer c FD(c.address, c.nationkey)",
        ]
        assert main(["query"] + args_tail) == 0
        row_out = capsys.readouterr().out
        assert (
            main(["query", "--execution", "parallel", "--workers", "2"] + args_tail)
            == 0
        )
        parallel_out = capsys.readouterr().out
        assert parallel_out == row_out

    def test_parallel_reports_measured_time(self, customer_csv, capsys):
        code = main(
            [
                "query", "--metrics", "--execution", "parallel", "--workers", "2",
                "--table",
                f"customer={customer_csv}:csv:name:str,address:str,nationkey:int",
                "SELECT * FROM customer c FD(c.address, c.nationkey)",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert '"measured_time"' in out

    def test_explain(self, customer_csv, capsys):
        code = main(
            [
                "explain",
                "--table",
                f"customer={customer_csv}:csv:name:str,address:str,nationkey:int",
                "SELECT * FROM customer c",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Physical plan" in out

    def test_metrics_flag(self, customer_csv, capsys):
        main(
            [
                "query", "--metrics",
                "--table",
                f"customer={customer_csv}:csv:name:str,address:str,nationkey:int",
                "SELECT * FROM customer c",
            ]
        )
        out = capsys.readouterr().out
        assert "simulated_time" in out

    def test_sql_from_file(self, customer_csv, tmp_path, capsys):
        sql_file = tmp_path / "q.sql"
        sql_file.write_text("SELECT * FROM customer c")
        code = main(
            [
                "query",
                "--table",
                f"customer={customer_csv}:csv:name:str,address:str,nationkey:int",
                f"@{sql_file}",
            ]
        )
        assert code == 0

    def test_error_reported_not_raised(self, capsys):
        code = main(["query", "SELECT * FROM missing m"])
        err = capsys.readouterr().err
        assert code == 1
        assert "error:" in err

    def test_parse_error_reported(self, customer_csv, capsys):
        code = main(
            [
                "query",
                "--table",
                f"customer={customer_csv}:csv:name:str,address:str,nationkey:int",
                "SELEKT oops",
            ]
        )
        assert code == 1

    def test_budget_flag_triggers_failure(self, customer_csv, capsys):
        code = main(
            [
                "query", "--budget", "0.5",
                "--table",
                f"customer={customer_csv}:csv:name:str,address:str,nationkey:int",
                "SELECT * FROM customer c",
            ]
        )
        assert code == 1
        assert "budget" in capsys.readouterr().err


CUSTOMER = "customer={}:csv:name:str,address:str,nationkey:int"


@pytest.mark.parametrize("command", [["query"], ["check"]])
@pytest.mark.parametrize("body, reason", [
    (None, "[Errno 2] No such file or directory: '{path}'"),
    (b"SELECT *\nFROM customer c \xff\n", "{path}:2: cannot decode byte 0xff as UTF-8 (invalid start byte)"),
], ids=["missing", "not-utf8"])
def test_an_unreadable_query_file_is_one_error_line(customer_csv, tmp_path, command, body, reason):
    """A missing or non-UTF-8 ``@file`` is reported, not raised."""
    path = tmp_path / "q.sql"
    if body is not None:
        path.write_bytes(body)
    done = subprocess.run(
        [sys.executable, "-m", "repro", *command, "--table", CUSTOMER.format(customer_csv),
         f"@{path}"],
        env={**os.environ, "PYTHONPATH": str(Path(repro.__file__).resolve().parents[1])},
        capture_output=True, text=True, timeout=120,
    )
    expected = f"error: cannot read query {path}: {reason.format(path=path)}\n"
    assert (done.returncode, done.stdout, done.stderr) == (1, "", expected)


@pytest.mark.parametrize("argv, message", [
    (["query", "--nodes", "0"], "num_nodes must be positive"),
    (["query", "--execution", "parallel", "--workers", "0"], "workers must be positive"),
    (["dc", "--nodes", "0", "--rule", "t1.nationkey < t2.nationkey"], "num_nodes must be positive"),
])
def test_an_invalid_cluster_size_is_one_error_line(customer_csv, capsys, argv, message):
    sql = [] if argv[0] == "dc" else ["SELECT * FROM customer c"]
    assert main([*argv, "--table", CUSTOMER.format(customer_csv), *sql]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


@pytest.mark.parametrize("command", [["query"], ["query", "--execution", "parallel"]])
def test_a_cli_table_keeps_the_rows_its_reader_made(customer_csv, monkeypatch, capsys, command):
    """The rows ``Catalog.load`` returned are the registered rows, each
    stamped with its position: registration copies none of them."""
    from repro.core.tables import TableStore
    from repro.sources.catalog import Catalog

    read, registered = [], []
    load, register = Catalog.load, TableStore.register

    def loaded(self, name):
        read.append(load(self, name))
        return read[-1]

    def spied(self, name, records, fmt="memory"):
        register(self, name, records, fmt)
        registered.append(self.get(name))

    monkeypatch.setattr(Catalog, "load", loaded)
    monkeypatch.setattr(TableStore, "register", spied)
    argv = [*command, "--table", CUSTOMER.format(customer_csv), "SELECT * FROM customer c"]
    assert main(argv) == 0
    [rows], [table] = read, registered
    assert len(table) == len(rows) == 2
    assert all(mine is theirs for mine, theirs in zip(table, rows))
    assert [row["_rid"] for row in table] == [0, 1]


@pytest.mark.parametrize("command", [["formats"], ["query", "--metrics"], ["explain"], ["dc"]])
def test_a_reader_that_closed_early_gets_exit_1_and_no_traceback(customer_csv, command):
    """``repro query ... | head``: every write to stdout fails with EPIPE,
    because the pipe's only reader is closed before the command starts."""
    if command != ["formats"]:
        command = command + [
            "--table", f"customer={customer_csv}:csv:name:str,address:str,nationkey:int",
            *(["--rule", "t1.nationkey < t2.nationkey", "--metrics"] if command == ["dc"]
              else ["SELECT * FROM customer c FD(c.address, c.nationkey)"]),
        ]
    reader, writer = os.pipe()
    os.close(reader)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "repro", *command], stdout=writer, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": str(Path(repro.__file__).resolve().parents[1])},
            text=True, timeout=120,
        )
    finally:
        os.close(writer)
    assert (done.returncode, done.stderr) == (1, "")



@pytest.mark.parametrize("body, message", [
    # a blank line and a quoted cell over two lines come before the bad cell
    (b'id,name\n1,ann\n\n2,"bo\nb"\nseven,cy\n', "{path}:6: cannot cast 'seven' to int for field 'id'"),
    (b"id,name\n1,ann\n2,b\xffb\n", "{path}:3: cannot decode byte 0xff as UTF-8 (invalid start byte)"),
])
def test_a_bad_csv_cell_or_byte_names_its_file_and_line(tmp_path, body, message):
    """With two ``--table`` files, the error says which one and where: one
    ``error:`` line, exit 1, no traceback."""
    good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
    good.write_text("id,name\n1,a\n")
    bad.write_bytes(body)
    done = subprocess.run(
        [sys.executable, "-m", "repro", "query", "--table", f"g={good}:csv:id:int,name:str",
         "--table", f"t={bad}:csv:id:int,name:str", "SELECT * FROM t x"],
        env={**os.environ, "PYTHONPATH": str(Path(repro.__file__).resolve().parents[1])},
        capture_output=True, text=True, timeout=120,
    )
    assert (done.returncode, done.stderr) == (1, f"error: {message.format(path=bad)}\n")

class TestDCCommand:
    @pytest.fixture
    def lineitem_csv(self, tmp_path):
        schema = Schema.of(price="float", discount="float")
        rows = [
            {"price": 10.0, "discount": 0.05},
            {"price": 20.0, "discount": 0.01},
            {"price": 30.0, "discount": 0.10},
        ]
        path = tmp_path / "lineitem.csv"
        write_records(path, rows, "csv", schema)
        return path

    def test_dc_check(self, lineitem_csv, capsys):
        code = main(
            [
                "dc",
                "--table", f"lineitem={lineitem_csv}:csv:price:float,discount:float",
                "--rule", "t1.price < t2.price and t1.discount > t2.discount",
                "--metrics",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "1 violating pairs (banded)" in out
        assert "pruning_ratio" in out

    def test_dc_repair(self, lineitem_csv, capsys):
        code = main(
            [
                "dc",
                "--table", f"lineitem={lineitem_csv}:csv:price:float,discount:float",
                "--rule", "t1.price < t2.price and t1.discount > t2.discount",
                "--where", "t1.price < 15",
                "--dc-strategy", "banded",
                "--repair",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "repair by relaxation" in out
        assert "residual violations: 0" in out

    def test_dc_bad_rule_errors(self, lineitem_csv, capsys):
        code = main(
            [
                "dc",
                "--table", f"lineitem={lineitem_csv}:csv:price:float,discount:float",
                "--rule", "price ~ discount",
            ]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_dc_requires_on_with_multiple_tables(self, lineitem_csv, capsys):
        code = main(
            [
                "dc",
                "--table", f"a={lineitem_csv}:csv:price:float,discount:float",
                "--table", f"b={lineitem_csv}:csv:price:float,discount:float",
                "--rule", "t1.price < t2.price",
            ]
        )
        assert code == 1
        assert "--on" in capsys.readouterr().err

    def test_dc_on_unknown_table_errors(self, lineitem_csv, capsys):
        """--on naming an unregistered table must exit 1 with the CLI's
        clean error contract, never a raw traceback."""
        code = main(
            [
                "dc",
                "--table", f"a={lineitem_csv}:csv:price:float,discount:float",
                "--table", f"b={lineitem_csv}:csv:price:float,discount:float",
                "--rule", "t1.price < t2.price and t1.discount > t2.discount",
                "--on", "nope",
            ]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert "error:" in err
        assert "unknown table 'nope'" in err
        assert "registered: a, b" in err
        assert "Traceback" not in err

    def test_dc_on_selects_among_multiple_tables(self, lineitem_csv, capsys):
        code = main(
            [
                "dc",
                "--table", f"a={lineitem_csv}:csv:price:float,discount:float",
                "--table", f"b={lineitem_csv}:csv:price:float,discount:float",
                "--rule", "t1.price < t2.price and t1.discount > t2.discount",
                "--on", "b",
            ]
        )
        assert code == 0
        assert "violating pairs" in capsys.readouterr().out


class TestServeCommand:
    @pytest.fixture
    def customer_csv(self, tmp_path):
        schema = Schema.of(name="str", address="str", nationkey="int")
        rows = [
            {"name": f"n{i % 3}", "address": f"a{i % 2}", "nationkey": i % 4}
            for i in range(12)
        ]
        path = tmp_path / "customer.csv"
        write_records(path, rows, "csv", schema)
        return path

    def _workload(self, tmp_path, payload):
        import json

        path = tmp_path / "workload.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        return path

    def test_serve_runs_multi_tenant_workload(self, tmp_path, customer_csv, capsys):
        workload = self._workload(
            tmp_path,
            [
                {"tenant": "acme", "op": "fd", "table": "c",
                 "lhs": ["address"], "rhs": ["nationkey"]},
                {"tenant": "zen", "op": "dedup", "table": "c",
                 "attributes": ["name"], "theta": 0.5},
            ],
        )
        code = main(
            [
                "serve",
                "--table", f"acme/c={customer_csv}:csv:name:str,address:str,nationkey:int",
                "--table", f"zen/c={customer_csv}:csv:name:str,address:str,nationkey:int",
                "--workload", str(workload),
                "--workers", "2",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "acme/fd: ok" in out
        assert "zen/dedup: ok" in out
        assert "p99" in out and "q/s" in out

    def test_serve_budget_exceeded_exits_nonzero(self, tmp_path, customer_csv, capsys):
        workload = self._workload(
            tmp_path,
            {
                "queries": [
                    {"tenant": "poor", "op": "fd", "table": "c",
                     "lhs": ["address"], "rhs": ["nationkey"]},
                ],
                "budgets": {"poor": 1e-9},
            },
        )
        code = main(
            [
                "serve",
                "--table", f"poor/c={customer_csv}:csv:name:str,address:str,nationkey:int",
                "--workload", str(workload),
                "--workers", "2",
            ]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "poor/fd: budget_exceeded" in out

    def test_serve_bad_workload_errors(self, tmp_path, customer_csv, capsys):
        workload = self._workload(tmp_path, {"queries": "not-a-list"})
        code = main(
            [
                "serve",
                "--table", f"c={customer_csv}:csv:name:str,address:str,nationkey:int",
                "--workload", str(workload),
            ]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_serve_missing_workload_file_errors(self, tmp_path, capsys):
        code = main(["serve", "--workload", str(tmp_path / "missing.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert "error: cannot read workload" in err


@pytest.mark.parametrize("name, spec, body, message", [
    ("byte.json", "json", b'{"a": 1}\n{"a": "x\xff"}\n',
     "{path}:2: cannot decode byte 0xff as UTF-8 (invalid start byte)"),
    ("cast.xml", "xml:a:int", b"<records><record><a>seven</a></record></records>",
     "{path}: record 1: cannot cast 'seven' to int for field 'a'"),
])
def test_a_bad_json_byte_or_xml_cast_names_its_file(tmp_path, name, spec, body, message):
    bad = tmp_path / name
    bad.write_bytes(body)
    done = subprocess.run(
        [sys.executable, "-m", "repro", "query", "--table", f"t={bad}:{spec}", "SELECT * FROM t x"],
        env={**os.environ, "PYTHONPATH": str(Path(repro.__file__).resolve().parents[1])},
        capture_output=True, text=True, timeout=120,
    )
    assert (done.returncode, done.stderr) == (1, f"error: {message.format(path=bad)}\n")
