"""The ``repro check`` command and the CLI's diagnostic rendering.

Contract under test: malformed queries and rules exit 1 with an
``error:`` summary on stderr plus a caret-annotated span block — never a
traceback — and a clean program prints ``ok`` and exits 0.  ``query``
and ``dc`` share the same rendering on their error paths.
"""

import pytest

from repro.cli import main
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


def spec(path):
    return f"customer={path}:csv:name:str,address:str,nationkey:int"


class TestCheckCommand:
    def test_clean_query_exits_zero(self, customer_csv, capsys):
        code = main(
            ["check", "--table", spec(customer_csv), "SELECT * FROM customer c"]
        )
        assert code == 0
        assert "ok: no diagnostics" in capsys.readouterr().out

    def test_unknown_column_exits_one_with_caret(self, customer_csv, capsys):
        code = main(
            ["check", "--table", spec(customer_csv), "SELECT c.nam FROM customer c"]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "error[CM102]" in captured.out
        assert "^" in captured.out
        assert "did you mean" in captured.out
        assert "1 error(s)" in captured.out

    def test_parse_error_is_cm001_not_a_traceback(self, customer_csv, capsys):
        code = main(["check", "--table", spec(customer_csv), "SELECT * FROM"])
        captured = capsys.readouterr()
        assert code == 1
        assert "error[CM001]" in captured.out
        assert "Traceback" not in captured.out + captured.err

    def test_rule_only_invocation(self, customer_csv, capsys):
        code = main(
            [
                "check",
                "--table",
                spec(customer_csv),
                "--rule",
                "t1.salary == t2.salary",
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "error[CM302]" in captured.out

    def test_clean_rule_exits_zero(self, customer_csv, capsys):
        code = main(
            [
                "check",
                "--table",
                spec(customer_csv),
                "--rule",
                "t1.address == t2.address and t1.name != t2.name",
            ]
        )
        assert code == 0
        assert "ok: no diagnostics" in capsys.readouterr().out

    def test_no_query_and_no_rule_is_an_error(self, capsys):
        code = main(["check"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_on_unknown_table_is_an_error(self, customer_csv, capsys):
        code = main(
            [
                "check",
                "--table",
                spec(customer_csv),
                "--rule",
                "t1.name == t2.name",
                "--on",
                "ghost",
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "ghost" in captured.err

    def test_a_rule_over_two_tables_needs_on(self, customer_csv, capsys):
        """As in ``repro dc``: with two tables the rule's is not guessed."""
        code = main(
            [
                "check",
                "--table", spec(customer_csv),
                "--table", spec(customer_csv).replace("customer=", "other=", 1),
                "--rule", "t1.nosuch < t2.name",
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "pass --on NAME" in captured.err
        assert "ok: no diagnostics" not in captured.out

    def test_query_from_file(self, customer_csv, tmp_path, capsys):
        qfile = tmp_path / "q.sql"
        qfile.write_text("SELECT * FROM customer c FD(c.address, c.nationkey)")
        code = main(["check", "--table", spec(customer_csv), f"@{qfile}"])
        assert code == 0
        assert "ok" in capsys.readouterr().out


class TestQueryErrorRendering:
    def test_query_semantic_error_renders_carets(self, customer_csv, capsys):
        code = main(
            ["query", "--table", spec(customer_csv), "SELECT c.nam FROM customer c"]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error:")
        assert "error[CM102]" in captured.err
        assert "Traceback" not in captured.err

    def test_query_parse_error_renders_carets(self, customer_csv, capsys):
        code = main(
            ["query", "--table", spec(customer_csv), "SELECT * FROM customer c WHERE"]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error:")
        assert "^" in captured.err

    def test_dc_malformed_rule_renders_carets(self, customer_csv, capsys):
        code = main(
            [
                "dc",
                "--table",
                spec(customer_csv),
                "--rule",
                "t1.name ~ t2.name",
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error:")
        assert "error[CM301]" in captured.err
