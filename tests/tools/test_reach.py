"""``python -m tools.reach``: planted trees for each rule of the pass, and
the CI contract (the repository reports nothing)."""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT))

from tools import reach  # noqa: E402


def plant(root: Path, files: dict[str, str]) -> Path:
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))
    return root


def unreached(root: Path, allow=()) -> set[str]:
    return {d.qualname for d in reach.unreached(root, allow)[0]}


def test_a_def_only_tests_call_is_reported(tmp_path):
    root = plant(tmp_path, {
        "src/repro/mod.py": """
            def used():
                return helper()

            def helper():
                return 1

            def only_tested():
                return 2
        """,
        "examples/demo.py": """
            from repro.mod import used
            used()
        """,
        "tests/test_mod.py": """
            from repro.mod import only_tested, used

            def test_it():
                assert only_tested() == 2 and used() == 1
        """,
    })
    assert unreached(root) == {"only_tested"}  # helper is reached through used


def test_a_name_only_a_lazy_table_or_all_lists_is_reported(tmp_path):
    root = plant(tmp_path, {
        "src/repro/pkg/__init__.py": """
            from typing import TYPE_CHECKING

            from .._lazy import lazy_surface

            if TYPE_CHECKING:
                from .impl import listed, called

            __getattr__, __dir__, __all__ = lazy_surface(__name__, {
                "impl": ("called", "listed"),
            })
        """,
        "src/repro/pkg/impl.py": """
            __all__ = ["called", "exported", "listed"]

            def called():
                return 1

            def listed():
                return 2

            def exported():
                return 3
        """,
        "bench/run.py": """
            from repro.pkg import called
            called()
        """,
    })
    assert unreached(root) == {"listed", "exported"}


def test_a_function_reached_only_through_a_string_is_live(tmp_path):
    root = plant(tmp_path, {
        "src/repro/ladder.py": """
            import sys

            RUNGS = {"fd": "check_fast"}

            def run(op):
                return getattr(sys.modules[__name__], RUNGS[op])()

            def check_fast():
                return "fast"
        """,
        "benchmarks/test_bench.py": """
            from repro.ladder import run

            def test_fd():
                assert run("fd") == "fast"
        """,
    })
    assert unreached(root) == set()


def test_a_method_lives_with_its_class_and_a_use_of_its_name(tmp_path):
    root = plant(tmp_path, {
        "src/repro/table.py": """
            class Table:
                def __init__(self):
                    self.rows = []

                def append(self, row):
                    self.rows.append(row)

                def unused(self):
                    return len(self.rows)

            class Orphan:
                def append(self, row):
                    return orphan_helper(row)

            def orphan_helper(row):
                return row
        """,
        "src/repro/cli.py": """
            from .table import Table

            def main():
                Table().append(1)
        """,
    })
    # Orphan.append's name is used, but its class is dead: so is its body
    assert unreached(root) == {"Table.unused", "Orphan", "orphan_helper"}


def test_the_allowlist_excuses_a_helper_and_keeps_what_it_uses(tmp_path, capsys):
    root = plant(tmp_path, {
        "src/repro/mod.py": """
            def instrument():
                return _inner()

            def _inner():
                return 1
        """,
    })
    allow = root / "allow.json"
    allow.write_text(json.dumps({"instrument": "a test instrument"}))
    assert reach.main(["--root", str(root), "--allow", str(allow)]) == 0
    allow.write_text(json.dumps({"instrument": "a test instrument", "_inner": "stale"}))
    assert reach.main(["--root", str(root), "--allow", str(allow)]) == 1
    assert "_inner is reached or gone" in capsys.readouterr().out
    allow.write_text(json.dumps({}))
    assert reach.main(["--root", str(root), "--allow", str(allow)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "src/repro/mod.py: instrument (2 lines)",
        "src/repro/mod.py: _inner (2 lines)",
    ]


def test_an_import_or_a_docstring_naming_a_def_is_not_a_use(tmp_path):
    root = plant(tmp_path, {
        "src/repro/mod.py": """
            def imported():
                return 1

            def documented():
                return 2

            def used():
                \"\"\"Unlike documented, this runs.\"\"\"
                return 3
        """,
        "examples/demo.py": """
            \"\"\"Shows documented.\"\"\"
            from repro.mod import imported, used
            used()
        """,
    })
    assert unreached(root) == {"imported", "documented"}


def test_a_string_that_is_not_an_identifier_is_not_a_use(tmp_path):
    root = plant(tmp_path, {
        "src/repro/mod.py": """
            MESSAGE = "check_fast failed"

            def check_fast():
                return "fast"
        """,
    })
    assert unreached(root) == {"check_fast"}


def test_decorators_defaults_and_bases_belong_to_their_definition(tmp_path):
    root = plant(tmp_path, {
        "src/repro/mod.py": """
            def traced(f):
                return f

            def default_limit():
                return 10

            class Base:
                pass

            class DeadBase:
                pass

            class Live(Base):
                pass

            class Dead(DeadBase):
                pass

            @traced
            def run(limit=default_limit()):
                return Live()

            @traced
            def unused():
                return None
        """,
        "bench/run.py": """
            from repro.mod import run
            run()
        """,
    })
    # traced lives through run's decorator; a dead subclass keeps no base alive
    assert unreached(root) == {"DeadBase", "Dead", "unused"}


def test_dunder_methods_live_with_their_class(tmp_path):
    root = plant(tmp_path, {
        "src/repro/box.py": """
            class Box:
                def __init__(self, value):
                    self.value = normalize(value)

                def __repr__(self):
                    return render(self.value)

            def normalize(value):
                return value

            def render(value):
                return str(value)
        """,
        "examples/demo.py": """
            from repro.box import Box
            print(Box(1))
        """,
    })
    assert unreached(root) == set()


def test_only_the_cli_main_is_an_entry_point(tmp_path):
    root = plant(tmp_path, {
        "src/repro/cli.py": """
            def main():
                return _query()

            def _query():
                return 0

            def _old_command():
                return 1
        """,
    })
    assert unreached(root) == {"_old_command"}


def test_module_level_code_of_src_is_a_root(tmp_path):
    root = plant(tmp_path, {
        "src/repro/registry.py": """
            def builtin_upper(text):
                return text.upper()

            def unregistered(text):
                return text

            FUNCTIONS = {"upper": builtin_upper}
        """,
    })
    assert unreached(root) == {"unregistered"}


def test_the_repository_reports_nothing():
    done = subprocess.run(
        [sys.executable, "-m", "tools.reach"], cwd=REPO_ROOT, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout == ""
