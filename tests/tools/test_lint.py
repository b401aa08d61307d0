"""The engine self-lint: rule behavior, baseline mechanics, and the
self-check that the shipped source is clean.

The subprocess test is the CI contract: ``python -m tools.lint src/repro``
from the repo root must exit 0 against the committed baseline.
"""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT))

from tools.lint.framework import (  # noqa: E402
    Finding,
    lint_paths,
    load_baseline,
    save_baseline,
)
from tools.lint.rules import ALL_RULES  # noqa: E402


def lint_source(tmp_path, source, name="probe.py"):
    file = tmp_path / name
    file.write_text(textwrap.dedent(source))
    return lint_paths([file], ALL_RULES, root=tmp_path)


def codes(findings):
    return [f.code for f in findings]


class TestRules:
    def test_e101_nested_task_def(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            def outer():
                def inner_task(x):
                    return x
                return inner_task
            """,
        )
        assert codes(findings) == ["E101"]
        assert "inner_task" in findings[0].message

    def test_e101_lambda_passed_to_pool_run(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            def go(pool):
                return pool.run(lambda part: part, [(1,)])
            """,
        )
        assert codes(findings) == ["E101"]

    def test_e102_wall_clock_outside_allowlist(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            import time
            from time import perf_counter

            def cost():
                return time.time() + perf_counter()
            """,
        )
        assert codes(findings) == ["E102", "E102"]

    def test_e102_allowlisted_file_is_exempt(self, tmp_path):
        target = tmp_path / "repro" / "engine"
        target.mkdir(parents=True)
        (target / "parallel.py").write_text(
            "import time\n\ndef now():\n    return time.time()\n"
        )
        assert lint_paths([tmp_path], ALL_RULES, root=tmp_path) == []

    def test_e103_bare_pickle_loads(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            import pickle

            def decode(blob):
                return pickle.loads(blob)
            """,
        )
        assert codes(findings) == ["E103"]

    def test_e103_allowlist_is_the_wire_protocol_not_the_pool(self, tmp_path):
        source = "import pickle\n\ndef decode(blob):\n    return pickle.loads(blob)\n"
        engine = tmp_path / "repro" / "engine"
        core = tmp_path / "repro" / "core"
        engine.mkdir(parents=True)
        core.mkdir(parents=True)
        for path in (engine / "worker.py", engine / "shuffle.py", core / "shippable.py",
                     engine / "parallel.py", engine / "store.py"):
            path.write_text(source)
        findings = lint_paths([tmp_path], ALL_RULES, root=tmp_path)
        assert sorted(Path(f.path).name for f in findings) == ["parallel.py", "store.py"]
        assert codes(findings) == ["E103", "E103"]

    def test_e104_pool_attribute_write(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            def hijack(pool):
                pool.workers = []
                pool.budget += 1
            """,
        )
        assert codes(findings) == ["E104", "E104"]

    def test_e104_the_pool_and_its_registry_are_exempt(self, tmp_path):
        target = tmp_path / "repro" / "engine"
        target.mkdir(parents=True)
        for name in ("parallel.py", "store.py", "worker.py"):
            (target / name).write_text("def reset(pool):\n    pool.workers = 0\n")
        findings = lint_paths([tmp_path], ALL_RULES, root=tmp_path)
        assert [Path(f.path).name for f in findings] == ["worker.py"]
        assert codes(findings) == ["E104"]

    def test_e104_assigning_the_pool_field_itself_is_fine(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            class Service:
                def __init__(self, pool):
                    self.pool = pool
            """,
        )
        assert findings == []

    def test_e105_interpreter_call_on_an_engine_path(self, tmp_path):
        target = tmp_path / "repro" / "physical"
        target.mkdir(parents=True)
        (target / "hot.py").write_text(
            textwrap.dedent(
                """
                from ..monoid import expressions
                from ..monoid.expressions import evaluate as interpret

                def run(expr, envs):
                    first = [interpret(expr, env) for env in envs]
                    return first + [expressions.evaluate(expr, env) for env in envs]
                """
            )
        )
        findings = lint_paths([tmp_path], ALL_RULES, root=tmp_path)
        assert codes(findings) == ["E105", "E105"]

    def test_e105_other_packages_and_other_evaluates_are_exempt(self, tmp_path):
        monoid = tmp_path / "repro" / "monoid"
        engine = tmp_path / "repro" / "engine"
        monoid.mkdir(parents=True)
        engine.mkdir(parents=True)
        # The calculus level is where the interpreter belongs.
        (monoid / "normalize.py").write_text(
            "from .expressions import evaluate\n\n"
            "def fold(expr):\n    return evaluate(expr, {})\n"
        )
        # A different function that happens to share the name.
        (engine / "model.py").write_text(
            "from .scoring import evaluate\n\n"
            "def score(m):\n    return evaluate(m) + m.evaluate()\n"
        )
        assert lint_paths([tmp_path], ALL_RULES, root=tmp_path) == []

    def test_e106_process_queues_and_their_internals(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            import multiprocessing
            import multiprocessing.queues
            from multiprocessing import SimpleQueue, Pipe
            from multiprocessing.queues import Queue

            def open_inbox(ctx):
                inbox = ctx.Queue()
                done = multiprocessing.JoinableQueue()
                inbox.cancel_join_thread()
                inbox._ignore_epipe = True
                inbox._reader.close()
                return inbox._writer, done
            """,
        )
        assert codes(findings) == ["E106"] * 9
        assert "SimpleQueue" in findings[1].message

    def test_e106_thread_queues_and_pipes_are_fine(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            import asyncio
            import queue
            from queue import SimpleQueue

            def open_wire(ctx):
                reader, writer = ctx.Pipe(duplex=False)
                return reader, writer, queue.Queue(), asyncio.Queue(), SimpleQueue()
            """,
        )
        assert findings == []

    def test_e000_syntax_error_is_reported_not_raised(self, tmp_path):
        findings = lint_source(tmp_path, "def broken(:\n")
        assert codes(findings) == ["E000"]

    def test_clean_module_has_no_findings(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            def fine_task(part):
                return sorted(part)
            """,
        )
        assert findings == []


class TestBaseline:
    def test_roundtrip_suppresses_known_findings(self, tmp_path):
        findings = lint_source(tmp_path, "import pickle\npickle.loads(b'')\n")
        baseline_file = tmp_path / "baseline.json"
        save_baseline(baseline_file, findings)
        known = load_baseline(baseline_file)
        assert [f for f in findings if f.fingerprint() not in known] == []

    def test_fingerprint_survives_line_moves(self):
        a = Finding("E103", "m", "pkg/mod.py", 10, "x = pickle.loads(b)")
        b = Finding("E103", "m", "pkg/mod.py", 99, "  x = pickle.loads(b)")
        assert a.fingerprint() == b.fingerprint()

    def test_fingerprint_changes_with_the_line(self):
        a = Finding("E103", "m", "pkg/mod.py", 10, "x = pickle.loads(b)")
        b = Finding("E103", "m", "pkg/mod.py", 10, "y = pickle.loads(c)")
        assert a.fingerprint() != b.fingerprint()

    def test_missing_baseline_is_empty(self, tmp_path):
        assert load_baseline(tmp_path / "nope.json") == set()

    def test_committed_baseline_is_valid_json(self):
        data = json.loads(
            (REPO_ROOT / "tools" / "lint" / "baseline.json").read_text()
        )
        assert isinstance(data.get("fingerprints"), list)


class TestSelfLint:
    def test_engine_source_is_clean(self):
        result = subprocess.run(
            [sys.executable, "-m", "tools.lint", "src/repro"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "ok: no new findings" in result.stdout

    def test_update_baseline_flag(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import pickle\npickle.loads(b'')\n")
        baseline = tmp_path / "b.json"
        first = subprocess.run(
            [
                sys.executable,
                "-m",
                "tools.lint",
                str(bad),
                "--baseline",
                str(baseline),
            ],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        assert first.returncode == 1
        assert "E103" in first.stdout
        update = subprocess.run(
            [
                sys.executable,
                "-m",
                "tools.lint",
                str(bad),
                "--baseline",
                str(baseline),
                "--update-baseline",
            ],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        assert update.returncode == 0
        second = subprocess.run(
            [
                sys.executable,
                "-m",
                "tools.lint",
                str(bad),
                "--baseline",
                str(baseline),
            ],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        assert second.returncode == 0
        assert "1 baselined" in second.stdout
