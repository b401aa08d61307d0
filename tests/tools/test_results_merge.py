"""``benchmarks/conftest.py`` merges a session's tables into ``RESULTS.txt``
by title: running a subset of the benchmarks must not truncate the file."""

import importlib.util
import sys
from pathlib import Path

CONFTEST = Path(__file__).resolve().parents[2] / "benchmarks" / "conftest.py"


def test_a_subset_run_replaces_its_tables_and_keeps_the_rest(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the conftest extends it
    spec = importlib.util.spec_from_file_location("benchmarks_conftest", CONFTEST)
    conftest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(conftest)
    kept = "== Fig 6a ==\nx  y\n-  -\n1  2\n\n== Ablation ==\nold\n"
    merged = conftest.merge_tables(kept, ["== Table 5 ==\nt", "== Ablation ==\nnew"])
    assert merged == "== Ablation ==\nnew\n\n== Fig 6a ==\nx  y\n-  -\n1  2\n\n== Table 5 ==\nt\n"
    assert conftest.merge_tables(merged, []) == merged
    assert conftest.merge_tables("", ["== Only ==\nrow"]) == "== Only ==\nrow\n"
