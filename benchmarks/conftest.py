"""Benchmark-suite plumbing: merge every printed table into one report."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

_REPORT: list[str] = []


@pytest.fixture
def report():
    """Append a rendered table to the session report (and stdout)."""

    def add(text: str) -> None:
        _REPORT.append(text)

    return add


def merge_tables(kept: str, tables: list[str]) -> str:
    """``RESULTS.txt`` after a session: ``kept`` (its text before) with each
    of ``tables`` merged in by title (a table's first line).  A table that
    ran replaces its previous rendering, one that did not keeps it, so a
    subset run refreshes only its part — the rule ``bench_json.emit_bench``
    follows for the JSON files.  Ordered by title, whichever subset ran."""
    by_title = {
        text.split("\n", 1)[0]: text.strip("\n") for text in (*kept.split("\n\n"), *tables)
    }
    by_title.pop("", None)
    return "\n\n".join(by_title[title] for title in sorted(by_title)) + "\n"


def pytest_sessionfinish(session, exitstatus):
    if _REPORT:
        out = Path(__file__).parent / "RESULTS.txt"
        kept = out.read_text(encoding="utf-8") if out.exists() else ""
        out.write_text(merge_tables(kept, _REPORT), encoding="utf-8")
