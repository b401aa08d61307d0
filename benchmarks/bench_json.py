"""Machine-readable benchmark emitters: ``BENCH_fig8.json`` / ``BENCH_dc.json``.

``RESULTS.txt`` renders the benchmark tables for humans; this module writes
the headline numbers — measured seconds, candidate/verified comparison
counts, and the pruning ratio — as JSON so the perf trajectory stays
comparable across PRs without parsing text tables.  ``BENCH_fig8.json``
carries the dedup similarity-kernel figures, ``BENCH_dc.json`` the
denial-constraint scale-out figures.  Each bench merges its own section
into its file (read-modify-write), so running one test alone refreshes
only its part.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

BENCH_FIG8_PATH = Path(__file__).parent / "BENCH_fig8.json"
BENCH_DC_PATH = Path(__file__).parent / "BENCH_dc.json"
BENCH_FIG5_PATH = Path(__file__).parent / "BENCH_fig5.json"
BENCH_INCREMENTAL_PATH = Path(__file__).parent / "BENCH_incremental.json"
BENCH_SERVE_PATH = Path(__file__).parent / "BENCH_serve.json"
BENCH_FAULTS_PATH = Path(__file__).parent / "BENCH_faults.json"
SCHEMA_VERSION = 1


def run_record(result: Any) -> dict:
    """Flatten a :class:`~repro.evaluation.runner.RunResult` for the JSON.

    ``candidates`` / ``verified`` are the similarity kernel's two comparison
    counters; their ratio is the pruning ratio (1.0 = nothing pruned).
    """
    record = {
        "status": result.status,
        "measured_seconds": round(result.wall_seconds, 4),
        "candidates": result.comparisons,
        "verified": result.verified,
        "pruning_ratio": round(result.pruning_ratio, 4),
    }
    if result.ok:
        record["simulated_time"] = round(result.simulated_time, 1)
        record["pairs"] = result.output_count
    return record


def emit_bench(path: Path, section: str, payload: dict) -> dict:
    """Merge one figure's results into a bench JSON file; returns the file
    contents after the merge."""
    data: dict = {}
    if path.exists():
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except ValueError:
            data = {}
    if not isinstance(data, dict):
        data = {}
    data["schema"] = SCHEMA_VERSION
    data[section] = payload
    path.write_text(
        json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return data
