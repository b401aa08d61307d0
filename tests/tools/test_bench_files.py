"""The benchmark files a tier-1 run writes hold only what a rerun
reproduces: no key of a ``benchmarks/BENCH_*.json`` and no column of
``benchmarks/RESULTS.txt`` names a clock or host reading, so a run leaves
the committed files as they are (measured time is ``python3 -m bench``'s)."""

import json
import re
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parents[2] / "benchmarks"
CLOCK_OR_HOST = re.compile(
    r"^(measured|elapsed)|(^|_)(seconds|s|ms)$"
    r"|^(throughput_qps|overhead_ratio|delta_over_cold|delta/cold|cores)$"
)


def _keys(value, path=""):
    if isinstance(value, dict):
        for key, item in value.items():
            yield f"{path}/{key}", key
            yield from _keys(item, f"{path}/{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _keys(item, f"{path}[{i}]")


def _columns(text):
    """``(title, column)`` for every table header in a RESULTS.txt."""
    for table in text.split("\n\n"):
        lines = table.strip("\n").split("\n")
        if len(lines) > 1:
            for column in re.split(r"\s{2,}", lines[1].strip()):
                yield lines[0], column


def test_the_pattern_catches_what_it_names():
    caught = ["measured_seconds", "measured_row_s", "cold_seconds", "elapsed_s",
              "p50_ms", "seconds", "throughput_qps", "overhead_ratio", "delta_over_cold",
              "delta/cold", "cores"]
    kept = ["simulated_time", "sim_time", "speedup", "pruning_ratio", "rows_delta",
            "examined_allpairs", "f_score", "cold_bytes", "retries", "records"]
    assert [name for name in caught if not CLOCK_OR_HOST.search(name)] == []
    assert [name for name in kept if CLOCK_OR_HOST.search(name)] == []


def test_no_bench_json_key_names_a_clock_or_host_reading():
    paths = sorted(BENCHMARKS.glob("BENCH_*.json"))
    assert paths
    found = [
        f"{path.name}{where}"
        for path in paths
        for where, key in _keys(json.loads(path.read_text(encoding="utf-8")))
        if CLOCK_OR_HOST.search(key)
    ]
    assert found == []


def test_no_results_column_names_a_clock_or_host_reading():
    text = (BENCHMARKS / "RESULTS.txt").read_text(encoding="utf-8")
    columns = list(_columns(text))
    assert columns
    assert [(title, c) for title, c in columns if CLOCK_OR_HOST.search(c)] == []
