"""Self-tests of the benchmark harness on ``--scale tiny`` inputs.

They check what the harness promises, not how fast anything is: that the
names it emits are exactly those of ``BENCHMARK.json``, that every output is
compared with an oracle that agrees with the engine, that a wrong output is
counted, and that a traced operation's layer times account for its wall
time.  Nothing here asserts on a timing.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys

import pytest

from bench import inputs, oracle, report
from bench.hostclock import REFERENCE_S, HostClock
from bench.layers import layer_totals_by_op
from bench.runner import END_TO_END_UNITS, PER_LAYER_UNITS, run_workload
from bench.trace import spans_from_chrome
from bench.workloads import OUT_DIR, REPO_ROOT, WORKLOADS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def contract() -> dict:
    return report.contract()


def test_names_equal_the_contract(contract):
    assert [w["name"] for w in contract["workloads"]] == list(WORKLOADS)
    for group, units in (("end_to_end", END_TO_END_UNITS), ("per_layer", PER_LAYER_UNITS)):
        declared = {m["name"]: m["unit"] for m in contract[group]}
        assert declared == units
        assert all(NAME.fullmatch(name) for name in declared)
    assert len(contract["end_to_end"]) <= 16 and len(contract["per_layer"]) <= 128
    assert contract["paths"] == ["bench"]
    assert all(len(w["why"]) <= 200 for w in contract["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in contract["end_to_end"])


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_traced_run(name):
    result = run_workload(name, seed=7, seconds=0.2, trace=True, scale="tiny")
    assert set(result["metrics"]) == set(PER_LAYER_UNITS)
    assert result["attempted"] >= 1
    # The oracle, written without the engine, agrees with it on every output.
    assert result["failed"] == 0 and result["correct"]
    with open(OUT_DIR / f"trace-{name}.json", encoding="utf-8") as handle:
        spans = spans_from_chrome(json.load(handle))
    totals = layer_totals_by_op(spans)
    assert totals
    for op, (wall, by_layer) in totals.items():
        assert sum(by_layer.values()) == pytest.approx(wall, rel=0.01), op


def test_result_line_of_an_untraced_run():
    done = subprocess.run(
        [sys.executable, "-m", "bench", "--workload", "warm_row", "--seed", "11",
         "--seconds", "0.2", "--trace", "0", "--scale", "tiny"],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert {n: m["unit"] for n, m in result["metrics"].items()} == END_TO_END_UNITS
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_a_corrupted_output_is_counted(monkeypatch):
    from repro import CleanDB

    check_fd = CleanDB.check_fd
    monkeypatch.setattr(
        CleanDB, "check_fd", lambda self, *args, **kwargs: check_fd(self, *args, **kwargs)[1:]
    )
    result = run_workload("warm_row", seed=7, seconds=0.1, trace=False, scale="tiny")
    assert result["failed"] > 0 and not result["correct"]


def test_dedup_shortcut_skips_no_duplicate():
    rows = inputs.warm_inputs(7, inputs.SIZES["tiny"])["tables"]["dblp"]
    by_block: dict = {}
    for row in rows:
        by_block.setdefault((row["journal"], row["title"]), []).append(row)
    expected = set()
    for members in by_block.values():
        for i, a in enumerate(members):
            for b in members[i + 1:]:
                sims = []
                for attr in ("pages", "authors"):
                    x, y = str(a[attr]), str(b[attr])
                    sims.append(1.0 - oracle.levenshtein(x, y) / max(len(x), len(y), 1))
                if sum(sims) / 2 >= 0.8:
                    expected.add(tuple(sorted((a["_rid"], b["_rid"]))))
    assert expected
    assert oracle.dedup(rows, ["pages", "authors"], ["journal", "title"], 0.8) == expected


def test_same_seed_same_inputs():
    size = inputs.SIZES["tiny"]
    assert inputs.warm_inputs(3, size) == inputs.warm_inputs(3, size)
    assert inputs.warm_inputs(3, size)["tables"] != inputs.warm_inputs(4, size)["tables"]


def test_host_clock_scales_by_the_samples_around_an_interval():
    clock = HostClock()
    clock._when = [0.0, 1.0, 2.0, 3.0, 10.0, 11.0]
    clock._seconds = [REFERENCE_S] * 4 + [2 * REFERENCE_S] * 2
    assert clock.scale(1.2, 1.8) == pytest.approx(1.0)
    assert clock.scale(10.2, 10.8) == pytest.approx(0.5)
    assert clock.scale(5.9, 6.1) == pytest.approx(6 / 8)  # none near: all of them


def test_compare_refuses_different_hosts_and_sizes(capsys):
    entry = {"sizes": {"t": 1}, "failed": 0, "end_to_end": {}}
    a = {"fingerprint": {"nproc": 2}, "seconds": 1, "scale": "tiny", "workloads": {"w": entry}}
    other_host = {**a, "fingerprint": {"nproc": 4}}
    other_size = {**a, "workloads": {"w": {**entry, "sizes": {"t": 2}}}}
    assert report.compare(a, a) == 0
    assert report.compare(a, other_host) == 2
    assert report.compare(a, other_size) == 2
    assert "refusing" in capsys.readouterr().out
