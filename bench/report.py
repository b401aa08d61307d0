"""Result files, and the two commands that read them: ``compare`` and
``agree``.

A result file carries what is needed to decide whether two of them may be
compared at all (host fingerprint, input sizes, run length, scale) and, for
every metric, the value of each run with the sample count and quartiles
behind it.  The regression bounds are those of ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from .runner import quartiles
from .workloads import OUT_DIR, REPO_ROOT, WORKLOADS

# Counts the program makes that must not differ at all between two sets.
DETERMINISTIC = (
    "engine.sim_time", "monoid.rules_fired", "cleaning.dc_candidates",
    "cleaning.dc_verified", "cleaning.sim_candidates", "cleaning.sim_verified",
    "physical.supports_miss", "engine.pool.run_calls",
)


def contract() -> dict[str, Any]:
    with open(REPO_ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def fingerprint() -> dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, capture_output=True, text=True
        )
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_child(workload: str, seed: int, seconds: float, trace: int, scale: str) -> dict[str, Any]:
    """One run in a fresh process; returns its result line plus detail."""
    command = [
        sys.executable, "-m", "bench", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--scale", scale, "--detail",
    ]
    done = subprocess.run(command, cwd=REPO_ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} failed:\n{done.stderr[-4000:]}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["detail"] = json.loads(lines[-2])
    return result


def run_set(seeds: list[int], seconds: float, scale: str) -> dict[str, Any]:
    """Every workload once per seed, then one traced run of it."""
    out: dict[str, Any] = {
        "fingerprint": fingerprint(), "commit": commit(), "seeds": seeds,
        "seconds": seconds, "scale": scale, "started": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "workloads": {},
    }
    for name in WORKLOADS:
        runs = [run_child(name, seed, seconds, 0, scale) for seed in seeds]
        entry: dict[str, Any] = {
            "sizes": runs[0]["detail"]["sizes"],
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": _summaries(runs),
            "runs": [r["detail"] for r in runs],
        }
        traced = run_child(name, seeds[0], seconds, 1, scale)
        entry["attempted"] += traced["attempted"]
        entry["failed"] += traced["failed"]
        entry["per_layer"] = traced["detail"]["metrics"]
        out["workloads"][name] = entry
        print(f"  {name}: {len(runs)} run(s), failed {entry['failed']}/{entry['attempted']}",
              file=sys.stderr)
    return out


def _summaries(runs: list[dict[str, Any]]) -> dict[str, Any]:
    out = {}
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        out[name] = {
            "unit": first["unit"], "median": statistics.median(values),
            "quartiles": quartiles(values), "values": values,
            "samples_per_run": runs[0]["detail"]["metrics"][name]["n"],
        }
    return out


def write_result(result: dict[str, Any]) -> Path:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"{time.strftime('%Y%m%dT%H%M%S')}.json"
    path.write_text(json.dumps(result, indent=1), encoding="utf-8")
    return path


def print_set(result: dict[str, Any]) -> None:
    for name, entry in result["workloads"].items():
        print(f"\n== {name}  sizes {entry['sizes']}  "
              f"failed {entry['failed']}/{entry['attempted']}")
        for metric, s in entry["end_to_end"].items():
            q1, _q2, q3 = s["quartiles"]
            print(f"  {metric:<32} {s['median']:>14.4f} {s['unit']:<6} "
                  f"runs={len(s['values'])} n/run={s['samples_per_run']} "
                  f"quartiles=[{q1:.4f}, {q3:.4f}]")
        for metric, s in entry.get("per_layer", {}).items():
            print(f"  {metric:<32} {s['value']:>14.4f} {s['unit']}")


# ---------------------------------------------------------------------- #
def _worse_by(direction: str, old: float, new: float) -> float:
    """Relative change in the bad direction (negative means better)."""
    if old == 0:
        return 0.0
    change = (new - old) / abs(old)
    return change if direction == "lower" else -change


def _spread(summary: dict[str, Any]) -> float:
    q1, _q2, q3 = summary["quartiles"]
    return (q3 - q1) / summary["median"] if summary["median"] else 0.0


def compare(a: dict[str, Any], b: dict[str, Any]) -> int:
    """Apply the bounds to B against A; 0 when nothing regressed."""
    for key in ("fingerprint", "seconds", "scale"):
        if a[key] != b[key]:
            print(f"refusing to compare: {key} differs ({a[key]!r} vs {b[key]!r})")
            return 2
    sizes = lambda r: {n: e["sizes"] for n, e in r["workloads"].items()}  # noqa: E731
    if sizes(a) != sizes(b):
        print("refusing to compare: input sizes or workloads differ")
        return 2
    spec = {m["name"]: m for m in contract()["end_to_end"]}
    bad = 0
    print(f"{'workload':<16} {'metric':<16} {'A median':>12} {'A spread':>9} "
          f"{'B median':>12} {'B spread':>9} {'worse by':>9} {'bound':>6}")
    for name, entry in a["workloads"].items():
        other = b["workloads"][name]
        for metric, sa in entry["end_to_end"].items():
            sb = other["end_to_end"][metric]
            worse = _worse_by(spec[metric]["better"], sa["median"], sb["median"])
            flag = ""
            if worse > spec[metric]["bound"]:
                flag, bad = "  REGRESSED", bad + 1
            print(f"{name:<16} {metric:<16} {sa['median']:>12.4f} {_spread(sa):>9.3f} "
                  f"{sb['median']:>12.4f} {_spread(sb):>9.3f} {worse:>+9.3f} "
                  f"{spec[metric]['bound']:>6.2f}{flag}")
        if other["failed"] > entry["failed"]:
            print(f"{name:<16} failed operations rose: {entry['failed']} -> {other['failed']}")
            bad += 1
        for metric in DETERMINISTIC:
            va = entry.get("per_layer", {}).get(metric, {}).get("value")
            vb = other.get("per_layer", {}).get(metric, {}).get("value")
            if va != vb:
                print(f"{name:<16} {metric}: count differs ({va} vs {vb})")
                bad += 1
    return 1 if bad else 0
