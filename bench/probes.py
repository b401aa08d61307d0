"""Per-layer numbers that spans cannot give: direct timed calls into one
layer's public functions, and counters the operating system keeps."""

from __future__ import annotations

import multiprocessing
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Callable, Sequence


def _timed(func: Callable, *args: Any) -> tuple[Any, float]:
    start = time.perf_counter()
    out = func(*args)
    return out, time.perf_counter() - start


def stepwise_compile(
    texts: Sequence[str], tables: dict[str, list], execution: str, reps: int
) -> dict[str, float]:
    """The stage sequence of ``CleanDB.compile``/``_lower``, one timed call
    per stage, ``reps`` times per SQL text.  Times are the per-stage median,
    summed over the workload's texts (what compiling one round costs)."""
    from repro.algebra.rewrite import optimize_branches
    from repro.algebra.translate import Translator
    from repro.core.parser import parse
    from repro.core.rewriter import rewrite_query
    from repro.core.semantics import analyze_query, infer_table
    from repro.core.verify import verify_plan
    from repro.monoid.normalize import NormalizationTrace, normalize

    stages = ("parse", "analyze", "rewrite", "normalize", "translate", "optimize", "verify")
    totals = dict.fromkeys(stages, 0.0)
    counts = {"rules_fired": 0, "coalesced_groups": 0, "plan_ops": 0}
    infos = {name: infer_table(rows) for name, rows in tables.items()}
    formats = dict.fromkeys(tables, "memory")
    for text in texts:
        samples: dict[str, list[float]] = {stage: [] for stage in stages}
        for _ in range(reps):
            query, t_parse = _timed(parse, text)
            names = {t.name for t in query.tables}
            _diags, t_analyze = _timed(
                lambda: analyze_query(
                    query, tables, execution=execution,
                    infos={n: infos[n] for n in names}, source=text,
                )
            )
            branches, t_rewrite = _timed(rewrite_query, query)
            translator = Translator(set(tables), formats)
            t_normalize = t_translate = 0.0
            plans, traces = [], []
            for branch in branches:
                trace = NormalizationTrace()
                normalized, dt = _timed(normalize, branch.comprehension, trace)
                t_normalize += dt
                plan, dt = _timed(translator.translate, normalized)
                t_translate += dt
                plans.append(plan)
                traces.append(trace)
            (dag, report), t_optimize = _timed(
                optimize_branches, plans, [b.name for b in branches]
            )
            _found, t_verify = _timed(verify_plan, dag, tables, [b.name for b in branches])
            for stage, dt in zip(stages, (
                t_parse, t_analyze, t_rewrite, t_normalize,
                t_translate, t_optimize, t_verify,
            )):
                samples[stage].append(dt)
        for stage in stages:
            totals[stage] += statistics.median(samples[stage])
        counts["rules_fired"] += sum(len(t.applied) for t in traces)
        counts["coalesced_groups"] += len(report.coalesced_groups)
        counts["plan_ops"] += len(dag.describe().splitlines())
    return {
        "core.parse_ms": totals["parse"] * 1e3,  # parse() lexes internally
        "core.analyze_ms": totals["analyze"] * 1e3,
        "core.rewrite_ms": totals["rewrite"] * 1e3,
        "core.verify_ms": totals["verify"] * 1e3,
        "monoid.normalize_ms": totals["normalize"] * 1e3,
        "monoid.rules_fired": counts["rules_fired"],
        "algebra.translate_ms": totals["translate"] * 1e3,
        "algebra.optimize_ms": totals["optimize"] * 1e3,
        "algebra.coalesced_groups": counts["coalesced_groups"],
        "algebra.plan_ops": counts["plan_ops"],
    }


def infer_table_ms(tables: dict[str, list], reps: int) -> float:
    """Median ``infer_table`` time, averaged over the workload's tables."""
    from repro.core.semantics import infer_table

    if not tables:
        return 0.0
    medians = [
        statistics.median(_timed(infer_table, rows)[1] for _ in range(reps))
        for rows in tables.values()
    ]
    return statistics.mean(medians) * 1e3


def noop_task(value: int) -> int:
    return value


def pool_roundtrip_ms(pool: Any, reps: int) -> float:
    """Median wall time of one ``pool.run`` of a no-op task per worker."""
    args = [(w,) for w in range(pool.workers)]
    return statistics.median(_timed(pool.run, noop_task, args)[1] for _ in range(reps)) * 1e3


def worker_cpu_seconds() -> list[float]:
    """CPU seconds (user + system) of each live child process, from /proc."""
    tick = os.sysconf("SC_CLK_TCK")
    out = []
    for proc in sorted(multiprocessing.active_children(), key=lambda p: p.pid or 0):
        try:
            with open(f"/proc/{proc.pid}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(") ", 1)[1].split()
        except OSError:
            continue  # exited between the listing and the read
        out.append((int(fields[11]) + int(fields[12])) / tick)
    return out


def launch_seconds(code: str, env: dict[str, str], reps: int) -> float:
    """Median wall time of ``python -c <code>``."""
    def launch() -> None:
        subprocess.run([sys.executable, "-c", code], env=env, check=True, capture_output=True)

    return statistics.median(_timed(launch)[1] for _ in range(reps))
