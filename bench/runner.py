"""One measured run of one workload.

A run is a sequence of *sessions*: set the program up (timed: one
``setup_s`` sample), run ``rounds_per_session`` rounds on it, tear it down,
and start over until ``--seconds`` have passed.  Every sample therefore
comes from a session of the same age, and ``setup_s`` is a median over
sessions.  All timings are in reference seconds (see ``hostclock.py``).

``--trace 0`` measures the end-to-end metrics with no wrapper installed.
``--trace 1`` is the separate traced run: every set-up runs under the
tracer and rounds alternate between untraced (they give the per-kind
latencies and the baseline of ``bench.trace_overhead_frac``) and traced;
the direct probes of single layers follow.
"""

from __future__ import annotations

import contextlib
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Sequence

from . import probes
from .layers import LAYER_TABLE, span_metrics
from .trace import Tracer
from .workloads import OUT_DIR, WORKLOADS, Op, Round, Workload

MIN_ROUNDS = 2

END_TO_END_UNITS = {
    "setup_s": "s",
    "mix_s": "s",
    "query_p50_ms": "ms",
    "throughput_qps": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    # Latency by kind of operation and the tail, measured untraced.  These
    # were the issue's other end-to-end metrics; see README.md, "Demoted".
    "query_p95_ms": "ms",
    "fd_s": "s", "dc_s": "s", "dedup_s": "s", "unified_s": "s", "agg_s": "s",
    "write_p50_ms": "ms",
    "cold_start_s": "s", "cold_query_s": "s", "cold_pool_query_s": "s",
    "core.parse_ms": "ms", "core.analyze_ms": "ms", "core.rewrite_ms": "ms",
    "core.verify_ms": "ms", "core.compile_ms": "ms", "core.infer_table_ms": "ms",
    "core.facade_self_s": "s",
    "monoid.normalize_ms": "ms", "monoid.rules_fired": "count",
    "algebra.translate_ms": "ms", "algebra.optimize_ms": "ms",
    "algebra.coalesced_groups": "count", "algebra.plan_ops": "count",
    "physical.executor_s": "s", "physical.vectorized_s": "s",
    "physical.vectorized_batches": "count", "physical.parallel_exec_s": "s",
    "physical.supports_miss": "count",
    "cleaning.fd_s": "s", "cleaning.dc_s": "s", "cleaning.dedup_s": "s",
    "cleaning.dc_plan_ms": "ms", "cleaning.dc_index_s": "s",
    "cleaning.dc_scan_s": "s", "cleaning.sim_verify_s": "s",
    "cleaning.dc_candidates": "count", "cleaning.dc_verified": "count",
    "cleaning.sim_candidates": "count", "cleaning.sim_verified": "count",
    "cleaning.pruning_ratio": "ratio",
    "cleaning.incremental_apply_ms": "ms", "cleaning.incremental_recheck_ms": "ms",
    "cleaning.incremental_hits": "count", "cleaning.rows_delta": "count",
    "engine.pool.spawn_s": "s", "engine.pool.pin_s": "s", "engine.pool.pin_mb": "MB",
    "engine.pool.run_s": "s", "engine.pool.run_calls": "count",
    "engine.pool.roundtrip_ms": "ms",
    "engine.pool.bytes_shipped_mb": "MB", "engine.pool.ship_count": "count",
    "engine.pool.worker_cpu_s": "s", "engine.pool.driver_cpu_s": "s",
    "engine.pool.busy_frac": "ratio", "engine.pool.balance": "ratio",
    "engine.pool.retries": "count", "engine.pool.degraded_ops": "count",
    "engine.shuffle.exchange_s": "s", "engine.shuffle.records": "count",
    "engine.dataset.collect_s": "s", "engine.sim_time": "count",
    "sources.load_s": "s", "sources.rows_per_s": "1/s",
    "serving.exec_p50_ms": "ms", "serving.admission_ms": "ms",
    "cli.interp_floor_s": "s", "cli.import_s": "s",
    "bench.trace_overhead_frac": "ratio", "bench.host_scale": "ratio",
    "bench.raw_mix_s": "s", "bench.datagen_s": "s", "bench.oracle_s": "s",
}

# Which kinds of operation feed which per-kind latency.
_KIND_METRICS = {
    "fd": "fd_s", "dc": "dc_s", "dedup": "dedup_s", "unified": "unified_s",
    "agg": "agg_s", "sql": "agg_s",
    "cold_start": "cold_start_s", "cold_query": "cold_query_s",
    "cold_pool_query": "cold_pool_query_s",
}


def quartiles(values: Sequence[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3 if values else [0.0] * 3
    return statistics.quantiles(values, n=4)


def percentile(values: Iterable[float], q: float) -> float:
    ordered = sorted(values)
    rank = q / 100.0 * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def peak_rss_mb() -> float:
    """Max RSS of this process plus that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


# A process that only ever runs when a processor has nothing else to do, and
# ends with the benchmark.  See ``_busy_processors``.
_SPINNER = """
import os
os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
parent = os.getppid()
while os.getppid() == parent:
    for _ in range(1_000_000):
        pass
"""


@contextlib.contextmanager
def _busy_processors() -> Iterator[None]:
    """Keep every processor of the (virtual) machine from going idle.

    An idle virtual processor is taken off its host; waking it to deliver a
    message to a worker then costs whatever the host is busy with: a hundred
    pipe round trips took 19 ms to 126 ms in one afternoon, and with them
    ``delta_stream``'s median round swung by 21 % from run to run.  With one
    idle-priority spinner per processor the same workload repeats within
    2.3 %, at the same median.  The spinners get no cycle that anything else
    wants, and leave when the benchmark does.
    """
    spinners = [
        subprocess.Popen([sys.executable, "-S", "-c", _SPINNER])
        for _ in range(os.cpu_count() or 1)
    ]
    try:
        yield
    finally:
        for spinner in spinners:
            spinner.terminate()
        for spinner in spinners:
            spinner.wait()


@dataclass
class _Tally:
    """What one run measured, before it is reduced to metrics."""

    setups: list[tuple[float, float]] = field(default_factory=list)  # (start, seconds)
    rounds: list[tuple[Round, bool]] = field(default_factory=list)  # (round, traced?)
    checks: list[bool] = field(default_factory=list)
    # Per traced round: what MetricsCollector counted, and CPU seconds.
    counters: list[dict[str, float]] = field(default_factory=list)
    cpu: list[tuple[Round, list[float], float]] = field(default_factory=list)

    def ops(self, traced: bool | None = None) -> list[Op]:
        return [op for rnd in self.select(traced) for op in rnd.ops]

    def select(self, traced: bool | None = None) -> list[Round]:
        return [rnd for rnd, t in self.rounds if traced is None or t == traced]

    @property
    def attempted(self) -> int:
        return len(self.ops()) + len(self.checks)

    @property
    def failed(self) -> int:
        return sum(not op.ok for op in self.ops()) + sum(not ok for ok in self.checks)


def _measure(workload: Workload, seconds: float, tracer: Tracer | None) -> _Tally:
    """Sessions until ``seconds`` have passed (at least one, of at least
    ``MIN_ROUNDS`` rounds)."""
    tally, clock = _Tally(), workload.clock
    begun, index, done = time.perf_counter(), 0, False

    def time_is_up() -> bool:
        return time.perf_counter() - begun >= seconds

    while not done:
        session = len(tally.setups)
        clock.sample()
        start = time.perf_counter()
        if tracer is None:
            workload.setup()
        else:
            with _tracing(workload, tracer), tracer.root("setup", "bench", f"setup{session}"):
                workload.setup()
        tally.setups.append((start, time.perf_counter() - start))
        clock.sample()
        try:
            for k in range(workload.rounds_per_session):
                # Which rounds are traced swaps from session to session, so
                # that neither kind is always the older round of its pair.
                if tracer is not None and (session + k) % 2 == 1:
                    _traced_round(workload, tracer, index, tally)
                else:
                    tally.rounds.append((workload.round(index), False))
                index += 1
                if k + 1 >= MIN_ROUNDS and time_is_up():
                    break
            clock.sample()
            done = time_is_up()
            if done:
                tally.checks = workload.finish()
        finally:
            workload.teardown()
    return tally


@contextlib.contextmanager
def _tracing(workload: Workload, tracer: Tracer) -> Iterator[None]:
    """Wrappers installed, and the workload opening root spans, for a block."""
    tracer.install(LAYER_TABLE)
    workload.tracer = tracer
    try:
        yield
    finally:
        workload.tracer = None
        tracer.uninstall()


def _traced_round(workload: Workload, tracer: Tracer, index: int, tally: _Tally) -> None:
    collectors = workload.collectors()
    snaps = [c.snapshot() for c in collectors]
    workers, driver = probes.worker_cpu_seconds(), time.process_time()
    with _tracing(workload, tracer):
        rnd = workload.round(index)
    driver = time.process_time() - driver
    after = probes.worker_cpu_seconds()
    tally.rounds.append((rnd, True))
    summary = _sum_dicts([c.summary_since(s) for c, s in zip(collectors, snaps)])
    summary["incremental_hits"] = sum(
        op.name.startswith("incremental:")
        for c, s in zip(collectors, snaps) for op in c.ops[s[0]:]
    )
    tally.counters.append(summary)
    if len(after) == len(workers):  # else a worker was replaced mid-round
        tally.cpu.append((rnd, [b - a for a, b in zip(workers, after)], driver))


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: str) -> dict[str, Any]:
    workload = WORKLOADS[name](seed, scale)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    workload.prepare()
    with _busy_processors():
        if trace:
            tracer = Tracer()
            tally = _measure(workload, seconds, tracer)
            values, samples = _per_layer(workload, tally, tracer, scale)
            tracer.dump(str(OUT_DIR / f"trace-{name}.json"))
            units = PER_LAYER_UNITS
        else:
            tally = _measure(workload, seconds, None)
            values, samples = _end_to_end(workload, tally)
            units = END_TO_END_UNITS
    detail = {
        "workload": name, "seed": seed, "seconds": seconds, "scale": scale,
        "trace": int(trace), "sizes": workload.sizes(),
        "sessions": len(tally.setups), "rounds": len(tally.rounds),
        "metrics": {
            metric: {
                "value": values[metric], "unit": unit,
                "n": len(samples.get(metric, [])),
                "quartiles": quartiles(samples.get(metric, [])),
            }
            for metric, unit in units.items()
        },
    }
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m: {"value": values[m], "unit": unit} for m, unit in units.items()},
        "detail": detail,
    }


# ---------------------------------------------------------------------- #
# Reference seconds
# ---------------------------------------------------------------------- #
def _op_s(workload: Workload, op: Op) -> float:
    return op.seconds * workload.clock.scale(op.start, op.start + op.seconds)


def _round_s(workload: Workload, rnd: Round) -> float:
    if rnd.concurrent:
        return rnd.seconds * workload.clock.scale(rnd.start, rnd.start + rnd.seconds)
    return sum(_op_s(workload, op) for op in rnd.ops)


def _setups_s(workload: Workload, tally: _Tally) -> list[float]:
    return [s * workload.clock.scale(start, start + s) for start, s in tally.setups]


# ---------------------------------------------------------------------- #
def _latencies_s(workload: Workload, ops: list[Op]) -> dict[str, list[float]]:
    by_kind: dict[str, list[float]] = defaultdict(list)
    for op in ops:
        by_kind[op.kind].append(_op_s(workload, op))
    return by_kind


def _typical_latency_s(by_kind: dict[str, list[float]]) -> float:
    """The median latency of each kind of operation, averaged with the
    kinds' shares of the mix as weights.  The plain median of a mix of five
    kinds falls between two of them and jumps with their order."""
    total = sum(len(values) for values in by_kind.values())
    return sum(statistics.median(v) * len(v) for v in by_kind.values()) / total


def _end_to_end(workload: Workload, tally: _Tally) -> tuple[dict, dict]:
    setups = _setups_s(workload, tally)
    walls = [_round_s(workload, rnd) for rnd in tally.select()]
    by_kind = _latencies_s(workload, tally.ops())
    latencies_ms = [s * 1e3 for values in by_kind.values() for s in values]
    values = {
        "setup_s": statistics.median(setups),
        "mix_s": statistics.median(walls),
        "query_p50_ms": _typical_latency_s(by_kind) * 1e3,
        "throughput_qps": len(latencies_ms) / sum(walls),
        "peak_rss_mb": peak_rss_mb(),
    }
    samples = {
        "setup_s": setups, "mix_s": walls, "throughput_qps": walls,
        "query_p50_ms": latencies_ms,
    }
    return values, samples


# ---------------------------------------------------------------------- #
def _per_layer(workload: Workload, tally: _Tally, tracer: Tracer,
               scale: str) -> tuple[dict, dict]:
    clock = workload.clock
    values = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    roots = {s.op: s for s in tracer.spans if s.parent is None and s.op is not None}
    op_scale = {op: clock.scale(s.start, s.end) for op, s in roots.items()}
    values.update(span_metrics(tracer.spans, op_scale, workload.incremental))

    plain = [_round_s(workload, rnd) for rnd in tally.select(traced=False)]
    traced = [_round_s(workload, rnd) for rnd in tally.select(traced=True)]
    values.update(_kind_latencies(workload, tally.ops(traced=False)))
    values.update(_counter_metrics(tally.counters, workload))
    values.update(_cpu_metrics(workload, tally.cpu))
    values.update(_direct_probes(workload, scale, values))
    values["bench.trace_overhead_frac"] = (
        statistics.median(traced) / statistics.median(plain) - 1.0
    )
    values["bench.host_scale"] = clock.median_scale()
    values["bench.raw_mix_s"] = statistics.median(
        rnd.seconds for rnd in tally.select(traced=False)
    )
    values["bench.datagen_s"] = workload.datagen_s
    values["bench.oracle_s"] = workload.oracle_s
    return values, {"bench.trace_overhead_frac": traced, "bench.raw_mix_s": plain}


def _sum_dicts(dicts: list[dict[str, float]]) -> dict[str, float]:
    out: dict[str, float] = defaultdict(float)
    for d in dicts:
        for key, value in d.items():
            out[key] += value
    return out


def _kind_latencies(workload: Workload, ops: list[Op]) -> dict[str, float]:
    by_kind = _latencies_s(workload, ops)
    out = {
        _KIND_METRICS[kind]: statistics.median(values)
        for kind, values in by_kind.items() if kind in _KIND_METRICS
    }
    out["query_p95_ms"] = percentile(
        [s for values in by_kind.values() for s in values], 95
    ) * 1e3
    if "write" in by_kind:
        out["write_p50_ms"] = statistics.median(by_kind["write"]) * 1e3
    # serve_mixed: both parts in the reference seconds of their query.
    served = [(op, _op_s(workload, op) / op.seconds) for op in ops if op.exec_seconds]
    if served:
        out["serving.exec_p50_ms"] = statistics.median(
            op.exec_seconds * k for op, k in served
        ) * 1e3
        out["serving.admission_ms"] = statistics.median(
            (op.seconds - op.exec_seconds) * k for op, k in served
        ) * 1e3
    return out


def _counter_metrics(counters: list[dict[str, float]], workload: Workload) -> dict[str, float]:
    """Per-round medians of what ``MetricsCollector`` counted."""
    if not counters:
        return {}

    def med(key: str) -> float:
        return statistics.median(c.get(key, 0.0) for c in counters)

    counts = workload.counts
    candidates = counts.get("dc_candidates", 0) + counts.get("sim_candidates", 0)
    verified = counts.get("dc_verified", 0) + counts.get("sim_verified", 0)
    return {
        "engine.sim_time": med("simulated_time"),
        "engine.shuffle.records": med("shuffled_records"),
        "physical.vectorized_batches": med("batches"),
        "engine.pool.bytes_shipped_mb": med("bytes_shipped") / 1e6,
        "engine.pool.ship_count": med("ship_count"),
        "engine.pool.retries": sum(c.get("retries", 0.0) for c in counters),
        "engine.pool.degraded_ops": sum(c.get("degraded_ops", 0.0) for c in counters),
        "cleaning.rows_delta": med("rows_delta"),
        "cleaning.incremental_hits": med("incremental_hits"),
        "cleaning.dc_candidates": counts.get("dc_candidates", 0),
        "cleaning.dc_verified": counts.get("dc_verified", 0),
        "cleaning.sim_candidates": counts.get("sim_candidates", 0),
        "cleaning.sim_verified": counts.get("sim_verified", 0),
        "cleaning.pruning_ratio": verified / candidates if candidates else 0.0,
    }


def _cpu_metrics(workload: Workload, cpu: list[tuple[Round, list[float], float]]) -> dict[str, float]:
    """Per traced round: CPU of the workers (from /proc) and of the driver."""
    if not cpu:
        return {}
    scales = [_round_s(workload, rnd) / rnd.seconds for rnd, _w, _d in cpu]
    out = {"engine.pool.driver_cpu_s": statistics.median(
        driver * k for (_r, _w, driver), k in zip(cpu, scales)
    )}
    if cpu[0][1]:
        per_worker = [sum(c[1][w] for c in cpu) for w in range(len(cpu[0][1]))]
        wall = sum(rnd.seconds for rnd, _w, _d in cpu)
        out["engine.pool.worker_cpu_s"] = statistics.median(
            sum(workers) * k for (_r, workers, _d), k in zip(cpu, scales)
        )
        out["engine.pool.busy_frac"] = sum(per_worker) / (len(per_worker) * wall)
        out["engine.pool.balance"] = min(per_worker) / max(per_worker) if max(per_worker) else 0.0
    return out


def _direct_probes(workload: Workload, scale: str, values: dict[str, float]) -> dict[str, float]:
    """Timed calls into single layers, each bracketed by calibration."""
    reps = 200 if scale == "full" else 5
    clock = workload.clock

    def timed(probe: Callable[[], dict[str, float]]) -> dict[str, float]:
        clock.sample()
        start = time.perf_counter()
        out = probe()
        end = time.perf_counter()
        clock.sample()
        k = clock.scale(start, end)
        return {
            name: value * k if PER_LAYER_UNITS[name] in ("s", "ms") else value
            for name, value in out.items()
        }

    out: dict[str, float] = {}
    workload.setup()
    try:
        if workload.sql_texts():
            out.update(timed(lambda: probes.stepwise_compile(
                workload.sql_texts(), workload.tables(), workload.execution, reps // 4 + 1
            )))
        out.update(timed(lambda: {
            "core.infer_table_ms": probes.infer_table_ms(workload.tables(), 5)
        }))
        pool = workload.pool()
        if pool is not None:
            out.update(timed(lambda: {
                "engine.pool.roundtrip_ms": probes.pool_roundtrip_ms(pool, reps)
            }))
            out["engine.pool.pin_mb"] = pool.pinned_nbytes() / 1e6
        env = getattr(workload, "env", None)
        if env is not None:  # cold_cli
            launches = timed(lambda: {
                "cli.interp_floor_s": probes.launch_seconds("pass", env, 5),
                "cli.import_s": probes.launch_seconds("import repro.cli", env, 5),
            })
            launches["cli.import_s"] -= launches["cli.interp_floor_s"]
            out.update(launches)
            if values["sources.load_s"]:
                out["sources.rows_per_s"] = sum(workload.sizes().values()) / values["sources.load_s"]
    finally:
        workload.teardown()
    return out
