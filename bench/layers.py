"""Where the traced run cuts the program into layers.

``LAYER_TABLE`` lists the entry points the tracer wraps: (layer, owner,
attribute).  The owner is ``module`` or ``module:Class``.  Class methods and
module functions that callers look up at call time are wrapped where they
are defined; a name another module binds with ``from ... import`` is wrapped
in the importing module, because that binding is the one its callers use.
Compiler stages are bound that way inside ``core/language.py`` and called
from one method, so they are measured by the stepwise compile in
``bench.probes`` instead.  Worker processes are not wrapped: worker-side
work shows as time inside ``WorkerPool.run`` and as worker CPU.
"""

from __future__ import annotations

import re
import statistics
from collections import defaultdict
from typing import Callable, Iterable

from .trace import Span, self_times

_DB = "repro.core.language:CleanDB"
_DENIAL = "repro.cleaning.denial"
_DEDUP = "repro.cleaning.dedup"
_POOL = "repro.engine.parallel:WorkerPool"

LAYER_TABLE: tuple[tuple[str, str, str], ...] = (
    *(("core", _DB, attr) for attr in (
        "compile", "execute", "check_fd", "check_dc", "deduplicate",
        "append_rows", "update_rows", "register_table",
    )),
    ("physical", "repro.physical.lower:Executor", "execute"),
    ("physical", "repro.physical.vectorized:VectorizedExecutor", "run"),
    ("physical", "repro.physical.vectorized:VectorizedExecutor", "supports"),
    ("physical", "repro.physical.parallel_exec:ParallelExecutor", "run"),
    ("physical", "repro.physical.parallel_exec:ParallelExecutor", "supports"),
    *(("cleaning", _DENIAL, attr) for attr in (
        "check_fd", "check_fd_columnar", "check_fd_parallel",
        "check_dc", "check_dc_columnar", "check_dc_parallel",
        "plan_dc_entries", "build_dc_index", "scan_partition",
    )),
    *(("cleaning", _DEDUP, attr) for attr in (
        "deduplicate", "deduplicate_columnar", "deduplicate_parallel",
        "pairwise_within_blocks",
    )),
    *(("engine", _POOL, attr) for attr in ("__init__", "pin", "run", "fetch")),
    ("engine", "repro.engine.dataset:Dataset", "collect"),
    ("engine", "repro.engine.shuffle", "exchange"),
    ("engine", _DENIAL, "exchange_resident"),
    ("engine", _DEDUP, "exchange_resident"),
    ("engine", "repro.physical.parallel_exec", "exchange_resident"),
    ("serving", "repro.serving.service:CleanService", "_execute"),
    ("sources", "repro.sources.catalog:Catalog", "load"),
)

_ROUND = re.compile(r"r(\d+):")


def op_round(op: str | None) -> int | None:
    """Round index of a measured operation's id (``r<round>:<kind>``)."""
    match = _ROUND.match(op or "")
    return int(match.group(1)) if match else None


def span_metrics(spans: Iterable[Span], op_scale: dict[str, float],
                 incremental: bool) -> dict[str, float]:
    """Per-layer metrics that come from spans.  "Per round" values are the
    median over the traced rounds of that round's total.  ``op_scale`` turns
    the measured seconds of each operation's spans into reference seconds
    (``hostclock.py``); one factor per operation, so self times still add up."""
    spans = list(spans)
    scale = {s.id: op_scale.get(s.op, 1.0) for s in spans}
    selfs = {i: t * scale[i] for i, t in self_times(spans).items()}
    rounds = sorted({r for s in spans if (r := op_round(s.op)) is not None})

    def per_round(pred: Callable[[Span], bool], value: Callable[[Span], float]) -> float:
        totals: dict[int, float] = defaultdict(float)
        for s in spans:
            r = op_round(s.op)
            if r is not None and pred(s):
                totals[r] += value(s)
        return statistics.median(totals.get(r, 0.0) for r in rounds) if rounds else 0.0

    def self_s(pred: Callable[[Span], bool]) -> float:
        return per_round(pred, lambda s: selfs[s.id])

    def calls(pred: Callable[[Span], bool]) -> float:
        return per_round(pred, lambda s: 1.0)

    def median_ms(pred: Callable[[Span], bool]) -> float:
        values = [s.duration * scale[s.id] * 1e3 for s in spans if pred(s)]
        return statistics.median(values) if values else 0.0

    def named(*names: str) -> Callable[[Span], bool]:
        return lambda s: s.name in names

    def prefixed(prefix: str) -> Callable[[Span], bool]:
        return lambda s: s.name.startswith(prefix)

    def suffixed(*suffixes: str) -> Callable[[Span], bool]:
        return lambda s: s.name.endswith(suffixes)

    spawns = [s for s in spans if s.name == "WorkerPool.__init__"]
    outside_rounds = lambda s: op_round(s.op) is None  # noqa: E731 - set-up or a CLI launch
    loads = [s for s in spans if s.name == "Catalog.load"]
    checks = named("CleanDB.check_fd", "CleanDB.check_dc", "CleanDB.deduplicate")
    return {
        "core.compile_ms": median_ms(named("CleanDB.compile")),
        "core.facade_self_s": self_s(
            lambda s: s.name.startswith("CleanDB.") and s.name != "CleanDB.compile"
        ),
        "physical.executor_s": self_s(named("Executor.execute")),
        "physical.vectorized_s": self_s(prefixed("VectorizedExecutor.")),
        "physical.parallel_exec_s": self_s(prefixed("ParallelExecutor.")),
        "physical.supports_miss": calls(
            lambda s: s.name.endswith(".supports") and s.returned_false
        ),
        "cleaning.fd_s": self_s(prefixed("cleaning.denial.check_fd")),
        "cleaning.dc_s": self_s(prefixed("cleaning.denial.check_dc")),
        "cleaning.dedup_s": self_s(prefixed("cleaning.dedup.deduplicate")),
        "cleaning.dc_plan_ms": self_s(suffixed(".plan_dc_entries")) * 1e3,
        "cleaning.dc_index_s": self_s(suffixed(".build_dc_index")),
        "cleaning.dc_scan_s": self_s(suffixed(".scan_partition")),
        "cleaning.sim_verify_s": self_s(suffixed(".pairwise_within_blocks")),
        "cleaning.incremental_apply_ms": median_ms(
            named("CleanDB.append_rows", "CleanDB.update_rows")
        ),
        "cleaning.incremental_recheck_ms": (
            per_round(checks, lambda s: s.duration * scale[s.id]) * 1e3 if incremental else 0.0
        ),
        "engine.pool.spawn_s": (
            statistics.median(s.duration * scale[s.id] for s in spawns) if spawns else 0.0
        ),
        "engine.pool.pin_s": sum(
            selfs[s.id] for s in spans if s.name == "WorkerPool.pin" and outside_rounds(s)
        ) / max(1, len(spawns)),
        "engine.pool.run_s": self_s(named("WorkerPool.run", "WorkerPool.fetch")),
        "engine.pool.run_calls": calls(named("WorkerPool.run")),
        "engine.shuffle.exchange_s": self_s(suffixed(".exchange", ".exchange_resident")),
        "engine.dataset.collect_s": self_s(named("Dataset.collect")),
        "sources.load_s": (
            statistics.median(s.duration * scale[s.id] for s in loads) if loads else 0.0
        ),
    }


def layer_totals_by_op(spans: Iterable[Span]) -> dict[str, tuple[float, dict[str, float]]]:
    """For each operation: (wall time of its root span, self time by layer)."""
    spans = [s for s in spans if s.op is not None]
    selfs = self_times(spans)
    out: dict[str, tuple[float, dict[str, float]]] = {}
    layers: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for s in spans:
        layers[s.op][s.layer] += selfs[s.id]
    for s in spans:
        if s.parent is None:
            out[s.op] = (s.duration, dict(layers[s.op]))
    return out
