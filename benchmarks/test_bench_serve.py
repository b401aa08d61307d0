"""Serving-layer load generator: concurrent multi-tenant vs serial.

The serving layer's throughput claim is about *consolidation*: a single
tenant's skewed query cannot fill the shared pool — exact-key blocking
routes each dense block to one worker, so one worker grinds through the
similarity phase while the rest idle — but admitting several tenants
concurrently fills the idle workers with other tenants' work.

The workload here makes that shape explicit: two tenants, eight mixed
queries (dedup / fd / dc / sql).  Each tenant's dedup is skewed onto a
*different* worker (block keys are chosen by ``stable_hash`` so tenant
``acme``'s dense blocks land on worker 0 and ``zen``'s on worker 1).  The
serial-sequential baseline therefore leaves half the pool idle for the
whole similarity phase; the concurrent pass overlaps the two tenants'
phases on disjoint workers.

Assertions, in order of importance:

* **Parity** — every concurrent outcome is ``repr``-identical to the
  serial run's (the speedup can never come from wrong answers);
* **Balance** — in the concurrent pass each worker performs a fair share
  of the CPU work (proves the overlap actually happened, even on hosts
  where wall-clock cannot show it);
* **Liveness** — both passes report a finite, positive p50/p99 and a
  positive throughput.

The concurrent speedup is neither asserted nor recorded: it is wall-clock,
needs two quiet cores, and read 0.7-1.3x from run to run on a shared
host.  ``BENCH_serve.json`` keeps only the workload's shape; the measured
clock of this load is ``python3 -m bench --workload serve_mixed``.
"""

import math
import os

from bench_json import BENCH_SERVE_PATH, emit_bench
from workloads import NUM_NODES, PARALLEL_WORKERS

from repro.engine.partitioner import stable_hash
from repro.serving import CleanService

TENANTS = ("acme", "zen")
DENSE_BLOCKS = 2  # skewed blocks per tenant, all on that tenant's worker
DENSE_ROWS = 110  # rows per dense block (~6k LD pairs each)
FILLER_ROWS = 1800


def _dense_keys(worker: int, count: int = DENSE_BLOCKS) -> list[str]:
    """Block keys whose blocks the exchange routes to ``worker``.

    Dedup blocks move as ``(key, records)`` keyed by the ``block_on``
    tuple; the hash exchange sends a block to partition ``stable_hash(key)
    % num_partitions`` and partition ``p`` lives on worker ``p % workers``.
    Scanning candidate strings against that map pins every dense block of
    one tenant to one worker — the skew this bench is about.
    """
    keys: list[str] = []
    j = 0
    while len(keys) < count:
        key = f"blk{j}"
        if stable_hash((key,)) % NUM_NODES % PARALLEL_WORKERS == worker:
            keys.append(key)
        j += 1
    return keys


def _tenant_rows(seed: int, worker: int) -> list[dict]:
    rows = []
    for i in range(FILLER_ROWS):  # unique blocks: fodder for fd/dc/sql
        rows.append({
            "name": f"n{seed}{i:05d}",
            "addr": f"unique {seed} {i}",
            "city": f"c{(i + seed) % 40}" if i % 401 else "cX",
            "grp": f"u{seed}-{i}",
            "v": (i * (seed + 3)) % 997,
        })
    for b, key in enumerate(_dense_keys(worker)):
        for i in range(DENSE_ROWS):
            rows.append({
                "name": f"d{seed}{b}{i:04d}",
                # Mostly sub-theta neighbours: heavy verification, few dups.
                "addr": f"no {(i * 13 + b) % 97} elm st apt {(i * 7) % 89}",
                "city": f"c{i % 40}",
                "grp": key,
                "v": i % 997,
            })
    return rows


def _queries() -> list[dict]:
    dedup = {"op": "dedup", "table": "t", "attributes": ["addr"],
             "theta": 0.85, "block_on": ["grp"]}
    fd = {"op": "fd", "table": "t", "lhs": ["name"], "rhs": ["city"]}
    dc = {"op": "dc", "table": "t",
          "rule": "t1.name == t2.name and t1.v < t2.v and t1.grp != t2.grp"}
    sql = {"op": "sql", "text": "SELECT * FROM t r WHERE r.v = 3"}
    acme, zen = TENANTS
    return [
        dict(dedup, tenant=acme), dict(sql, tenant=zen),
        dict(fd, tenant=acme), dict(dedup, tenant=zen),
        dict(dc, tenant=acme), dict(fd, tenant=zen),
        dict(sql, tenant=acme), dict(dc, tenant=zen),
    ]


def _service() -> CleanService:
    svc = CleanService(workers=PARALLEL_WORKERS, num_nodes=NUM_NODES)
    for worker, (tenant, seed) in enumerate(zip(TENANTS, (0, 5))):
        svc.register_table(tenant, "t", _tenant_rows(seed, worker))
    return svc


def _worker_cpu_seconds(pool) -> list[float] | None:
    """Per-worker CPU seconds from /proc; None where that isn't a thing."""
    try:
        tick = os.sysconf("SC_CLK_TCK")
        cpus = []
        for proc in pool._procs:
            with open(f"/proc/{proc.pid}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(") ", 1)[1].split()
            cpus.append((int(fields[11]) + int(fields[12])) / tick)
        return cpus
    except (OSError, ValueError, AttributeError):
        return None


def test_bench_serve():
    queries = _queries()

    with _service() as svc:
        serial = svc.run_queries(queries, sequential=True)

    with _service() as svc:
        cpu_before = _worker_cpu_seconds(svc.pool)
        concurrent = svc.run_queries(queries)
        cpu_after = _worker_cpu_seconds(svc.pool)

    assert serial.all_ok, [o.error for o in serial.outcomes]
    assert concurrent.all_ok, [o.error for o in concurrent.outcomes]
    # Byte-identical results: concurrency must never change an answer.
    for s, c in zip(serial.outcomes, concurrent.outcomes):
        assert (s.tenant, s.op) == (c.tenant, c.op)
        assert repr(s.rows) == repr(c.rows), (s.tenant, s.op)

    # The overlap itself, independent of wall-clock: both workers carried a
    # fair share of the concurrent pass (serially, each tenant's dedup
    # saturates exactly one worker while the other idles).
    if cpu_before is not None and cpu_after is not None:
        shares = [after - before for before, after in zip(cpu_before, cpu_after)]
        total = sum(shares)
        assert total > 0
        assert min(shares) / total >= 0.25, shares

    for load in (serial, concurrent):
        assert math.isfinite(load.p50_seconds) and load.p50_seconds > 0
        assert math.isfinite(load.p99_seconds) and load.p99_seconds > 0
        assert load.throughput_qps > 0

    emit_bench(BENCH_SERVE_PATH, "mixed_load", {
        "tenants": len(TENANTS),
        "queries": len(queries),
        "workers": PARALLEL_WORKERS,
    })
