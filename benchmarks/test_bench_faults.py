"""Fault-recovery cost: a warm multi-tenant workload with 0 vs 1 worker kill.

Self-healing is only worth shipping if recovery is cheap relative to the
work it saves: killing one of two workers mid-workload must not cost more
than the workload itself.  Both passes run the same 8 mixed queries over
two tenants whose tables are pinned (the "warm" state recovery protects);
the fault pass arms a deterministic :class:`FaultPlan` that kills worker 1
before its 2nd task, so the kill lands inside the first query and every
later query runs on the healed pool.

Assertions:

* **Oracle parity** — every recovered outcome is ``repr``-identical to the
  fault-free run's (recovery must be invisible in results);
* **Recovered, not degraded** — the kill surfaces as retries on the
  parallel backend, never as a row-backend fallback (which would leave the
  recovery path unexercised).

The recovered / fault-free wall-clock ratio is neither asserted nor
recorded: on a shared 2-core host it swung past 2x with no fault-path
change.  ``BENCH_faults.json`` keeps the workload's shape, the retry and
query counts and the oracle flag, which a rerun reproduces exactly.
"""

from bench_json import BENCH_FAULTS_PATH, emit_bench
from workloads import NUM_NODES, PARALLEL_WORKERS

from repro.engine import FaultPlan
from repro.evaluation import print_table
from repro.serving import CleanService

TENANTS = ("acme", "zen")
ROWS_PER_TENANT = 1500


def _tenant_rows(seed: int) -> list[dict]:
    rows = []
    for i in range(ROWS_PER_TENANT):
        rows.append({
            "name": f"n{seed}{i % 211:03d}",
            "addr": f"no {(i * 13 + seed) % 97} elm st apt {(i * 7) % 89}",
            "city": f"c{(i + seed) % 40}" if i % 401 else "cX",
            "grp": f"g{seed}-{i % 150}",
            "v": (i * (seed + 3)) % 997,
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
        dict(fd, tenant=acme), dict(dedup, tenant=zen),
        dict(dc, tenant=acme), dict(fd, tenant=zen),
        dict(dedup, tenant=acme), dict(dc, tenant=zen),
        dict(sql, tenant=acme), dict(sql, tenant=zen),
    ]


def _service(fault_plan=None) -> CleanService:
    svc = CleanService(workers=PARALLEL_WORKERS, num_nodes=NUM_NODES,
                       fault_plan=fault_plan)
    for tenant, seed in zip(TENANTS, (0, 5)):
        svc.register_table(tenant, "t", _tenant_rows(seed))
    return svc


def test_bench_faults(report):
    queries = _queries()

    with _service() as svc:
        baseline = svc.run_queries(queries, sequential=True)

    plan = FaultPlan().kill_before(worker=1, nth=2)
    with _service(fault_plan=plan) as svc:
        recovered = svc.run_queries(queries, sequential=True)
        retries = svc.pool.retries_total

    assert baseline.all_ok, [o.error for o in baseline.outcomes]
    assert recovered.all_ok, [o.error for o in recovered.outcomes]

    # Oracle parity: recovery is invisible in the results.
    for want, got in zip(baseline.outcomes, recovered.outcomes):
        assert (want.tenant, want.op) == (got.tenant, got.op)
        assert repr(want.rows) == repr(got.rows), (want.tenant, want.op)

    # The kill was recovered on the parallel backend, not degraded away.
    assert retries >= 1
    assert recovered.recovered_count >= 1
    assert recovered.degraded_count == 0

    emit_bench(BENCH_FAULTS_PATH, "one_kill_vs_clean", {
        "tenants": len(TENANTS),
        "queries": len(queries),
        "workers": PARALLEL_WORKERS,
        "one_kill": {
            "retries": retries,
            "recovered_queries": recovered.recovered_count,
            "degraded_queries": recovered.degraded_count,
        },
        "oracle_match": True,
    })

    rows = [
        {"mode": "fault-free", "retries": 0},
        {"mode": "1 worker kill", "retries": retries},
        {"mode": "oracle match"},
    ]
    report(print_table("Fault recovery: 8 warm queries, worker 1 killed", rows))
