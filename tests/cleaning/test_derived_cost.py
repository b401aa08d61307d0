"""A warm DC check probes, it does not re-index: counted, not timed.

On a row or vectorized session the second ``check_dc`` of an unchanged
table reuses the plan and index ``TableStore.derived`` holds.  The line it
must not cross is kept by counting through wrappers on the kernel as the
driver calls it: no extraction, planning or index build, yet one probe per
partition, the ledger charged op for op as on the first call, and the same
row objects out in the same order — so neither a cached result nor a
skipped charge can pass.
"""

from dataclasses import asdict

import pytest

import repro.cleaning.denial as denial
from repro import CleanDB
from repro.datasets.tpch import rule_psi

NODES = 4
ROWS = 400
KERNEL = ("extract_partition", "plan_dc_entries", "build_dc_index", "scan_partition")


def table():
    return [
        {"_rid": i, "price": float(900 + (i * 37) % ROWS), "discount": (i * 11) % 10 / 100}
        for i in range(ROWS)
    ]


def ledger(db, since):
    """The ops a call appended, wall clock aside, and the two pair counters."""
    ops = [{**asdict(op), "wall_seconds": 0.0} for op in db.cluster.metrics.ops[since:]]
    return ops, db.cluster.metrics.comparisons, db.cluster.metrics.verified


@pytest.mark.parametrize("execution", ["row", "vectorized"])
def test_the_second_check_of_an_unchanged_table_only_probes(execution, monkeypatch):
    calls = dict.fromkeys(KERNEL, 0)

    def counted(name):
        func = getattr(denial, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)

        monkeypatch.setattr(denial, name, wrapper)

    for name in KERNEL:
        counted(name)
    psi = rule_psi(1000.0)
    rows = table()
    with CleanDB(num_nodes=NODES, execution=execution) as db, \
            CleanDB(num_nodes=NODES, execution=execution) as fresh:
        db.register_table("t", rows)
        n = db.cluster.default_parallelism

        first = db.check_dc("t", psi)
        assert first
        assert calls == dict(zip(KERNEL, (n, 1, 1, n)))
        first_ledger = ledger(db, 0)
        mark = len(db.cluster.metrics.ops)

        calls.update(dict.fromkeys(KERNEL, 0))
        second = db.check_dc("t", psi)
        assert calls == dict(zip(KERNEL, (0, 0, 0, n)))

        # Charged op for op as the first call: name, per-node work, shuffle,
        # batches — the simulated clock does not know the state was warm.
        ops, comparisons, verified = ledger(db, mark)
        assert ops == first_ledger[0] and len(ops) >= 4
        assert (comparisons, verified) == (2 * first_ledger[1], 2 * first_ledger[2])
        assert verified > 0

        # The same row objects, in the same order, as a session that has
        # never seen the table.
        fresh.register_table("t", rows)
        cold = fresh.check_dc("t", psi)
        as_ids = lambda pairs: [(id(a), id(b)) for a, b in pairs]  # noqa: E731
        assert as_ids(second) == as_ids(first) == as_ids(cold)
        assert all(a is rows[a["_rid"]] for a, _ in second)

        # An equal constraint built anew is the same question ...
        calls.update(dict.fromkeys(KERNEL, 0))
        assert as_ids(db.check_dc("t", rule_psi(1000.0))) == as_ids(first)
        assert calls == dict(zip(KERNEL, (0, 0, 0, n)))
        # ... and a write makes it a new one.
        db.append_rows("t", [{"price": 901.0, "discount": 0.09}])
        db.check_dc("t", psi)
        assert calls == dict(zip(KERNEL, (n, 1, 1, 2 * n)))
