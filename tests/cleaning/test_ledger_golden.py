"""Golden simulated ledger of the cleaning drivers and of three queries.

The simulated clock is a price list applied to counts; a refactor of the
drivers must not move a single count.  ``ledger_golden.json`` freezes, for
FD / banded DC / exact-key dedup x {row, vectorized, parallel (2 workers)}
x {with rids, without rids, non-uniform rows}, the ordered list of
``(op name, per-node cost, shuffled_records, shuffle_cost, batches)`` the
driver charges, the ``comparisons`` / ``verified`` counters, and a digest
of the output ``repr``.  Floats are compared by ``repr``.  Every case goes
through the backend ladder (``cleaning/ladder.py``), which is what hands
the vectorized backend's non-uniform rows to the row driver.

The same record is kept for three queries run through ``CleanDB`` on each
backend: a count over a GROUP BY's bag (the bench's ``agg`` shape), a
GROUP BY with HAVING, and the Fig. 5 unified query, whose shared Nest
folds bags and sets.  A query's output digest lists each set's members
in ``repr`` order, because a set of strings iterates in the order the
process's hash seed picks.

``python tests/cleaning/test_ledger_golden.py`` re-records the file; only
do that for a change that is *meant* to re-price an operation.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from fixtures import (  # noqa: E402 - needs the tests/ directory on sys.path
    nully_dedup_rows,
    nully_fd_rows,
    nully_orders_rows,
    psi_constraint,
)
from repro import CleanDB  # noqa: E402
from repro.cleaning.dc_kernel import parse_dc  # noqa: E402
from repro.cleaning.ladder import run_check  # noqa: E402
from repro.engine import Cluster  # noqa: E402

GOLDEN = Path(__file__).with_name("ledger_golden.json")
BACKENDS = ("row", "vectorized", "parallel")
SHAPES = ("rids", "no_rids", "non_uniform")
NODES = 4
QUERIES = {
    "agg": (
        "lineitem", nully_orders_rows,
        "SELECT l.qty, count(l.price) AS n FROM lineitem l "
        "WHERE l.price > 120 GROUP BY l.qty",
    ),
    "having": (
        "customer", nully_fd_rows,
        "SELECT c.addr, count(c.nation) AS n FROM customer c "
        "GROUP BY c.addr HAVING count(c.nation) > 15",
    ),
    "unified": (
        "customer", nully_fd_rows,
        "SELECT * FROM customer c FD(c.addr, prefix(c.phone)) FD(c.addr, c.nation) "
        "DEDUP(exact, LD, 0.5, c.addr)",
    ),
}


def _shape(rows: list[dict], shape: str, ragged_key: str) -> list[dict]:
    if shape == "no_rids":
        return [{k: v for k, v in r.items() if k != "_rid"} for r in rows]
    if shape == "non_uniform":
        return [
            {k: v for k, v in r.items() if k != ragged_key} if i % 4 == 1 else r
            for i, r in enumerate(rows)
        ]
    return rows


def _fd(cluster, backend, rows, lhs):
    return run_check(
        cluster, "fd", rows, backend, name="lineitem", fmt="csv", lhs=lhs, rhs=["nation"]
    )


def _dc(cluster, backend, rows, constraint):
    return run_check(
        cluster, "dc", rows, backend, name="lineitem", constraint=constraint, strategy="banded"
    )


def _dedup(cluster, backend, rows, block_on):
    return run_check(
        cluster, "dedup", rows, backend, name="input", fmt="json",
        attributes=["name"], metric="LD", theta=0.7, block_on=block_on,
    )


def _cases():
    eq_filter = parse_dc(
        "t1.qty == t2.qty and t1.price < t2.price", where="t1.price < 200"
    )
    for shape in SHAPES:
        fd_rows = _shape(nully_fd_rows(), shape, "phone")
        dc_rows = _shape(nully_orders_rows(), shape, "qty")
        dedup_rows = _shape(nully_dedup_rows(), shape, "name")
        yield f"fd:addr:{shape}", _fd, fd_rows, ["addr"]
        yield f"fd:addr+phone:{shape}", _fd, fd_rows, ["addr", "phone"]
        yield f"dc:psi:{shape}", _dc, dc_rows, psi_constraint()
        yield f"dc:eq+filter:{shape}", _dc, dc_rows, eq_filter
        yield f"dedup:city:{shape}", _dedup, dedup_rows, "city"
        yield f"dedup:default:{shape}", _dedup, dedup_rows, None


def _record(metrics, out) -> dict:
    return {
        "ops": [
            [
                op.name,
                [repr(w) for w in op.per_node_work],
                op.shuffled_records,
                repr(op.shuffle_cost),
                op.batches,
            ]
            for op in metrics.ops
        ],
        "comparisons": metrics.comparisons,
        "verified": metrics.verified,
        "output": hashlib.sha1(repr(out).encode()).hexdigest(),
    }


def _entry(run, backend, rows, arg) -> dict:
    with Cluster(NODES, workers=2 if backend == "parallel" else None) as cluster:
        return _record(cluster.metrics, run(cluster, backend, rows, arg).collect())


def _seedless(value):
    """``value`` with every set listed in ``repr`` order: a set of strings
    iterates in an order the process's hash seed picks, so only its members
    can be frozen across processes."""
    if isinstance(value, (set, frozenset)):
        return ["set", *sorted((_seedless(v) for v in value), key=repr)]
    if isinstance(value, dict):
        return {k: _seedless(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value)(_seedless(v) for v in value)
    return value


def _query_entry(backend, table, rows, sql) -> dict:
    workers = 2 if backend == "parallel" else None
    with CleanDB(NODES, execution=backend, workers=workers) as db:
        db.register_table(table, rows())
        return _record(db.cluster.metrics, _seedless(db.execute(sql).branches))


def ledger(backends=BACKENDS) -> dict:
    out = {
        f"{case}:{backend}": _entry(run, backend, rows, arg)
        for case, run, rows, arg in _cases()
        for backend in backends
    }
    for name, (table, rows, sql) in QUERIES.items():
        for backend in backends:
            out[f"query:{name}:{backend}"] = _query_entry(backend, table, rows, sql)
    return out


@pytest.mark.parametrize("backend", BACKENDS)
def test_ledger_matches_golden(backend):
    golden = json.loads(GOLDEN.read_text())
    current = ledger((backend,))
    assert set(current) == {k for k in golden if k.endswith(f":{backend}")}
    for key, entry in current.items():
        assert entry == golden[key], key


def test_golden_covers_every_cell():
    golden = json.loads(GOLDEN.read_text())
    assert len(golden) == (6 * len(SHAPES) + len(QUERIES)) * len(BACKENDS)
    vectorized = [
        e for k, e in golden.items()
        if k.endswith(":vectorized") and not k.startswith("query:")
    ]
    # Uniform shapes run at batch prices, the ragged shape at row prices.
    assert sum(any(op[4] for op in e["ops"]) for e in vectorized) == 12
    # Every query runs a columnar stage on the vectorized backend, and all
    # three backends answer each query alike.
    for name in QUERIES:
        entries = [golden[f"query:{name}:{b}"] for b in BACKENDS]
        assert any(op[4] for op in entries[1]["ops"]), name
        assert len({e["output"] for e in entries}) == 1, name


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(ledger(), indent=1, sort_keys=True) + "\n")
    print(f"recorded {GOLDEN}")
