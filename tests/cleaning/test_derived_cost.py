"""A warm check probes and verifies, it does not re-derive: counted, not timed.

On a row or vectorized session the second ``check_dc`` of an unchanged
table reuses the plan and index ``TableStore.derived`` holds, and the second
``deduplicate`` the q-gram bags of its count filter.  The line neither may
cross is kept by counting through wrappers on the kernel as the driver
calls it: no extraction, planning, index build or tokenizing, yet one probe
per partition and every candidate pair verified, the ledger charged op for
op as on the first call, and the same answer out in the same order — so
neither a cached result nor a skipped charge can pass.
"""

import pytest

import repro.cleaning.denial as denial
import repro.cleaning.simjoin as simjoin
from repro import CleanDB
from repro.cleaning.tokenize import qgrams
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
    ops = [{**vars(op), "wall_seconds": 0.0} for op in db.cluster.metrics.ops[since:]]
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


WORDS = ("anderson", "baxter", "carlsson", "dominguez", "eriksen", "fairbanks")


def people():
    """Five blocks; block mates sharing a word are near duplicates."""
    return [
        {"_rid": i, "block": i % 5, "name": f"{WORDS[i % 6]} {i % 7}", "street": f"{i % 4} main st"}
        for i in range(120)
    ]


def dedup(db, attributes=("name", "street")):
    return db.deduplicate("t", list(attributes), block_on="block")


def as_pairs(pairs):
    return [(p.left_id, p.right_id, id(p.left), id(p.right)) for p in pairs]


@pytest.fixture
def tokenized(monkeypatch):
    """The text of every ``gram_bag`` call the similarity kernel makes."""
    texts = []
    gram_bag = simjoin.gram_bag
    monkeypatch.setattr(
        simjoin, "gram_bag", lambda text, *args: texts.append(text) or gram_bag(text, *args)
    )
    return texts


@pytest.mark.parametrize("execution", ["row", "vectorized"])
def test_the_second_dedup_of_an_unchanged_table_only_verifies(execution, tokenized):
    rows = people()
    with CleanDB(num_nodes=NODES, execution=execution) as db, \
            CleanDB(num_nodes=NODES, execution=execution) as fresh:
        db.register_table("t", rows)

        first = dedup(db)
        assert first and tokenized
        first_ledger = ledger(db, 0)
        mark = len(db.cluster.metrics.ops)
        _, key, bags, patch = db.tables._derived["t"]["bags"]
        assert key == ("bags", 3) and patch is None and len(bags) == len(set(tokenized))

        del tokenized[:]
        second = dedup(db)
        assert tokenized == []

        # Every candidate pair verified and charged again: the same ops,
        # twice the pair counters.
        ops, comparisons, verified = ledger(db, mark)
        assert ops == first_ledger[0] and any(op.get("name") == "similarity:dedup" for op in ops)
        assert (comparisons, verified) == (2 * first_ledger[1], 2 * first_ledger[2])
        assert 0 < first_ledger[2] < first_ledger[1]

        fresh.register_table("t", rows)
        assert as_pairs(second) == as_pairs(first) == as_pairs(dedup(fresh))

        # A write drops the entry; the next call rebuilds it.
        db.append_rows("t", [{"block": 0, "name": "anderson 9", "street": "0 main st"}])
        assert "bags" not in db.tables._derived["t"]
        dedup(db)
        assert tokenized and db.tables._derived["t"]["bags"][2] is not bags


@pytest.mark.parametrize("execution", ["row", "vectorized"])
def test_a_session_without_the_count_filter_keeps_no_bags(execution, tokenized):
    with CleanDB(num_nodes=NODES, execution=execution, sim_filters=False) as db:
        db.register_table("t", people())
        assert dedup(db)
        assert tokenized == [] and "bags" not in db.tables._derived.get("t", {})


@pytest.mark.parametrize("execution", ["row", "vectorized"])
def test_an_in_place_edit_changes_the_next_dedup_as_it_changes_a_fresh_one(execution):
    """The bags are keyed by text, not by row: a same-length edit the stamp
    cannot see still reaches the count filter, through the same cache.  On
    one attribute the count filter alone rejects two same-length names that
    share no q-gram, so a stale bag would keep rejecting the edited pair."""
    name = ("name",)
    grams = lambda row: set(qgrams(row["name"], 3))  # noqa: E731
    with CleanDB(num_nodes=NODES, execution=execution) as db:
        db.register_table("t", people())
        before = dedup(db, name)
        bags = db.tables._derived["t"]["bags"][2]
        table = db.table("t")
        a, b = next(
            (x, y) for x in table for y in table
            if x["_rid"] < y["_rid"] and x["block"] == y["block"]
            and len(x["name"]) == len(y["name"]) and not grams(x) & grams(y)
        )
        assert (a["_rid"], b["_rid"]) not in {(p.left_id, p.right_id) for p in before}
        a["name"] = b["name"]  # a pair the count filter rejected now matches

        after = dedup(db, name)
        assert db.tables._derived["t"]["bags"][2] is bags
        assert (a["_rid"], b["_rid"]) in {(p.left_id, p.right_id) for p in after}
        with CleanDB(num_nodes=NODES, execution=execution) as fresh:
            fresh.register_table("t", table)
            assert as_pairs(after) == as_pairs(dedup(fresh, name))
