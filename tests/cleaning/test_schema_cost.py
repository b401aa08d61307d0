"""A write folds the inferred schema forward, it does not re-infer it: counted.

``check_dc`` with a rule string analyzes the rule against the table's
``TableInfo``, a ``TableStore.derived`` entry.  Its patch rule folds an
append's keys (and types, inside ``infer_table``'s 64-row sample) into the
held answer, so the check after a write makes no ``infer_table`` pass over
the table — and what it holds must equal what that pass would say, field
for field, or the analyzer judges rules against a schema the table does not
have.  An update is folded where that is faithful — one inside the
sample by re-reading the sample's 64 rows — and rebuilding is allowed,
disagreeing is not.
"""

import pytest

import repro.core.tables as tables
from fixtures import WORKERS
from repro import CleanDB
from repro.core.semantics import infer_table

RULE = "t1.a = t2.a and t1.price < t2.price"
SESSIONS = {
    "row": {},
    "incremental-parallel": {"execution": "parallel", "workers": WORKERS, "incremental": True},
}


def agrees(db):
    info, want = db.tables.info("t"), infer_table(db.table("t"))
    assert (info.columns, info.is_record, info.row_count) == (
        want.columns, want.is_record, want.row_count,
    )
    return info


@pytest.mark.parametrize("kind", SESSIONS)
@pytest.mark.parametrize("size", [10, 200], ids=["inside-the-sample", "past-the-sample"])
def test_the_check_after_a_write_does_not_re_infer_the_schema(kind, size, monkeypatch):
    passes = []

    def counted(rows, *args):
        passes.append(len(rows))
        return infer_table(rows, *args)

    monkeypatch.setattr(tables, "infer_table", counted)
    with CleanDB(num_nodes=2, **SESSIONS[kind]) as db:
        db.register_table("t", [{"a": i % 3, "price": float(i)} for i in range(size)])
        db.check_dc("t", RULE)
        assert passes == [size]

        # A new column, and a new type for an old one: both count inside the
        # sample, only the column past it.
        db.append_rows("t", [{"a": 1, "price": 2, "note": "late"}, {"a": None, "price": 3.5}])
        db.check_dc("t", RULE)
        assert passes == [size]
        info = agrees(db)
        assert info.row_count == size + 2
        assert info.columns["note"] == ({"str"} if size < 64 else set())
        assert ("int" in info.columns["price"]) == (size < 64)

        # A replacement that bears every known column folds, past the sample
        # or inside it.
        last = db.table("t")[-1]["_rid"]
        db.update_rows("t", {last: {"a": 2, "price": 1.0, "note": None, "more": 1}})
        agrees(db)
        assert passes[1:] == []  # inside the sample too: the sample is re-read, not the table
        # One that may have been a column's last bearer cannot: whatever the
        # store does, it must not disagree.
        db.update_rows("t", {last: {"a": 2, "price": 1.0}})
        assert "more" not in agrees(db).columns
        db.update_rows("t", {0: {"a": "zero", "price": None}})
        assert agrees(db).columns["a"] == {"int", "str"}
        db.check_dc("t", RULE)
        agrees(db)

        # A replacement inside the sample that bears every known column
        # re-reads the sample's rows, at any table size.
        seen = len(passes)
        db.update_rows("t", {1: {"a": 7.5, "price": 1.0, "note": None}})
        assert "float" in agrees(db).columns["a"]
        assert len(passes) == seen
