"""Hypothesis: ``infer_table``'s fold is the per-row fold it replaced.

``semantics._fold_rows`` reads value types only for rows inside the sample
and, past it, adds a row's keys only when they are not all known yet.  The
reference below is the old body, which visited every key of every row.
Both must give the same ``TableInfo`` — columns in the same order, the same
type sets, ``is_record`` and ``row_count`` — through ``infer_table``, over
tables with keys that first appear late, rows that are not dicts and
``None`` values inside the sample.  ``patch_info`` must give what the
reference infers from the table after the delta (columns as a mapping:
the fold meets a delta's new keys in another order), and may refuse only
a replacement that lacks a known column.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.semantics import TableInfo, infer_table, patch_info

KEYS = ["a", "b", "c", "d", "e"]
values = st.one_of(st.none(), st.integers(-3, 3), st.floats(allow_nan=False), st.text(max_size=2), st.booleans())
dict_rows = st.dictionaries(st.sampled_from(KEYS), values, max_size=4)
rows = st.one_of(dict_rows, st.integers(0, 9))
samples = st.sampled_from([0, 1, 2, 3, 64])


def reference_fold(info, indexed, sample):
    for i, row in indexed:
        if not isinstance(row, dict):
            info.is_record = False
            return info
        for key, value in row.items():
            types = info.columns.setdefault(key, set())
            if i < sample and value is not None:
                types.add(type(value).__name__)
    return info


def reference_infer(table, sample):
    info = TableInfo(is_record=bool(table) and isinstance(table[0], dict), row_count=len(table))
    return reference_fold(info, enumerate(table), sample) if info.is_record else info


def fields(info):
    return list(info.columns.items()), info.is_record, info.row_count


@settings(max_examples=300, deadline=None)
@given(st.lists(rows, max_size=12), samples)
def test_infer_table_matches_the_per_row_fold(table, sample):
    assert fields(infer_table(table, sample)) == fields(reference_infer(table, sample))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(dict_rows, min_size=1, max_size=10), st.lists(rows, max_size=6),
    st.lists(st.tuples(st.integers(0, 9), dict_rows), max_size=3), samples,
)
def test_patch_info_matches_the_per_row_fold(base, appended, updates, sample):
    updated = list(dict((g % len(base), row) for g, row in updates).items())
    table = list(base)
    for g, row in updated:
        table[g] = row
    table += appended
    known = infer_table(base, sample).columns.keys()
    try:
        got = patch_info(infer_table(base, sample), len(base), appended, updated, table, sample)
    except ValueError:
        assert any(not row.keys() >= known for _, row in updated)
        return
    want = reference_infer(table, sample)
    assert (got.is_record, got.row_count) == (want.is_record, want.row_count)
    if want.is_record:
        assert got.columns == want.columns
