"""Hypothesis: the planned DC kernel equals a naive O(n²) oracle everywhere.

The banded plan (equality-prefix hashing + sorted range scan + residual
verification) must be *lossless*: for random — and null-laden — record
sets and random constraint shapes, the violation pair set equals a naive
nested-loop oracle applying the same null-safe three-valued semantics, on
the row, parallel (real worker processes), and columnar backends alike.
The three backends must additionally agree pair-for-pair in order
(byte-identical output), which the cross-backend test pins down.
"""

import math
import pickle

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fixtures import SETTINGS, WORKERS, dirty_lineitem_rows, record_sets, with_rids
from repro.cleaning.dc_kernel import (
    DCStats,
    build_dc_index,
    left_filter,
    plan_dc_entries,
    record_extractor,
    scan_partition,
    scan_right_anchored,
)
from repro.cleaning.denial import (
    DenialConstraint,
    SingleFilter,
    TuplePredicate,
    check_dc,
    check_dc_columnar,
    check_dc_parallel,
    check_fd,
    check_fd_parallel,
    find_violations,
)
from repro.engine import Cluster

CONSTRAINTS = st.sampled_from(
    [
        # Rule-ψ shape: two ordered predicates (planner must pick a band).
        DenialConstraint(
            predicates=(
                TuplePredicate("a", "<", "a"),
                TuplePredicate("b", ">", "b"),
            ),
            name="psi",
        ),
        # ψ with a left filter.
        DenialConstraint(
            predicates=(
                TuplePredicate("a", "<", "a"),
                TuplePredicate("b", ">", "b"),
            ),
            left_filters=(SingleFilter("a", "<", 1),),
            name="psi_capped",
        ),
        # Equality prefix + band + residual.
        DenialConstraint(
            predicates=(
                TuplePredicate("c", "==", "c"),
                TuplePredicate("a", "<=", "a"),
                TuplePredicate("b", "!=", "b"),
            ),
            name="eq_band_res",
        ),
        # Symmetric (both orders can violate): exercises the
        # exactly-once unordered-pair rule.
        DenialConstraint(
            predicates=(
                TuplePredicate("a", "==", "a"),
                TuplePredicate("b", "!=", "b"),
            ),
            name="fd_like",
        ),
        # Ordered-only, non-strict both ways (ties everywhere).
        DenialConstraint(
            predicates=(
                TuplePredicate("a", ">=", "a"),
                TuplePredicate("b", "<=", "b"),
            ),
            name="geq_leq",
        ),
        # No ordered predicate at all: degenerate band-less plan.
        DenialConstraint(
            predicates=(TuplePredicate("b", "!=", "b"),),
            left_filters=(SingleFilter("c", ">=", 0),),
            name="ne_only",
        ),
    ]
)


_with_rids = with_rids


def oracle_pairs(records, constraint):
    """Naive nested loop under the kernel's contract: null-safe
    three-valued predicates, stable-rid self-pair skip, and each unordered
    pair reported once (rid-ordered) when both orders violate."""
    out = set()
    for t1 in records:
        for t2 in records:
            if not constraint.violated_by(t1, t2):
                continue
            if t1["_rid"] > t2["_rid"] and constraint.violated_by(t2, t1):
                continue
            out.add((t1["_rid"], t2["_rid"]))
    return out


def rid_pairs(dataset):
    return {(t1["_rid"], t2["_rid"]) for t1, t2 in dataset.collect()}


@pytest.fixture(scope="module")
def par_cluster():
    """One worker pool for the whole module: process spawn is too costly to
    repeat per Hypothesis example."""
    with Cluster(num_nodes=3, workers=WORKERS) as cluster:
        yield cluster


@given(record_sets, CONSTRAINTS)
@SETTINGS
def test_row_banded_matches_oracle(records, constraint):
    records = _with_rids(records)
    cluster = Cluster(num_nodes=3)
    ds = cluster.parallelize(records)
    found = rid_pairs(check_dc(ds, constraint, strategy="banded"))
    assert found == oracle_pairs(records, constraint)
    # The banded scan never examines more than the pair universe.
    assert cluster.metrics.verified <= cluster.metrics.comparisons


@given(record_sets, CONSTRAINTS)
@SETTINGS
def test_parallel_banded_matches_oracle(par_cluster, records, constraint):
    records = _with_rids(records)
    found = rid_pairs(check_dc_parallel(par_cluster, records, constraint))
    assert found == oracle_pairs(records, constraint)


@given(record_sets, CONSTRAINTS)
@SETTINGS
def test_columnar_banded_matches_oracle(records, constraint):
    records = _with_rids(records)
    cluster = Cluster(num_nodes=3)
    found = rid_pairs(check_dc_columnar(cluster, records, constraint))
    assert found == oracle_pairs(records, constraint)


@given(record_sets, CONSTRAINTS)
@SETTINGS
def test_backends_byte_identical(par_cluster, records, constraint):
    """Row, parallel, and columnar produce the same pairs in the same
    order — not merely the same set."""
    records = _with_rids(records)
    row_cluster = Cluster(num_nodes=3)
    row = check_dc(
        row_cluster.parallelize(records), constraint, strategy="banded"
    ).collect()
    par = check_dc_parallel(par_cluster, records, constraint).collect()
    col_cluster = Cluster(num_nodes=3)
    col = check_dc_columnar(col_cluster, records, constraint).collect()
    assert par == row
    assert col == row


def object_ids(items):
    """The identity of every row an output holds, in output order."""
    return [tuple(map(id, rows)) for rows in items]


@given(record_sets, CONSTRAINTS, st.booleans())
@example(
    [{"a": 0, "b": 1, "c": None}, {"a": 1, "b": 0, "c": None}],
    DenialConstraint((TuplePredicate("a", "<", "a"), TuplePredicate("b", ">", "b"))),
    False,
)
@SETTINGS
def test_parallel_replies_are_the_row_drivers_own_rows(par_cluster, records, constraint, ids):
    """Workers name rows by their index in the driver's table; resolved,
    the FD witnesses and DC pairs are the row driver's very dicts (``is``),
    in its order — on id-less tables, on null-laden columns, and below
    ``default_parallelism`` rows, where the round-robin stride clamps."""
    records = _with_rids(records) if ids else [dict(r) for r in records]
    row_dc = check_dc(Cluster(num_nodes=3).parallelize(records), constraint).collect()
    par_dc = check_dc_parallel(par_cluster, records, constraint).collect()
    assert object_ids(par_dc) == object_ids(row_dc)
    row_fd = check_fd(Cluster(num_nodes=3).parallelize(records), ["a"], ["b"]).collect()
    par_fd = check_fd_parallel(par_cluster, records, ["a"], ["b"]).collect()
    assert [(v.key, v.rhs_values) for v in par_fd] == [(v.key, v.rhs_values) for v in row_fd]
    assert object_ids(v.records for v in par_fd) == object_ids(v.records for v in row_fd)


@given(record_sets)
@SETTINGS
def test_banded_agrees_with_matrix_on_asymmetric_rule(records):
    """For a strict asymmetric rule (both orders can never violate at
    once), the banded kernel and the all-pairs matrix strategy find the
    identical violation set."""
    constraint = DenialConstraint(
        predicates=(
            TuplePredicate("a", "<", "a"),
            TuplePredicate("b", ">", "b"),
        ),
    )
    records = _with_rids(records)
    banded = rid_pairs(
        check_dc(
            Cluster(num_nodes=3).parallelize(records), constraint, "banded"
        )
    )
    matrix = rid_pairs(
        check_dc(
            Cluster(num_nodes=3).parallelize(records), constraint, "matrix"
        )
    )
    assert banded == matrix


# --------------------------------------------------------------------- #
# The compiled probe against brute force, over dirtier tables
# --------------------------------------------------------------------- #
class Wild:
    """A value ordered against ints (numerically) *and* strings (by its
    decimal text).  Ints and strings stay mutually incomparable, so a band
    column mixing them is an unsortable group — yet a ``Wild`` probe value
    compares with every member without raising, which is the only way that
    path can be checked against brute force."""

    def __init__(self, v: int):
        self.v = v

    def _key(self, other):
        return (str(self.v), other) if isinstance(other, str) else (self.v, other)

    def __lt__(self, other):
        mine, theirs = self._key(other)
        return mine < theirs

    def __le__(self, other):
        mine, theirs = self._key(other)
        return mine <= theirs

    def __gt__(self, other):
        mine, theirs = self._key(other)
        return mine > theirs

    def __ge__(self, other):
        mine, theirs = self._key(other)
        return mine >= theirs

    def __repr__(self):
        return f"Wild({self.v})"


small_ints = st.integers(min_value=-2, max_value=2)
# Numbers with nulls and NaN: safe under every operator.
numeric = st.one_of(st.none(), small_ints, st.just(math.nan), st.just(0.5))
# Ints and strings together: safe under == / != only, unsortable as a band.
mixed = st.one_of(st.none(), small_ints, st.sampled_from(["-1", "0", "1", "x"]), st.just(math.nan))
wide_records = st.lists(
    st.fixed_dictionaries({
        "a": numeric,
        "b": numeric,
        "m": mixed,
        "w": st.one_of(st.none(), small_ints.map(Wild)),
    }),
    max_size=12,
)

WIDE_CONSTRAINTS = [
    # != only, no filter: symmetric, every pair a candidate, mixed types.
    DenialConstraint((TuplePredicate("m", "!=", "m"),), name="ne_mixed"),
    # Mixed-type equality prefix with a != residual.
    DenialConstraint(
        (TuplePredicate("m", "==", "m"), TuplePredicate("a", "!=", "a")),
        name="eq_mixed",
    ),
    # One-way shortcut taken: a strict order over one attribute.
    DenialConstraint(
        (TuplePredicate("a", ">", "a"), TuplePredicate("b", "!=", "b")),
        left_filters=(SingleFilter("b", "<=", 1),),
        name="one_way",
    ),
    # Not taken: strict, but across two attributes — both orders of a
    # pair can violate, and the left filter decides the reverse order.
    DenialConstraint(
        (TuplePredicate("a", "<", "b"),),
        left_filters=(SingleFilter("a", ">=", 0),),
        name="two_way_strict",
    ),
    # Not taken: non-strict over one attribute (ties violate both ways).
    DenialConstraint(
        (TuplePredicate("a", "<=", "a"), TuplePredicate("m", "!=", "m")),
        name="two_way_ties",
    ),
    # Unsortable band groups: ints and strings in the band column, with
    # probe values that compare with both.
    DenialConstraint(
        (TuplePredicate("w", "<", "m"), TuplePredicate("a", "!=", "a")),
        name="unsortable_band",
    ),
    DenialConstraint(
        (TuplePredicate("a", "==", "a"), TuplePredicate("w", ">=", "m")),
        name="unsortable_band_in_groups",
    ),
]


def rid_pair_list(pairs):
    return sorted((t1["_rid"], t2["_rid"]) for t1, t2 in pairs)


def _cycled(values, i):
    return values[i % len(values)]


# Co-prime cycles over every dirty value: each equality group and the
# band column hold nulls, NaN, ints *and* strings, so the unsortable-group
# and reverse-order paths run on every constraint that has them.
DIRTY_TABLE = [
    {
        "a": _cycled([0, 1, None, 2, math.nan, 0.5, 1], i),
        "b": _cycled([1, None, 0, 2, 1], i),
        "m": _cycled([0, "0", 1, None, "x", math.nan, "1", 2, 1, "x", 0], i),
        "w": _cycled([Wild(0), None, Wild(1), Wild(-1)], i),
    }
    for i in range(40)
]


@pytest.mark.parametrize("constraint", WIDE_CONSTRAINTS, ids=lambda c: c.name)
def test_compiled_probe_matches_brute_force_on_the_dirty_table(constraint):
    check_against_brute_force(DIRTY_TABLE, constraint)


@given(wide_records, st.sampled_from(WIDE_CONSTRAINTS))
@settings(SETTINGS, max_examples=120)
def test_compiled_probe_matches_brute_force(records, constraint):
    check_against_brute_force(records, constraint)


def check_against_brute_force(records, constraint):
    records = _with_rids(records)
    expected = sorted(oracle_pairs(records, constraint))
    # Lists, not sets: a pair reported twice is a failure.
    assert rid_pair_list(find_violations(records, constraint)) == expected
    row = check_dc(
        Cluster(num_nodes=3).parallelize(records), constraint, strategy="banded"
    ).collect()
    assert rid_pair_list(row) == expected
    col = check_dc_columnar(Cluster(num_nodes=3), records, constraint).collect()
    assert [(id(a), id(b)) for a, b in col] == [(id(a), id(b)) for a, b in row]


def test_plan_pickles_without_its_compiled_probe():
    constraint = DenialConstraint(
        (TuplePredicate("c", "==", "c"), TuplePredicate("a", "<", "a")),
    )
    records = _with_rids([{"a": i % 3, "b": 0, "c": i % 2} for i in range(8)])
    extract = record_extractor(constraint)
    entries = [extract(r["_rid"], r) for r in records]
    plan = plan_dc_entries(constraint, entries)
    cold = pickle.dumps(plan)
    index = build_dc_index(entries, plan)
    pairs = scan_partition(entries, index, plan, DCStats())
    assert "_compiled" in vars(plan)
    assert pickle.dumps(plan) == cold
    shipped = pickle.loads(cold)
    assert shipped == plan and "_compiled" not in vars(shipped)
    assert scan_partition(entries, index, shipped, DCStats()) == pairs


def test_dc_stats_equal_the_seed():
    """Examined/pairs and the float ``work`` of a fixed partitioned probe,
    as the seed's per-candidate loop produced them (``float.hex``): the
    probe keeps one ``span * compare_unit`` addition per left tuple, in
    order, across partitions sharing one ``DCStats``."""
    rows = _with_rids(dirty_lineitem_rows(200))
    constraint = DenialConstraint(
        predicates=(
            TuplePredicate("cat", "==", "cat"),
            TuplePredicate("price", "<", "price"),
            TuplePredicate("qty", ">", "qty"),
        ),
        left_filters=(SingleFilter("price", "<", 120.0),),
    )
    extract, passes = record_extractor(constraint), left_filter(constraint)
    entries = [extract(r["_rid"], r) for r in rows]
    plan = plan_dc_entries(constraint, entries)
    index = build_dc_index(entries, plan)
    stats = DCStats()
    for lo in range(0, 200, 37):
        left = [e for e in entries[lo:lo + 37] if passes(e)]
        scan_partition(left, index, plan, stats, 0.3)
    assert (stats.examined, stats.pairs) == (2999, 24)
    assert stats.work.hex() == "0x1.c1d9999999999p+9"


# --------------------------------------------------------------------- #
# The right-anchored scan against the forward probe
# --------------------------------------------------------------------- #
#: Shapes that can raise ``TypeError`` on ``wide_records`` — ints against
#: strings in the band, in a residual, and in the left filter the
#: exactly-once rule evaluates on the group's members.
RAISING_CONSTRAINTS = [
    DenialConstraint((TuplePredicate("m", "<=", "m"),), name="mixed_band"),
    DenialConstraint(
        (
            TuplePredicate("a", "==", "a"),
            TuplePredicate("b", ">", "b"),
            TuplePredicate("m", "<", "m"),
        ),
        name="mixed_residual",
    ),
    DenialConstraint(
        (TuplePredicate("a", ">=", "b"),),
        left_filters=(SingleFilter("m", "<", 1),),
        name="mixed_filter",
    ),
]


def _scanned(scan):
    try:
        return [(t1.rid, t2.rid) for t1, t2 in scan()]
    except TypeError:
        return TypeError


def _partners(pairs):
    """Each t1's partners, in the order the scan emitted them."""
    out = {}
    for t1, t2 in pairs:
        out.setdefault(t1, []).append(t2)
    return out


def check_right_anchored(records, constraint, split):
    """The entries on one side of ``split`` are the maintained lefts, the
    others the delta (each way round, so the delta's rids sort both before
    and after the lefts'): for every delta group, the lefts reaching it
    give the same pair list from either side, the same partners in the
    same order per t1, and raise ``TypeError`` in exactly the same cases."""
    records = _with_rids(records)
    extract, passes = record_extractor(constraint), left_filter(constraint)
    entries = [extract(r["_rid"], r) for r in records]
    plan = plan_dc_entries(constraint, entries)

    def kept(entry):
        try:
            return passes(entry)
        except TypeError:  # a left that raises never reaches a scan
            return False

    for old, delta in ((entries[:split], entries[split:]), (entries[split:], entries[:split])):
        lefts = list(filter(kept, old))
        for key, group in build_dc_index(delta, plan).items():
            reaching = [e for e in lefts if tuple(e.lvals[i] for i in plan.eq_idx) == key]
            forward = _scanned(lambda: scan_partition(reaching, {key: group}, plan, DCStats()))
            right = _scanned(lambda: scan_right_anchored(reaching, group, plan))
            if TypeError in (forward, right):
                assert forward is right
                continue
            assert sorted(right) == sorted(forward)
            assert _partners(right) == _partners(forward)


@given(record_sets, CONSTRAINTS, st.integers(min_value=0, max_value=12))
@settings(SETTINGS, max_examples=300)
def test_right_anchored_scan_matches_forward(records, constraint, split):
    check_right_anchored(records, constraint, split)


@given(
    wide_records,
    st.sampled_from(WIDE_CONSTRAINTS + RAISING_CONSTRAINTS),
    st.integers(min_value=0, max_value=12),
)
@settings(SETTINGS, max_examples=300)
def test_right_anchored_scan_matches_forward_on_wide_records(records, constraint, split):
    check_right_anchored(records, constraint, split)


@pytest.mark.parametrize("split", [0, 1, 13, 27, 39])
@pytest.mark.parametrize(
    "constraint", WIDE_CONSTRAINTS + RAISING_CONSTRAINTS, ids=lambda c: c.name
)
def test_right_anchored_scan_matches_forward_on_the_dirty_table(constraint, split):
    check_right_anchored(DIRTY_TABLE, constraint, split)
