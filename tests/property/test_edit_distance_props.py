"""Hypothesis: the bit-parallel edit distance and the set-intersection count
filter equal the loops they replaced.

The similarity kernel's two inner loops were rewritten for speed — the
cell-by-cell Levenshtein DP became Myers' bit-parallel scan over Python
ints, and the sorted-bag merge of the count filter became one frozenset
intersection over occurrence-tagged q-grams.  The old loops live on here as
the oracles: results must be equal on every input (empty, equal, astral and
combining unicode, patterns wider than one 64-bit word and wider than 300
characters), the ``max_distance`` contract must hold, and the simulated
cost the kernel charges must be bit-identical to the seed's.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cleaning import deduplicate
from repro.cleaning.denial import check_dc
from repro.cleaning.similarity import (
    banded_ld_similarity,
    levenshtein_distance,
    levenshtein_similarity,
    pattern_masks,
    similar,
)
from repro.cleaning.simjoin import SimJoin, gram_bag, ld_upper_bound
from repro.cleaning.tokenize import qgrams
from repro.engine import Cluster

from fixtures import dedup_clean_records, nully_orders_rows, psi_constraint


# --------------------------------------------------------------------- #
# Oracles: the loops the kernel used to run
# --------------------------------------------------------------------- #
def row_dp_distance(a: str, b: str) -> int:
    """The seed's cell-by-cell Levenshtein DP, without its band."""
    if len(a) > len(b):
        a, b = b, a
    previous = list(range(len(a) + 1))
    for j, cb in enumerate(b, start=1):
        current = [j]
        for i, ca in enumerate(a, start=1):
            cost = 0 if ca == cb else 1
            current.append(
                min(previous[i] + 1, current[i - 1] + 1, previous[i - 1] + cost)
            )
        previous = current
    return previous[-1]


def sorted_overlap(a, b) -> int:
    """The seed's bag-intersection size: two-pointer merge of sorted bags."""
    a, b = sorted(a), sorted(b)
    i = j = shared = 0
    while i < len(a) and j < len(b):
        if a[i] == b[j]:
            shared += 1
            i += 1
            j += 1
        elif a[i] < b[j]:
            i += 1
        else:
            j += 1
    return shared


# --------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------- #
# Small alphabets force matches, repeats and transpositions; the unicode
# alphabet mixes an astral code point, a combining mark and a precomposed
# letter (Python strings compare by code point, as the DP did).
ascii_words = st.text(alphabet="abc ", max_size=24)
unicode_words = st.text(alphabet="aéé\U0001F600\U00010348 ", max_size=24)
long_words = st.text(alphabet="ab", min_size=65, max_size=140)
huge_words = st.text(alphabet="abc", min_size=301, max_size=340)
any_word = st.one_of(ascii_words, unicode_words, long_words)


@st.composite
def word_pairs(draw):
    """Independent pairs plus near-duplicates (a few edits apart), which is
    where a banded scan must stay exact."""
    a = draw(st.one_of(any_word, huge_words) if draw(st.integers(0, 9)) == 0 else any_word)
    if draw(st.booleans()):
        return a, draw(any_word)
    chars = list(a)
    for _ in range(draw(st.integers(0, 4))):
        position = draw(st.integers(0, len(chars)))
        edit = draw(st.sampled_from(["insert", "delete", "replace"]))
        if edit == "insert":
            chars.insert(position, draw(st.sampled_from("abz")))
        elif chars and position < len(chars):
            if edit == "delete":
                del chars[position]
            else:
                chars[position] = draw(st.sampled_from("abz"))
    return a, "".join(chars)


FAST = settings(max_examples=300, deadline=None)


# --------------------------------------------------------------------- #
# Edit distance
# --------------------------------------------------------------------- #
@given(word_pairs())
@FAST
def test_bit_parallel_distance_equals_row_dp(pair):
    a, b = pair
    expected = row_dp_distance(a, b)
    assert levenshtein_distance(a, b) == expected
    assert levenshtein_distance(b, a) == expected
    # A caller-supplied mask table pins ``a`` as the pattern, whichever
    # string is longer.
    assert levenshtein_distance(a, b, masks=pattern_masks(a)) == expected
    assert levenshtein_distance(b, a, masks=pattern_masks(b)) == expected


def test_fixed_shapes():
    for a, b in [
        ("", ""), ("", "abc"), ("abc", ""), ("abc", "abc"),
        ("a" * 64, "a" * 65), ("ab" * 40, "ba" * 40),
        ("x" * 301, "x" * 150 + "y" + "x" * 150),
        ("é", "é"), ("\U0001F600a", "a\U0001F600"),
    ]:
        assert levenshtein_distance(a, b) == row_dp_distance(a, b), (a, b)


@given(word_pairs(), st.integers(min_value=0, max_value=12))
@FAST
def test_max_distance_contract(pair, k):
    """Exact when the distance is within the band, ``> k`` otherwise."""
    a, b = pair
    expected = row_dp_distance(a, b)
    for got in (
        levenshtein_distance(a, b, max_distance=k),
        levenshtein_distance(a, b, k, pattern_masks(a)),
    ):
        if expected <= k:
            assert got == expected
        else:
            assert got > k


@given(word_pairs(), st.sampled_from([0.0, 0.5, 0.75, 0.8, 0.9, 1.0]))
@FAST
def test_banded_similarity_is_exact_or_below_theta(pair, theta):
    a, b = pair
    longest = max(len(a), len(b))
    exact = 1.0 - row_dp_distance(a, b) / longest if longest else 1.0
    assert levenshtein_similarity(a, b) == exact
    banded = banded_ld_similarity(a, b, theta)
    if banded is None:
        assert exact < theta
    else:
        assert banded == exact
    assert similar("LD", a, b, theta) == (exact >= theta)


# --------------------------------------------------------------------- #
# Count filter
# --------------------------------------------------------------------- #
@given(word_pairs(), st.integers(min_value=1, max_value=4))
@FAST
def test_bag_overlap_equals_sorted_merge(pair, q):
    a, b = pair
    shared = len(gram_bag(a, q) & gram_bag(b, q))
    assert shared == sorted_overlap(qgrams(a, q), qgrams(b, q))
    assert len(gram_bag(a, q)) == len(qgrams(a, q))


@given(word_pairs())
@FAST
def test_upper_bound_is_sound_with_and_without_bags(pair):
    a, b = pair
    exact = levenshtein_similarity(a, b)
    bound = ld_upper_bound(a, b)
    assert exact <= bound
    assert ld_upper_bound(a, b, 3, gram_bag(a, 3), gram_bag(b, 3)) == bound
    assert exact <= ld_upper_bound(a, b, use_count=False)
    assert exact <= ld_upper_bound(a, b, use_length=False)


# --------------------------------------------------------------------- #
# Simulated cost: bit-identical to the seed
# --------------------------------------------------------------------- #
WORDS = [
    "", "a", "alice", "alice smith", "alice smyth", "bob jones",
    "cleaning data at scale", "clean data at scale", "xylophone",
    "aaaa aaaa", "abab abab ab",
]


def test_join_stats_equal_the_seed():
    """Counters and the float ``work`` of a fixed pair grid, as the seed's
    DP + sorted-merge kernel produced them (``float.hex`` of the work)."""
    cost = Cluster(num_nodes=3).cost_model
    join = SimJoin(
        ["x", "y"], "LD", 0.7,
        compare_unit=cost.compare_unit, filter_unit=cost.filter_unit,
    )
    grid = [(a, b) for a in WORDS for b in WORDS[::3]]
    preps = [join.prepare(i, {"x": a, "y": b}) for i, (a, b) in enumerate(grid)]
    for i, a in enumerate(preps):
        for b in preps[i + 1:]:
            join.verify(a, b)
    stats = join.stats
    assert (stats.candidates, stats.verified, stats.metric_calls, stats.pairs) == (
        946, 189, 248, 20
    )
    assert stats.work.hex() == "0x1.2ba8f5c28f599p+8"


def test_engine_sim_time_equals_the_seed():
    """One dedup and one DC check through the engine: pair counts, pruning
    counters and the simulated clock are the seed's, to the last bit."""
    cluster = Cluster(num_nodes=3)
    dups = deduplicate(
        cluster.parallelize(dedup_clean_records(60)),
        ["pages", "authors"], block_on=("journal", "title"), theta=0.3,
    ).collect()
    violations = check_dc(
        cluster.parallelize(nully_orders_rows(80)), psi_constraint()
    ).collect()
    assert (len(dups), len(violations)) == (30, 899)
    assert (cluster.metrics.comparisons, cluster.metrics.verified) == (6430, 2280)
    assert cluster.metrics.simulated_time.hex() == "0x1.8ed47eb53344fp+9"
