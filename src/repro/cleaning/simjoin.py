"""Filtered similarity-join kernel: candidate pruning shared by all backends.

The "Similarity" phase of Figs. 3 and 8 — pairwise metric evaluation inside
blocks — dominates the measured runtime of every similarity-based cleaning
operation.  This module is the one engine behind it.  Every candidate pair
is decided by :meth:`SimJoin.verify`: the row dedup driver's
(:func:`~repro.cleaning.dedup.pairwise_within_blocks`), the blocking
kernel's :func:`~repro.cleaning.dedup.block_pairs` (the vectorized driver,
the parallel worker tasks and ``IncrementalDedup``), term validation's
(term, dictionary word) pairs, which also read the accepted score, and a
query's ``similar_records`` (:func:`~repro.cleaning.similarity.
record_matcher`).  Filter semantics and comparison accounting cannot drift
between them.

The kernel splits the join into *candidate generation* (blocking, done by
the caller) and *verification* (done here), and prunes between the two:

* **Preparation** — per-record normalized terms, lengths, q-gram bags
  (:func:`gram_bag`) and edit-distance pattern masks are computed at most
  once per record (:class:`PreparedRecord`), the last two only on first
  use, not once per comparison as the previous inline loops did.  A bag
  depends on its text alone, so a join may read a :class:`BagCache` that
  outlives it (a session's, for the row and vectorized dedup drivers).
* **Length filtering** — for Levenshtein similarity ``>= theta``, a pair
  whose lengths differ by more than ``(1 - theta) * max_len`` cannot pass;
  it is rejected without touching the metric — or building a q-gram.
* **Count filtering** — one edit destroys at most ``q`` q-grams (Gravano et
  al.), so a pair sharing fewer than ``max_len - q + 1 - d_max * q`` q-grams
  cannot be within distance ``d_max``.  Bags are frozensets of
  occurrence-tagged q-grams, so the bag overlap is one C-level set
  intersection, again without running the metric.
* **Banding** — when the metric does run, the bit-parallel edit-distance
  scan is bounded by the maximum distance the pair could tolerate and still
  reach ``theta`` on average: it stops as soon as the text left to scan
  could not bring the score back under that budget.
* **Ownership** — with overlapping blocks (token filtering, k-means with
  ``delta > 0``) a pair sharing k blocks used to be generated k times and
  deduplicated through an all-pairs ``seen`` set.  The kernel instead
  assigns each pair to exactly one *owning* block — the least-frequent
  shared block key — so every pair is verified exactly once and the global
  ``seen`` set disappears.

All filters are *lossless*: the accept decision is taken by the exact same
floating-point expression (``sum(sim_i) / n >= theta``) as the naive loop,
with conservatively generous reject bounds, so the output pair set is
identical to unfiltered evaluation.  This is asserted by the Hypothesis
property suite (``tests/property/test_simjoin_props.py``).

Accounting: every candidate pair charges the cluster's ``comparisons``
counter (the pre-kernel semantics — the number of unique pairs considered)
plus a small ``filter_unit`` of simulated work; only pairs that survive the
filters charge ``verified`` and the char-proportional ``compare_unit`` work.
The ratio of the two counters is the observable pruning ratio reported by
the Fig. 8 benchmarks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Any, Iterator, Sequence

from .similarity import (
    EPSILON,
    banded_ld_similarity,  # noqa: F401 - re-exported: one band, one home
    get_metric,
    levenshtein_distance,
    levenshtein_similarity,
    pattern_masks,
)
from .tokenize import qgrams

# EPSILON (re-exported from .similarity, the single source of truth) is the
# margin for conservative *reject* decisions that cannot mirror the naive
# accept expression term-for-term (the edit-distance band works in units of
# ``theta * n`` while the naive decision divides by ``n``).  Accepts always
# go through the exact naive expression, so the margin can only make the
# kernel verify slightly more pairs than strictly necessary — never change
# the result.  1e-9 dwarfs accumulated float error (~1e-15) while staying
# far below the 1/max_len granularity of Levenshtein similarity.


@dataclass(frozen=True)
class FilterConfig:
    """Toggles for the candidate-pruning stages.

    ``length_filter`` / ``count_filter`` reject pairs before the metric
    runs; ``banding`` bounds the DP when it does run; ``ownership`` makes
    overlapping blocks verify each pair exactly once.  ``q`` is the q-gram
    width of the count filter (independent of any blocking q).  All four
    default to on; :data:`NO_FILTERS` reproduces the naive pre-kernel
    behaviour and is what the benchmarks compare against.
    """

    length_filter: bool = True
    count_filter: bool = True
    banding: bool = True
    ownership: bool = True
    q: int = 3

    @property
    def prunes(self) -> bool:
        """Whether any pre-metric or in-metric pruning is enabled."""
        return self.length_filter or self.count_filter or self.banding


DEFAULT_FILTERS = FilterConfig()
NO_FILTERS = FilterConfig(
    length_filter=False, count_filter=False, banding=False, ownership=False
)


def resolve_filters(filters: FilterConfig | None) -> FilterConfig:
    """``None`` means "the defaults" at every public call site."""
    return DEFAULT_FILTERS if filters is None else filters


def gram_bag(text: str, q: int, pool: dict[str, str] | None = None) -> frozenset:
    """The q-gram bag of ``text`` as a set: the k-th repeat of a gram is
    tagged ``(gram, k)``, so ``len(gram_bag(a, q) & gram_bag(b, q))`` is the
    bag-intersection size, computed by one C-level set intersection.

    ``pool`` shares equal grams between bags: near-duplicate records hold
    mostly the same grams.  The pool lives and dies with its owner (one
    join, or one :class:`BagCache`), unlike ``sys.intern``'s table, which
    never shrinks."""
    grams = qgrams(text, q)
    if pool is not None:
        grams = [pool.setdefault(gram, gram) for gram in grams]
    bag = set(grams)
    if len(bag) < len(grams):
        repeats: dict[str, int] = {}
        for gram in grams:
            k = repeats[gram] = repeats.get(gram, -1) + 1
            if k:
                bag.add((gram, k))
    return frozenset(bag)


class BagCache(dict):
    """``cache[text]`` is ``gram_bag(text, q)``, built on first lookup of
    each distinct string, its grams shared through the cache's own pool.
    Keyed by text, never by position, it may outlive a join and can never
    answer for an edited row: a session keeps one per table for dedup."""

    def __init__(self, q: int):
        super().__init__()
        self.q = q
        self.pool: dict[str, str] = {}

    def __missing__(self, text: str) -> frozenset:
        bag = self[text] = gram_bag(text, self.q, self.pool)
        return bag


class PreparedRecord:
    """Per-record comparison state, computed once instead of per pair.

    ``terms`` are the stringified comparison attributes.  The q-gram bags
    of the count filter and the pattern masks of the edit-distance scan are
    looked up lazily on first use, so workloads that never reach the count
    filter never pay for tokenization and a record that never reaches the
    metric holds no masks.  A record lives for one join (its bags may come
    from a longer-lived :class:`BagCache`).  ``payload`` carries whatever
    the caller needs to materialize an output pair (the record dict).
    """

    __slots__ = ("rid", "payload", "terms", "lengths", "bags", "_masks")

    def __init__(self, rid: Any, terms: Sequence[str], payload: Any):
        self.rid = rid
        self.payload = payload
        self.terms = tuple(terms)
        self.lengths = tuple(len(t) for t in self.terms)
        # Filled by the join that first count-filters the record (its q,
        # its bag cache or gram pool).
        self.bags: tuple[frozenset, ...] | None = None
        self._masks: tuple[dict[str, int], ...] | None = None

    def masks(self, index: int) -> dict[str, int]:
        if self._masks is None:
            self._masks = tuple(pattern_masks(term) for term in self.terms)
        return self._masks[index]


@dataclass
class JoinStats:
    """Counters the kernel accumulates; the pruning ratio reads off these.

    ``candidates`` is the number of unique pairs considered (the pre-kernel
    ``comparisons`` semantics), ``verified`` the pairs that survived the
    filters and ran the metric, ``metric_calls`` the per-attribute metric
    evaluations, ``pairs`` the accepted duplicates, and ``work`` the
    simulated cost (``filter_unit`` per candidate + ``compare_unit`` per
    compared character).
    """

    candidates: int = 0
    verified: int = 0
    metric_calls: int = 0
    pairs: int = 0
    work: float = 0.0

    def merge(self, other: "JoinStats") -> None:
        self.candidates += other.candidates
        self.verified += other.verified
        self.metric_calls += other.metric_calls
        self.pairs += other.pairs
        self.work += other.work


class SimJoin:
    """Pair verifier for one ``(attributes, metric, theta)`` setting.

    Construct once per join, :meth:`prepare` each record once, then
    :meth:`verify` candidate pairs.  The length/count/banding filters only
    engage for the Levenshtein metric (the only one with usable length and
    q-gram bounds); other metrics fall back to direct evaluation, keeping
    the decision identical either way.
    """

    def __init__(
        self,
        attributes: Sequence[str],
        metric: str = "LD",
        theta: float = 0.8,
        filters: FilterConfig | None = None,
        compare_unit: float = 0.0,
        filter_unit: float = 0.0,
    ):
        self.attributes = list(attributes)
        self.metric = metric
        self.sim = get_metric(metric)
        self.theta = float(theta)
        self.filters = resolve_filters(filters)
        # Length/count/banding bounds are only sound for Levenshtein
        # similarity (1 - d/max_len); other metrics run unfiltered.
        self.bounded = self.sim is levenshtein_similarity and self.filters.prunes
        self.compare_unit = compare_unit
        self.filter_unit = filter_unit
        self.stats = JoinStats()
        # A caller's BagCache the count filter reads, else each record
        # tokenizes its own terms through this join's gram pool.
        self.bags: BagCache | None = None
        self._gram_pool: dict[str, str] = {}

    # ------------------------------------------------------------------ #
    # Preparation
    # ------------------------------------------------------------------ #
    def prepare(self, rid: Any, record: dict) -> PreparedRecord:
        """Prepare a dict record: stringify the comparison attributes once."""
        terms = tuple(str(record.get(a, "")) for a in self.attributes)
        return PreparedRecord(rid, terms, record)

    def _bags(self, record: PreparedRecord) -> tuple[frozenset, ...]:
        if record.bags is None:
            cache = self.bags
            record.bags = tuple(
                gram_bag(term, self.filters.q, self._gram_pool) if cache is None else cache[term]
                for term in record.terms
            )
        return record.bags

    # ------------------------------------------------------------------ #
    # Verification
    # ------------------------------------------------------------------ #
    def verify(
        self, a: PreparedRecord, b: PreparedRecord, scored: bool = False
    ) -> bool | float | None:
        """Decide ``avg attr similarity >= theta`` — identically to the
        naive per-attribute loop (which an unbounded join runs), but
        filtered.  Updates :attr:`stats`.  ``scored``: answer the accepted
        pair's average similarity, ``None`` for a rejected one."""
        reject = None if scored else False
        stats = self.stats
        stats.candidates += 1
        n = len(self.attributes)
        theta = self.theta
        cfg = self.filters
        lengths_a, lengths_b = a.lengths, b.lengths
        if self.bounded:
            stats.work += self.filter_unit
            # Each sim_i <= bound_i (ld_upper_bound's, inline: a rejected
            # pair allocates nothing) and float addition and division are
            # monotone, so a left-to-right mean of bounds below theta rejects
            # soundly.  Lengths go first: most hopeless pairs die there.
            length_filter = cfg.length_filter
            if length_filter:
                total = 0.0
                for longest, shortest in zip(lengths_a, lengths_b):
                    if longest < shortest:
                        longest, shortest = shortest, longest
                    total += 1.0 - (longest - shortest) / longest if longest else 1.0
                if total / n < theta:
                    return reject
            if cfg.count_filter:
                bags_a, bags_b = a.bags or self._bags(a), b.bags or self._bags(b)
                total, q = 0.0, cfg.q
                for longest, shortest, bag_a, bag_b in zip(lengths_a, lengths_b, bags_a, bags_b):
                    if longest < shortest:
                        longest, shortest = shortest, longest
                    bound = 1.0 - (longest - shortest) / longest if length_filter and longest else 1.0
                    min_distance = -(-(longest - q + 1 - len(bag_a & bag_b)) // q)
                    if min_distance > 0:
                        count = 1.0 - min_distance / longest
                        if count < bound:
                            bound = count
                    total += bound
                if total / n < theta:
                    return reject
        banding = self.bounded and cfg.banding
        # suffix[i]: what attributes i.. can still contribute.
        suffix = self._suffix(a, b) if banding and n > 1 else None

        stats.verified += 1
        total = 0.0
        for i in range(n):
            term_a, term_b = a.terms[i], b.terms[i]
            len_a, len_b = lengths_a[i], lengths_b[i]
            stats.work += (len_a + len_b) * self.compare_unit
            stats.metric_calls += 1
            if banding:
                longest = len_a if len_a >= len_b else len_b
                if longest == 0:
                    total += 1.0
                    continue
                # Minimum similarity this attribute must contribute for the
                # average to still be able to reach theta.
                need = theta * n - total - (suffix[i + 1] if suffix else 0.0)
                if need > EPSILON:
                    budget = int(math.ceil((1.0 - need + EPSILON) * longest))
                    if budget < 0:
                        return reject
                    # The longer term is the bit-vector (its masks are
                    # cached on the record); the shorter one is scanned.
                    wide, narrow = (a, b) if len_a >= len_b else (b, a)
                    distance = levenshtein_distance(
                        wide.terms[i], narrow.terms[i], budget, wide.masks(i)
                    )
                    if distance > budget:
                        return reject
                    # Exact: the banded scan returns true distances within
                    # the band, and this is the metric's own expression.
                    total += 1.0 - distance / longest
                    continue
            total += self.sim(term_a, term_b)
        score = total / n
        if not score >= theta:
            return reject
        stats.pairs += 1
        return score if scored else True

    def _suffix(self, a: PreparedRecord, b: PreparedRecord) -> list[float]:
        """A surviving pair's right-to-left sums of the bounds its filters
        took (``suffix[n]`` is 0.0)."""
        cfg, total, suffix = self.filters, 0.0, [0.0]
        for i in reversed(range(len(self.attributes))):
            bags = (a.bags[i], b.bags[i]) if cfg.count_filter else (None, None)  # type: ignore[index]
            total += ld_upper_bound(
                a.terms[i], b.terms[i], cfg.q, *bags, cfg.length_filter, cfg.count_filter
            )
            suffix.append(total)
        return suffix[::-1]

    # ------------------------------------------------------------------ #
    # Block joining
    # ------------------------------------------------------------------ #
    @staticmethod
    def block_pairs(
        members: Sequence[PreparedRecord],
    ) -> Iterator[tuple[PreparedRecord, PreparedRecord]]:
        """Each unordered pair of one block's members with distinct rids,
        once, in the (i, j) visit order of the historical nested loops.
        The ``seen`` set only exists for a block that repeats a rid."""
        pairs = combinations(members, 2)
        if len({m.rid for m in members}) == len(members):
            yield from pairs
            return
        seen: set[tuple[Any, Any]] = set()
        for a, b in pairs:
            if a.rid == b.rid:
                continue
            pair_key = (a.rid, b.rid) if a.rid <= b.rid else (b.rid, a.rid)
            if pair_key not in seen:
                seen.add(pair_key)
                yield a, b

    def join_members(
        self, members: Sequence[PreparedRecord]
    ) -> Iterator[tuple[PreparedRecord, PreparedRecord]]:
        """All-pairs verification inside one non-overlapping block.

        Yields accepted pairs ordered ``left.rid <= right.rid``, in the
        same (i, j) visit order as the historical inline loops.
        """
        for a, b in self.block_pairs(members):
            if self.verify(a, b):
                yield (a, b) if a.rid <= b.rid else (b, a)

    def join_grouped_partitions(
        self,
        parts: Sequence[Sequence[tuple[Any, Sequence[PreparedRecord]]]],
    ) -> tuple[list[list[tuple[PreparedRecord, PreparedRecord]]], list[float]]:
        """Verify every in-block pair across grouped partitions exactly once.

        ``parts`` is the materialized block structure: per partition, a list
        of ``(key, [PreparedRecord])`` groups (one group per key globally —
        what the grouping stages produce).  With overlapping blocks, each
        pair is verified only in its *owning* block: the shared key with the
        fewest members (ties broken on the key's repr, so ownership is
        deterministic across runs and processes).  Returns the accepted
        pairs per partition plus the per-partition simulated work.
        """
        use_ownership = False
        keys_of: dict[Any, set[Any]] = {}
        block_size: dict[Any, int] = {}
        if self.filters.ownership:
            for part in parts:
                for key, members in part:
                    block_size[key] = block_size.get(key, 0) + len(members)
                    for record in members:
                        keys = keys_of.get(record.rid)
                        if keys is None:
                            keys_of[record.rid] = {key}
                        elif key not in keys:
                            keys.add(key)
                            use_ownership = True

        out_parts: list[list[tuple[PreparedRecord, PreparedRecord]]] = []
        per_part_work: list[float] = []
        # Without ownership the historical global seen set keeps overlapping
        # blocks from re-verifying a pair (and exactly reproduces the naive
        # engine); with ownership the per-block pass of block_pairs suffices.
        global_seen: set[tuple[Any, Any]] | None = (
            None if use_ownership or self.filters.ownership else set()
        )
        stats = self.stats
        for part in parts:
            work_before = stats.work
            out: list[tuple[PreparedRecord, PreparedRecord]] = []
            for key, members in part:
                for a, b in self.block_pairs(members):
                    if global_seen is not None:
                        pair_key = (
                            (a.rid, b.rid) if a.rid <= b.rid else (b.rid, a.rid)
                        )
                        if pair_key in global_seen:
                            continue
                        global_seen.add(pair_key)
                    elif use_ownership and not self._owns(key, a, b, keys_of, block_size):
                        continue
                    if self.verify(a, b):
                        out.append((a, b) if a.rid <= b.rid else (b, a))
            out_parts.append(out)
            per_part_work.append(stats.work - work_before)
        return out_parts, per_part_work

    @staticmethod
    def _owns(
        key: Any,
        a: PreparedRecord,
        b: PreparedRecord,
        keys_of: dict[Any, set[Any]],
        block_size: dict[Any, int],
    ) -> bool:
        """Whether ``key`` is the owning block of pair ``(a, b)``.

        The owner is the least-frequent shared key (smallest block), with
        the key repr as a deterministic tie-break.
        """
        shared = keys_of[a.rid] & keys_of[b.rid]
        if len(shared) == 1:
            return True
        size = block_size[key]
        rank = repr(key)
        for other in shared:
            if other == key:
                continue
            other_size = block_size[other]
            if other_size < size or (other_size == size and repr(other) < rank):
                return False
        return True


# ---------------------------------------------------------------------- #
# One attribute's upper bound: what SimJoin._suffix sums for the band
# ---------------------------------------------------------------------- #
def ld_upper_bound(
    a: str,
    b: str,
    q: int = 3,
    bag_a: frozenset | None = None,
    bag_b: frozenset | None = None,
    use_length: bool = True,
    use_count: bool = True,
) -> float:
    """Length and/or count upper bound on ``levenshtein_similarity(a, b)``:
    a length gap forces ``|len(a) - len(b)|`` edits, and one edit destroys
    at most ``q`` of the longer string's q-grams.

    ``use_length`` / ``use_count`` mirror the :class:`FilterConfig` toggles,
    so the band's suffix sums use exactly the configured bounds; the
    records' precomputed :func:`gram_bag` bags skip re-tokenization.  Computed with the same float expression shape as the
    metric (``1.0 - d / longest``), so ``sim <= bound`` holds in floating
    point, not just in the reals.
    """
    longest = max(len(a), len(b))
    bound = 1.0 - abs(len(a) - len(b)) / longest if use_length and longest else 1.0
    if use_count and longest:
        shared = len(
            (gram_bag(a, q) if bag_a is None else bag_a)
            & (gram_bag(b, q) if bag_b is None else bag_b)
        )
        min_distance = -(-(longest - q + 1 - shared) // q)
        if min_distance > 0:
            bound = min(bound, 1.0 - min_distance / longest)
    return bound
