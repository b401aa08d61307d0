"""String and vector similarity metrics.

The paper's cleaning operators are parameterized by a distance metric
(Listing 1: ``<metric>``) — Levenshtein for term validation and dedup,
Jaccard and Euclidean as alternatives.  All metrics here return a
*similarity* in ``[0, 1]`` (1 = identical) so a single threshold convention
(``sim >= theta``) works everywhere.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Sequence

from .tokenize import qgrams

SimilarityFunc = Callable[[str, str], float]

# Margin for conservative *reject* decisions in theta-banded evaluation
# (the band works in units of ``theta * n`` while the naive decision divides
# by ``n``, so the two float paths are not term-for-term identical).
# Accepts always re-use the exact naive expression, so the margin can only
# cause slightly more exact evaluations — never a different decision.  This
# is the single source of truth; the similarity-join kernel re-exports it.
EPSILON = 1e-9


def pattern_masks(pattern: str) -> dict[str, int]:
    """Per-character position bitmasks: bit ``i`` of ``masks[ch]`` is set
    where ``pattern[i] == ch`` (the ``Peq`` table of Myers' algorithm)."""
    masks: dict[str, int] = {}
    bit = 1
    for ch in pattern:
        masks[ch] = masks.get(ch, 0) | bit
        bit <<= 1
    return masks


def levenshtein_distance(
    a: str,
    b: str,
    max_distance: int | None = None,
    masks: dict[str, int] | None = None,
) -> int:
    """Edit distance by Myers' bit-parallel algorithm (Hyyrö's global
    variant), with an optional early-exit band.

    One DP column is a pair of vertical-delta bit-vectors held in Python
    ints, so a column costs a dozen word-parallel operations whatever the
    pattern length, and only the text is scanned character by character.
    Without ``masks`` the longer string is the pattern; a caller holding
    ``pattern_masks(a)`` passes them to skip the table build.

    When ``max_distance`` is given and the true distance exceeds it, any
    value ``> max_distance`` may be returned; callers use this to skip
    hopeless pairs cheaply (the similarity join only cares whether the pair
    passes the threshold).  The scan stops once even a run of matches over
    the remaining text could not bring the score back within the band.
    """
    if a == b:
        return 0
    m, n = len(a), len(b)
    if not m or not n:
        return m or n
    if masks is None:
        if m < n:
            a, b, m, n = b, a, n, m
        masks = pattern_masks(a)
    if max_distance is None:
        max_distance = m + n  # never exceeded: the exit below stays cold
    elif abs(m - n) > max_distance:
        return max_distance + 1

    lookup = masks.get
    full = (1 << m) - 1
    top = 1 << (m - 1)
    pv, mv, score = full, 0, m
    limit = max_distance + n  # max_distance + text still to scan
    for ch in b:
        eq = lookup(ch, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & top:
            score += 1
        elif mh & top:
            score -= 1
        limit -= 1
        if score > limit:
            return max_distance + 1
        ph = (ph << 1) | 1
        pv = ((mh << 1) | ~(xv | ph)) & full
        mv = ph & xv
    return score


def levenshtein_similarity(a: str, b: str) -> float:
    """``1 - distance / max_len``; the paper's "LD" metric."""
    longest = max(len(a), len(b))
    if longest == 0:
        return 1.0
    return 1.0 - levenshtein_distance(a, b) / longest


def jaccard_similarity(a: str, b: str, q: int = 2) -> float:
    """Jaccard similarity over q-gram token sets."""
    set_a = set(qgrams(a, q))
    set_b = set(qgrams(b, q))
    if not set_a and not set_b:
        return 1.0
    union = len(set_a | set_b)
    if union == 0:
        return 1.0
    return len(set_a & set_b) / union


def jaro_similarity(a: str, b: str) -> float:
    """Jaro similarity; building block for Jaro-Winkler."""
    if a == b:
        return 1.0
    if not a or not b:
        return 0.0
    window = max(len(a), len(b)) // 2 - 1
    window = max(window, 0)
    a_flags = [False] * len(a)
    b_flags = [False] * len(b)
    matches = 0
    for i, ca in enumerate(a):
        lo = max(0, i - window)
        hi = min(len(b), i + window + 1)
        for j in range(lo, hi):
            if not b_flags[j] and b[j] == ca:
                a_flags[i] = b_flags[j] = True
                matches += 1
                break
    if matches == 0:
        return 0.0
    transpositions = 0
    j = 0
    for i, flagged in enumerate(a_flags):
        if flagged:
            while not b_flags[j]:
                j += 1
            if a[i] != b[j]:
                transpositions += 1
            j += 1
    transpositions //= 2
    m = matches
    return (m / len(a) + m / len(b) + (m - transpositions) / m) / 3.0


def jaro_winkler_similarity(a: str, b: str, prefix_scale: float = 0.1) -> float:
    """Jaro-Winkler: Jaro boosted by the length of the common prefix."""
    jaro = jaro_similarity(a, b)
    prefix = 0
    for ca, cb in zip(a, b):
        if ca != cb or prefix == 4:
            break
        prefix += 1
    return jaro + prefix * prefix_scale * (1.0 - jaro)


_METRICS: dict[str, SimilarityFunc] = {
    "LD": levenshtein_similarity,
    "levenshtein": levenshtein_similarity,
    "jaccard": jaccard_similarity,
    "jaro": jaro_similarity,
    "jaro_winkler": jaro_winkler_similarity,
}


def get_metric(name: str) -> SimilarityFunc:
    """Look up a string-similarity metric by the name CleanM queries use."""
    try:
        return _METRICS[name]
    except KeyError:
        known = ", ".join(sorted(_METRICS))
        raise ValueError(f"unknown similarity metric {name!r}; known: {known}") from None


def register_metric(name: str, func: SimilarityFunc) -> None:
    """Extend the metric registry (CleanM's extensibility hook, §4.3)."""
    _METRICS[name] = func


def banded_ld_similarity(a: str, b: str, theta: float) -> float | None:
    """Exact Levenshtein similarity when it can reach ``theta``, else None.

    Converts the threshold into an edit-distance band for early exit.  The
    band is computed generously (ceil) and a returned value is the exact
    same floating-point expression as :func:`levenshtein_similarity`, so
    the fast path never disagrees with the plain metric at threshold
    boundaries; ``None`` guarantees the true similarity is below ``theta``.
    """
    longest = max(len(a), len(b))
    if longest == 0:
        return 1.0
    budget = int(math.ceil((1.0 - theta) * longest))
    distance = levenshtein_distance(a, b, max_distance=budget)
    if distance > budget:
        return None
    return 1.0 - distance / longest


def similar(metric: str | SimilarityFunc, a: str, b: str, theta: float) -> bool:
    """The ``similar(metric, a, b, θ)`` predicate of the paper's comprehensions."""
    func = get_metric(metric) if isinstance(metric, str) else metric
    if func is levenshtein_similarity:
        score = banded_ld_similarity(a, b, theta)
        return score is not None and score >= theta
    return func(a, b) >= theta


def record_matcher(
    attributes: Sequence[str], metric: str, theta: float, banded: bool = True
) -> Callable[[dict, dict], bool]:
    """``match(left, right)``: whether two records' average attribute-wise
    similarity reaches ``theta``.

    Dedup in the paper compares records on a set of attributes; records match
    when the mean similarity over those attributes reaches ``theta``.  For
    the Levenshtein metric each attribute's DP is banded (``banded=True``)
    with the maximum distance the pair could tolerate while still reaching
    ``theta`` on average — the same early exit the similarity-join kernel
    uses; acceptance goes through the exact unbanded expression, so the
    decision never differs from ``banded=False``.

    Built for many pairs over the same rows: the matcher owns one
    similarity join and prepares each row once, memoized by identity (a
    prepared record holds its row, so an id is never reused while the
    matcher lives).
    """
    attributes = list(attributes)
    if not attributes:
        raise ValueError("record similarity needs at least one attribute")
    # No blocking context: the similarity-join kernel decides, so the
    # banding logic (and, unbanded, the naive loop) exists in one place.
    # The count filter stays off — tokenizing records for lone comparisons
    # would cost more than the DP it might skip.
    from .simjoin import NO_FILTERS, FilterConfig, SimJoin

    filters = FilterConfig(count_filter=False, ownership=False) if banded else NO_FILTERS
    join = SimJoin(attributes, metric=metric, theta=theta, filters=filters)
    prepared: dict[int, Any] = {}
    known = prepared.get

    def prepare(record: dict) -> Any:  # a record's first pair
        return prepared.setdefault(id(record), join.prepare(0, record))

    return lambda left, right: join.verify(
        known(id(left)) or prepare(left), known(id(right)) or prepare(right)
    )
