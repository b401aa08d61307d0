"""Clustering primitives used for comparison pruning (§4.2/§4.3).

The paper's default pruning clusterer is a *single-pass* k-means variation
inspired by ClusterJoin: pick k centers with a one-pass randomized algorithm
(reservoir sampling, expressed through the function-composition monoid), then
assign every word to all centers whose similarity is within ``delta`` of the
best.  Only intra-cluster comparisons happen afterwards.

Also implemented, as the paper's §4.3 extensions: multi-pass (iterative)
k-means via the iteration-monoid pattern, and hierarchical agglomerative
clustering via the Min monoid.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Sequence

from ..monoid.monoids import FunctionCompositionMonoid
from .similarity import get_metric, levenshtein_similarity


def reservoir_sample(items: Sequence[Any], k: int, seed: int = 13) -> list[Any]:
    """Vitter's algorithm R: a uniform k-sample in one pass.

    This is the randomized parameterization of the function-composition
    monoid the paper describes for center initialization.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    rng = random.Random(seed)
    reservoir: list[Any] = []
    for i, item in enumerate(items):
        if i < k:
            reservoir.append(item)
        else:
            j = rng.randint(0, i)
            if j < k:
                reservoir[j] = item
    return reservoir


def fixed_step_centers(items: Sequence[Any], k: int) -> list[Any]:
    """The paper's deterministic parameterization: every (N/k)-th element.

    Implemented literally as a fold of the function-composition monoid so the
    center-initialization-as-monoid claim is executable and testable: each
    element contributes a state-transformer, and the composed function runs
    over the initial state.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    n = len(items)
    if n == 0:
        return []
    step = max(1, n // k)
    picks = {min(step * (i + 1), n) - 1 for i in range(k)}
    compose = FunctionCompositionMonoid()

    def transformer_for(index: int, item: Any) -> Callable[[list], list]:
        if index in picks:
            return lambda state: state + [item]
        return lambda state: state

    composed = compose.fold(
        transformer_for(i, item) for i, item in enumerate(items)
    )
    return composed([])


def assign_to_centers(
    term: str,
    centers: Sequence[str],
    metric: str = "LD",
    delta: float = 0.0,
) -> list[int]:
    """Indices of every center within ``delta`` similarity of the best one.

    ``delta = 0`` gives strict single assignment; larger deltas favor the
    overlapping assignment that boosts recall (ClusterJoin behaviour).
    """
    if not centers:
        raise ValueError("no centers given")
    sim = get_metric(metric)
    sims = [sim(term, center) for center in centers]
    best = max(sims)
    return [i for i, s in enumerate(sims) if s >= best - delta]


def single_pass_kmeans(
    items: Sequence[Any],
    k: int,
    term_func: Callable[[Any], str] | None = None,
    metric: str = "LD",
    delta: float = 0.0,
    centers: Sequence[str] | None = None,
    seed: int = 13,
) -> dict[int, list[Any]]:
    """One-pass clustering: initialize centers, assign each item once.

    Returns ``{center_index: [items]}``.  Deterministic for a fixed seed.
    """
    term = term_func or (lambda x: str(x))
    if centers is None:
        sampled = reservoir_sample([term(i) for i in items], k, seed=seed)
        centers = sampled or [""]
    clusters: dict[int, list[Any]] = {}
    for item in items:
        for center_index in assign_to_centers(term(item), centers, metric, delta):
            clusters.setdefault(center_index, []).append(item)
    return clusters


def multi_pass_kmeans(
    items: Sequence[Any],
    k: int,
    iterations: int = 5,
    term_func: Callable[[Any], str] | None = None,
    metric: str = "LD",
    seed: int = 13,
) -> dict[int, list[Any]]:
    """Iterative (Lloyd-style) k-means for strings using medoid updates.

    Each iteration is one comprehension over the input carrying the previous
    centers as state — the iteration-monoid pattern of §4.3.  Centers are
    updated to the cluster medoid (the member maximizing total similarity to
    the rest), since strings have no mean.
    """
    term = term_func or (lambda x: str(x))
    sim = get_metric(metric)
    centers = reservoir_sample([term(i) for i in items], k, seed=seed)
    if not centers:
        return {}
    clusters: dict[int, list[Any]] = {}
    for _ in range(max(1, iterations)):
        clusters = {}
        for item in items:
            best = max(range(len(centers)), key=lambda c: sim(term(item), centers[c]))
            clusters.setdefault(best, []).append(item)
        new_centers = list(centers)
        for index, members in clusters.items():
            texts = [term(m) for m in members]
            new_centers[index] = max(
                texts, key=lambda t: sum(sim(t, other) for other in texts)
            )
        if new_centers == centers:
            break
        centers = new_centers
    return clusters


def hierarchical_cluster(
    items: Sequence[Any],
    threshold: float,
    term_func: Callable[[Any], str] | None = None,
    metric: str = "LD",
) -> list[list[Any]]:
    """Single-linkage agglomerative clustering.

    Repeatedly merges the closest pair of clusters (a Min-monoid computation
    per iteration, as §4.3 sketches) until no pair is at least ``threshold``
    similar.  Quadratic; intended for modest group sizes.  For the
    Levenshtein metric, member pairs whose kernel upper bound falls below
    the current best linkage are skipped without running the DP — such
    pairs can neither win the Min-monoid step nor change the merge
    decision, so the clustering is identical to exhaustive evaluation.
    """
    from .simjoin import EPSILON, BagCache, ld_upper_bound

    term = term_func or (lambda x: str(x))
    sim = get_metric(metric)
    bounded = sim is levenshtein_similarity
    clusters: list[list[Any]] = [[item] for item in items]
    # Terms and q-gram bags are stable across merge rounds: compute each
    # once, not once per pair per round.
    term_cache: dict[int, str] = {}
    bags = BagCache(3)

    def term_of(item: Any) -> str:
        text = term_cache.get(id(item))
        if text is None:
            text = term(item)
            term_cache[id(item)] = text
        return text

    def linkage(a: list[Any], b: list[Any], floor: float) -> float:
        best = 0.0
        for x in a:
            tx = term_of(x)
            for y in b:
                ty = term_of(y)
                if (
                    bounded
                    and ld_upper_bound(tx, ty, 3, bags[tx], bags[ty])
                    < floor - EPSILON
                ):
                    continue
                s = sim(tx, ty)
                if s > best:
                    best = s
        return best

    while len(clusters) > 1:
        best_pair = None
        best_sim = threshold
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                s = linkage(clusters[i], clusters[j], best_sim)
                if s >= best_sim:
                    best_sim = s
                    best_pair = (i, j)
        if best_pair is None:
            break
        i, j = best_pair
        merged = clusters[i] + clusters[j]
        clusters = [c for idx, c in enumerate(clusters) if idx not in (i, j)]
        clusters.append(merged)
    return clusters
