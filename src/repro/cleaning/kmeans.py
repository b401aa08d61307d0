"""Clustering primitives for k-means comparison pruning (§4.2).

The paper's default pruning clusterer is a *single-pass* k-means variation
inspired by ClusterJoin: pick k centers in one randomized pass (reservoir
sampling), then assign every word to all centers whose similarity is within
``delta`` of the best.  Only intra-cluster comparisons happen afterwards.
The engine runs it as a ``MultiGroupMonoid`` Nest keyed by the
``block_keys`` builtin (``physical/functions.py``), and
``blocking.kmeans_blocks`` / ``term_validation`` call the same two
functions.
"""

from __future__ import annotations

import random
from typing import Any, Sequence

from .similarity import get_metric


def reservoir_sample(items: Sequence[Any], k: int, seed: int = 13) -> list[Any]:
    """Vitter's algorithm R: a uniform k-sample in one pass — the paper's
    randomized center initialization."""
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
