"""Blocking (comparison-pruning) strategies over engine datasets.

Every similarity-based cleaning operation in the paper first *blocks* the
data — splits it into groups inside which pairwise comparisons happen — and
the choice of blocker is the ``<op>`` parameter of DEDUP/CLUSTER BY
(Listing 1).  Blockers here run scale-out on :class:`~repro.engine.dataset.
Dataset` and are the operational form of the pruning monoids in
``repro.monoid.monoids``.

The ``grouping`` argument selects the physical grouping strategy and is the
knob the Fig. 5–8 benchmarks turn: ``"aggregate"`` is CleanDB's local
pre-aggregation, ``"sort"`` is Spark SQL's sort-based shuffle, ``"hash"`` is
BigDansing's hash-based shuffle.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Sequence

from ..engine.dataset import Dataset
from .kmeans import assign_to_centers, reservoir_sample
from .tokenize import qgrams

TermFunc = Callable[[Any], str]


def _grouped(keyed: Callable[[], Dataset], grouping: str, name: str) -> Dataset:
    """Group the dataset ``keyed()`` charges and returns into ``(key,
    [records])`` per the strategy, which is checked before it is called."""
    if grouping == "aggregate":
        return keyed().aggregate_by_key(list, _append, _extend, name=name)
    if grouping in ("sort", "hash"):
        return keyed().group_by_key(shuffle_kind=grouping, name=name)
    raise ValueError(f"unknown grouping strategy {grouping!r}")


def _append(acc: list, value: Any) -> list:
    acc.append(value)
    return acc


def _extend(left: list, right: list) -> list:
    left.extend(right)
    return left


def key_blocks(
    dataset: Dataset,
    key_func: Callable[[Any], Any],
    grouping: str = "aggregate",
    name: str = "grouping:key",
) -> Dataset:
    """Exact-key blocking: records sharing ``key_func`` land together."""
    keyed = partial(dataset.map, lambda r: (key_func(r), r), name=f"{name}:keyBy")
    return _grouped(keyed, grouping, name)


def token_blocks(
    dataset: Dataset,
    term_func: TermFunc,
    q: int = 3,
    grouping: str = "aggregate",
    name: str = "grouping:token",
) -> Dataset:
    """Token-filtering blocks: one record appears in every q-gram group.

    The token-filtering monoid of §4.3 as Dataset operators: the flatMap
    emits ``(token, record)`` pairs exactly like Plan A of Fig. 1 unnests
    the token list.  A query runs the same blocking as a
    ``MultiGroupMonoid`` Nest keyed by the ``block_keys`` builtin.
    """

    def tokens_of(record: Any) -> list[tuple[str, Any]]:
        token_set = set(qgrams(term_func(record), q)) or {""}
        return [(token, record) for token in token_set]

    keyed = partial(dataset.flat_map, tokens_of, name=f"{name}:tokenize")
    return _grouped(keyed, grouping, name)


def kmeans_blocks(
    dataset: Dataset,
    term_func: TermFunc,
    k: int = 10,
    metric: str = "LD",
    delta: float = 0.0,
    centers: Sequence[str] | None = None,
    grouping: str = "aggregate",
    seed: int = 13,
    name: str = "grouping:kmeans",
) -> Dataset:
    """Single-pass k-means blocks keyed by center index.

    Centers default to a reservoir sample of the dataset's own terms; term
    validation instead passes dictionary-derived centers (§8.1).
    """
    if centers is None:
        terms = [term_func(r) for r in dataset.take(max(k * 20, 200))]
        centers = reservoir_sample(terms, k, seed=seed) or [""]
    fixed_centers = list(centers)

    def assign(record: Any) -> list[tuple[int, Any]]:
        indices = assign_to_centers(term_func(record), fixed_centers, metric, delta)
        return [(i, record) for i in indices]

    keyed = partial(dataset.flat_map, assign, name=f"{name}:assign")
    return _grouped(keyed, grouping, name)


def length_blocks(
    dataset: Dataset,
    term_func: TermFunc,
    width: int = 2,
    grouping: str = "aggregate",
    name: str = "grouping:length",
) -> Dataset:
    """Length-band blocking (§4.3 extension): group by ``len(term) // width``.

    Words whose lengths differ by more than the band width cannot pass a high
    similarity threshold, so comparing within bands preserves most matches.
    """
    if width <= 0:
        raise ValueError("width must be positive")
    keyed = partial(
        dataset.map, lambda r: (len(term_func(r)) // width, r), name=f"{name}:keyBy"
    )
    return _grouped(keyed, grouping, name)


_BLOCKERS = {
    "token_filtering": token_blocks,
    "kmeans": kmeans_blocks,
    "length_filtering": length_blocks,
}


def make_blocks(
    op: str,
    dataset: Dataset,
    term_func: TermFunc,
    grouping: str = "aggregate",
    **params: Any,
) -> Dataset:
    """Dispatch on the CleanM ``<op>`` name (token_filtering, kmeans, ...)."""
    try:
        blocker = _BLOCKERS[op]
    except KeyError:
        known = ", ".join(sorted(_BLOCKERS))
        raise ValueError(f"unknown blocking op {op!r}; known: {known}") from None
    return blocker(dataset, term_func, grouping=grouping, **params)
