"""Blocking (comparison pruning): the one table of blockers.

Every similarity-based cleaning operation in the paper first *blocks* its
terms — splits them into groups inside which pairwise comparisons happen —
and the blocker is the ``<op>`` of DEDUP / CLUSTER BY (Listing 1), the
pruning monoids of §4.3.  :data:`BLOCKERS` is the one table of them:
``exact`` / ``key``, ``token_filtering``, ``kmeans`` and
``length_filtering``.  :func:`blocker` binds one to an operation's
parameters as ``keys(term) -> [block key, ...]``, a module-level function
over picklable arguments.  Everything that blocks reads it: the row dedup
driver (``deduplicate(op=)``, through :func:`make_blocks`), both sides of
term validation (its data and its dictionary, "with the same algorithm",
§4.4), the query's ``block_keys`` builtin (``physical/functions.py``) and
the analyzer's CM204.

k-means has one center rule (:func:`kmeans_centers`): a reservoir sample
of the operation's dictionary when it has one, else of the compared terms
of the input's first ``max(k * 20, 200)`` rows by global row index (their
``_rid``), whatever the layout; terms are assigned to the centers under the
operation's own metric.

The ``grouping`` argument selects the physical grouping strategy and is the
knob the Fig. 5–8 benchmarks turn: ``"aggregate"`` is CleanDB's local
pre-aggregation, ``"sort"`` is Spark SQL's sort-based shuffle, ``"hash"`` is
BigDansing's hash-based shuffle.
"""

from __future__ import annotations

import heapq
from functools import partial
from operator import iadd
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

from ..engine.partitioner import canonical_key
from . import kmeans
from .rowid import RID
from .tokenize import qgrams

if TYPE_CHECKING:
    from ..engine.dataset import Dataset

TermFunc = Callable[[Any], str]


# ---------------------------------------------------------------------- #
# Key functions: a term to its block keys
# ---------------------------------------------------------------------- #
def _exact(term: Any) -> list[Any]:
    return [term]


def _tokens(q: int, term: str) -> list[str]:
    return list(set(qgrams(term, q)) or {""})


def _nearest(centers: tuple[str, ...], metric: str, delta: float, term: str) -> list[int]:
    return kmeans.assign_to_centers(term, centers, metric, delta)


def _band(width: int, term: str) -> list[int]:
    # Terms whose lengths differ by more than a band cannot reach a high
    # similarity threshold, so most matches share a band (§4.3 extension).
    return [len(term) // width]


def concat_terms(attributes: Sequence[str]) -> TermFunc:
    """A dedup record's compared term: its ``attributes``, stringified and
    joined by spaces."""
    return lambda record: " ".join(str(record.get(a, "")) for a in attributes)


def kmeans_centers(
    k: int, seed: int, dictionary: Sequence[Any] | None,
    rows: Callable[[], Iterable[Any]] | None, term: TermFunc,
) -> tuple[str, ...]:
    """The k-means center rule: ``reservoir_sample`` of the ``dictionary``'s
    terms when the operation has one, else of the compared terms (``term``)
    of the first ``max(k * 20, 200)`` rows of ``rows()`` by global row
    index, their ``_rid`` (rows without one keep their order), so no layout
    or row order moves the sample."""
    if dictionary is not None:
        terms = [str(word) for word in dictionary]
    else:
        first = heapq.nsmallest(max(k * 20, 200), rows() if rows else (), key=_row_index)
        terms = [term(r) for r in first]
    return tuple(kmeans.reservoir_sample(terms, k, seed=seed) or [""])


def _row_index(row: Any) -> tuple[str, Any]:
    rid = canonical_key(row.get(RID)) if isinstance(row, dict) else None
    return type(rid).__name__, rid  # ids of one type compare


def _bind_kmeans(*, metric, k, delta, seed, dictionary, rows, term, **_: Any) -> Callable:
    return partial(_nearest, kmeans_centers(k, seed, dictionary, rows, term), metric, delta)


def _bind_band(*, width: int, **_: Any) -> Callable:
    if width <= 0:
        raise ValueError("width must be positive")
    return partial(_band, width)


#: The blockers, by the ``<op>`` a query or an API call spells: its ledger
#: label (``grouping:<label>``), the name of its keying stage
#: (``grouping:<label>:<stage>``) and ``bind(**params)``, which returns its
#: key function.
BLOCKERS: dict[str, tuple[str, str, Callable[..., Callable[[Any], list]]]] = {
    "exact": ("key", "keyBy", lambda **_: _exact),
    "key": ("key", "keyBy", lambda **_: _exact),
    "token_filtering": ("token", "tokenize", lambda *, q, **_: partial(_tokens, q)),
    "kmeans": ("kmeans", "assign", _bind_kmeans),
    "length_filtering": ("length", "keyBy", _bind_band),
}


def blocker(
    op: str, *, metric: str = "LD", q: int = 3, k: int = 10, delta: float = 0.0,
    width: int = 2, seed: int = 13, dictionary: Sequence[Any] | None = None,
    rows: Callable[[], Iterable[Any]] | None = None, term: TermFunc = str,
) -> Callable[[Any], list]:
    """``keys(term)`` of ``op`` bound to one operation: ``q`` for token
    filtering, ``width`` for length bands, and for k-means its ``metric``,
    ``k``, ``delta``, ``seed`` and where :func:`kmeans_centers` samples
    (``dictionary``, or ``rows`` read through ``term``).  An unknown ``op``
    is a ``ValueError``."""
    if op not in BLOCKERS:
        raise ValueError(f"unknown blocking op {op!r}; known: {', '.join(sorted(BLOCKERS))}")
    return BLOCKERS[op][2](
        metric=metric, q=q, k=k, delta=delta, width=width, seed=seed,
        dictionary=dictionary, rows=rows, term=term,
    )


# ---------------------------------------------------------------------- #
# Blocks over engine datasets
# ---------------------------------------------------------------------- #
def _grouped(keyed: Callable[[], Dataset], grouping: str, name: str) -> Dataset:
    """Group the dataset ``keyed()`` charges and returns into ``(key,
    [records])`` per the strategy, which is checked before it is called."""
    if grouping == "aggregate":
        return keyed().aggregate_by_key(list, _append, iadd, name=name)
    if grouping in ("sort", "hash"):
        return keyed().group_by_key(shuffle_kind=grouping, name=name)
    raise ValueError(f"unknown grouping strategy {grouping!r}")


def _append(acc: list, value: Any) -> list:
    acc.append(value)
    return acc


def key_blocks(
    dataset: Dataset,
    key_func: Callable[[Any], Any],
    grouping: str = "aggregate",
    name: str = "grouping:key",
) -> Dataset:
    """Exact-key blocking: records sharing ``key_func`` land together."""
    keyed = partial(dataset.map, lambda r: (key_func(r), r), name=f"{name}:keyBy")
    return _grouped(keyed, grouping, name)


def make_blocks(
    op: str,
    dataset: Dataset,
    term_func: TermFunc | None,
    grouping: str = "aggregate",
    name: str | None = None,
    keys: Callable[[Any], list] | None = None,
    **params: Any,
) -> Dataset:
    """Blocks of ``dataset`` under the blocker ``op``: one ``(key,
    record)`` per key of the record's term (``term_func(record)``, or the
    record itself when ``None``), grouped per ``grouping``.  ``keys`` is
    the blocker already bound, else :func:`blocker` binds it from
    ``params``, k-means sampling its centers from the dataset itself unless
    given a ``dictionary``.  Ops are named ``grouping:<label>`` (default
    ``name``) and ``<name>:<stage>``."""
    term = term_func or (lambda r: r)
    keys = keys or blocker(op, **{"rows": dataset.collect, "term": term, **params})
    label, stage, _ = BLOCKERS[op]
    name = name or f"grouping:{label}"

    def keyed(record: Any) -> list[tuple[Any, Any]]:
        return [(key, record) for key in keys(term(record))]

    return _grouped(partial(dataset.flat_map, keyed, name=f"{name}:{stage}"), grouping, name)
