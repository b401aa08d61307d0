"""Term validation against a dictionary (§3.1, §4.4 CLUSTER BY, §8.1).

Term validation detects values that are misspellings of dictionary terms and
suggests the similar dictionary entries as repairs.  Per §4.4, both the data
terms and the dictionary are grouped with the same pruning algorithm (token
filtering or k-means); groups with the same key are then joined and only
in-group pairs are similarity-checked::

    dataGroup := for (d <- data) yield filter(d.term, algo),
    dictGroup := for (d <- dict) yield filter(d.term, algo),
    for (d1 <- dataGroup, d2 <- dictGroup, d1.key = d2.key,
         similar(metric, d1.term, d2.term, θ)) yield list(d1.term, d2.term)

The grouping phase ops are named ``grouping:*`` and the check phase
``similarity:*`` so Fig. 3's phase breakdown can be read from the metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from ..engine.cluster import Cluster
from ..engine.dataset import Dataset
from .kmeans import reservoir_sample
from .similarity import get_metric, levenshtein_similarity
from .simjoin import (
    BagCache,
    FilterConfig,
    banded_ld_similarity,
    ld_upper_bound,
    resolve_filters,
)
from .tokenize import qgrams


@dataclass(frozen=True)
class TermRepair:
    """A dirty term with its suggested dictionary repairs (best first)."""

    term: str
    suggestions: tuple[str, ...]

    @property
    def best(self) -> str | None:
        return self.suggestions[0] if self.suggestions else None


def validate_terms(
    data: Dataset,
    dictionary: Sequence[str],
    term_func: Callable[[dict], str] | None = None,
    op: str = "token_filtering",
    metric: str = "LD",
    theta: float = 0.8,
    q: int = 3,
    k: int = 10,
    delta: float = 0.0,
    seed: int = 13,
    filters: FilterConfig | None = None,
) -> Dataset:
    """Validate one attribute of ``data`` against ``dictionary``.

    Returns a dataset of :class:`TermRepair`, one per distinct dirty term
    (terms already present in the dictionary verbatim are considered clean).
    Suggestions are ordered by descending similarity.  Candidate pairs are
    verified through the similarity kernel's filters (``filters``, on by
    default): length/count bounds reject hopeless pairs before the metric
    runs and the Levenshtein DP is banded by the ``theta`` budget — the
    repairs produced are identical to unfiltered evaluation.
    """
    term = term_func or (lambda r: str(r))
    cluster = data.cluster
    dict_set = set(dictionary)

    # Distinct dirty terms: exact dictionary hits need no repair.
    terms = data.map(term, name="terms:project")
    dirty = terms.filter(lambda t: t not in dict_set, name="terms:dirtyOnly")
    distinct_dirty = dirty.distinct()

    if op == "token_filtering":
        data_groups = _token_group(distinct_dirty, q, "grouping:data")
        dict_groups = _token_group_local(cluster, dictionary, q, "grouping:dict")
    elif op == "kmeans":
        centers = reservoir_sample(list(dictionary), k, seed=seed) or [""]
        data_groups = _kmeans_group(distinct_dirty, centers, metric, delta, "grouping:data")
        dict_groups = _kmeans_group_local(
            cluster, dictionary, centers, metric, delta, "grouping:dict"
        )
    else:
        raise ValueError(f"unknown term-validation op {op!r}")

    return _match_groups(
        cluster, data_groups, dict_groups, metric, theta, filters=filters
    )


def _token_group(terms: Dataset, q: int, name: str) -> Dataset:
    """Group a distributed set of terms by their q-gram tokens."""

    def tokens_of(t: str) -> list[tuple[str, str]]:
        return [(token, t) for token in set(qgrams(t, q)) or {""}]

    keyed = terms.flat_map(tokens_of, name=f"{name}:tokenize")
    return keyed.aggregate_by_key(list, _append, _extend, name=name)


def _token_group_local(
    cluster: Cluster, dictionary: Sequence[str], q: int, name: str
) -> dict[str, list[str]]:
    """Tokenize the (small) dictionary on the driver; charged as one op."""
    groups: dict[str, list[str]] = {}
    for word in dictionary:
        for token in set(qgrams(word, q)) or {""}:
            groups.setdefault(token, []).append(word)
    cluster.record_op(
        name, cluster.spread_over_nodes([float(len(dictionary))])
    )
    return groups


def _kmeans_group(
    terms: Dataset, centers: Sequence[str], metric: str, delta: float, name: str
) -> Dataset:
    from .kmeans import assign_to_centers

    fixed = list(centers)

    def assign(t: str) -> list[tuple[int, str]]:
        return [(i, t) for i in assign_to_centers(t, fixed, metric, delta)]

    keyed = terms.flat_map(assign, name=f"{name}:assign")
    return keyed.aggregate_by_key(list, _append, _extend, name=name)


def _kmeans_group_local(
    cluster: Cluster,
    dictionary: Sequence[str],
    centers: Sequence[str],
    metric: str,
    delta: float,
    name: str,
) -> dict[int, list[str]]:
    from .kmeans import assign_to_centers

    groups: dict[int, list[str]] = {}
    for word in dictionary:
        for index in assign_to_centers(word, centers, metric, delta):
            groups.setdefault(index, []).append(word)
    cluster.record_op(
        name, cluster.spread_over_nodes([float(len(dictionary)) ])
    )
    return groups


def _match_groups(
    cluster: Cluster,
    data_groups: Dataset,
    dict_groups: dict,
    metric: str,
    theta: float,
    filters: FilterConfig | None = None,
) -> Dataset:
    """Join data groups with same-key dictionary groups; similarity check.

    The dictionary side is broadcast (it is small); candidates for a term are
    the union of dictionary words sharing any group key with it.  Each
    candidate (term, word) pair is charged once however many group keys the
    pair shares; verification applies the kernel's length/count bounds and
    the theta-banded Levenshtein DP, so only plausible candidates pay the
    metric — with results identical to exhaustive scoring.
    """
    sim = get_metric(metric)
    cfg = resolve_filters(filters)
    bounded = sim is levenshtein_similarity and cfg.prunes
    cost = cluster.cost_model
    compare_unit = cost.compare_unit
    filter_unit = cost.filter_unit

    per_part_work: list[float] = []
    comparisons = 0
    verified = 0
    candidates_by_term: dict[str, set[str]] = {}
    bags = BagCache(cfg.q)

    suggestions_by_term: dict[str, list[tuple[float, str]]] = {}
    for part in data_groups.partitions:
        work = 0.0
        for key, terms in part:
            dict_words = dict_groups.get(key)
            if not dict_words:
                continue
            for t in terms:
                bucket = candidates_by_term.setdefault(t, set())
                scored = suggestions_by_term.setdefault(t, [])
                for w in dict_words:
                    if w in bucket:
                        continue
                    bucket.add(w)
                    comparisons += 1
                    if bounded:
                        work += filter_unit
                        if (cfg.length_filter or cfg.count_filter) and (
                            ld_upper_bound(
                                t,
                                w,
                                cfg.q,
                                bags[t] if cfg.count_filter else None,
                                bags[w] if cfg.count_filter else None,
                                use_length=cfg.length_filter,
                                use_count=cfg.count_filter,
                            )
                            < theta
                        ):
                            continue
                        verified += 1
                        work += (len(t) + len(w)) * compare_unit
                        if cfg.banding:
                            s = banded_ld_similarity(t, w, theta)
                            if s is None:
                                continue
                        else:
                            s = sim(t, w)
                    else:
                        verified += 1
                        work += (len(t) + len(w)) * compare_unit
                        s = sim(t, w)
                    if s >= theta:
                        scored.append((s, w))
        per_part_work.append(work)
    cluster.charge_comparisons(comparisons)
    cluster.charge_verified(verified)
    cluster.record_op(
        "similarity:termCheck", cluster.spread_over_nodes(per_part_work)
    )

    repairs: list[TermRepair] = []
    for t in candidates_by_term:
        scored = sorted(suggestions_by_term[t], key=lambda sw: (-sw[0], sw[1]))
        if scored:
            repairs.append(TermRepair(t, tuple(w for _, w in scored)))
    parts: list[list[TermRepair]] = [[] for _ in range(cluster.default_parallelism)]
    for i, repair in enumerate(repairs):
        parts[i % len(parts)].append(repair)
    return Dataset(cluster, parts)


def _append(acc: list, value) -> list:
    acc.append(value)
    return acc


def _extend(left: list, right: list) -> list:
    left.extend(right)
    return left
