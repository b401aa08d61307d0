"""Term validation against a dictionary (§3.1, §4.4 CLUSTER BY, §8.1).

Term validation detects values that are misspellings of dictionary terms and
suggests the similar dictionary entries as repairs.  Per §4.4, both the data
terms and the dictionary are grouped with the same pruning algorithm — one
blocker of ``cleaning/blocking.py``'s table, bound once for both sides, its
k-means centers sampled from the dictionary; groups with the same key are
then joined and only in-group pairs are similarity-checked, each by one
:class:`~repro.cleaning.simjoin.SimJoin`::

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
from .blocking import blocker, make_blocks
from .simjoin import BagCache, FilterConfig, PreparedRecord, SimJoin


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
    """Validate one attribute of ``data`` against ``dictionary``, both
    blocked by the blocker ``op`` (any of
    :data:`~repro.cleaning.blocking.BLOCKERS`).

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

    # Both sides under one blocker: k-means centers come from the dictionary.
    keys = blocker(op, metric=metric, q=q, k=k, delta=delta, seed=seed, dictionary=dictionary)
    data_groups = make_blocks(op, distinct_dirty, None, name="grouping:data", keys=keys)
    dict_groups: dict = {}
    for word in dictionary:
        for key in keys(word):
            dict_groups.setdefault(key, []).append(word)
    cluster.record_op("grouping:dict", cluster.spread_over_nodes([float(len(dictionary))]))
    return _match_groups(cluster, data_groups, dict_groups, metric, theta, filters)


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
    candidate (term, word) pair is verified once, however many group keys
    it shares, by one :class:`~repro.cleaning.simjoin.SimJoin`, whose
    filters and banding leave the repairs identical to exhaustive scoring.
    """
    cost = cluster.cost_model
    join = SimJoin(["term"], metric, theta, filters, cost.compare_unit, cost.filter_unit)
    join.bags = BagCache(join.filters.q)
    prepared: dict[str, PreparedRecord] = {}

    def prep(text: str) -> PreparedRecord:
        ready = prepared.get(text)
        if ready is None:
            ready = prepared[text] = PreparedRecord(text, (text,), text)
        return ready

    per_part_work: list[float] = []
    candidates_by_term: dict[str, set[str]] = {}
    suggestions_by_term: dict[str, list[tuple[float, str]]] = {}
    for part in data_groups.partitions:
        join.stats.work = 0.0  # a partition's work summed from zero: the ledger's floats
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
                    s = join.verify(prep(t), prep(w), scored=True)
                    if s is not None:
                        scored.append((s, w))
        per_part_work.append(join.stats.work)
    cluster.charge_comparisons(join.stats.candidates)
    cluster.charge_verified(join.stats.verified)
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
