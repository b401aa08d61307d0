"""Brute-force references for every checked output.

Nothing here calls the engine under test: the references are dict
grouping, a filtered nested loop, in-block pairwise comparison with this
module's own Levenshtein, and a plain group-by.  The one shortcut is in
``dedup``: a pair is skipped without computing the distance when the
characters its strings share already bound its similarity below ``theta``.  Engine outputs are reduced
to the same canonical sets (``canon_*``) and compared by digest, so row
order and witness choice, which legitimately differ between backends, do
not count as errors.
"""

from __future__ import annotations

import hashlib
import operator
from collections import Counter
from typing import Any, Callable, Iterable, Sequence

Attr = str | Callable[[dict], Any]

_OPS = {
    "==": operator.eq, "!=": operator.ne, "<": operator.lt,
    ">": operator.gt, "<=": operator.le, ">=": operator.ge,
}


def digest(items: Iterable[Any]) -> str:
    """Order-independent fingerprint of a canonical set."""
    lines = sorted(repr(item) for item in items)
    return hashlib.sha1("\n".join(lines).encode("utf-8")).hexdigest()


def _getter(attrs: Sequence[Attr]) -> Callable[[dict], Any]:
    funcs = [a if callable(a) else (lambda r, _a=a: r.get(_a)) for a in attrs]
    if len(funcs) == 1:
        return funcs[0]
    return lambda r: tuple(f(r) for f in funcs)


def _frozen(values: Iterable[Any]) -> tuple:
    return tuple(sorted(set(values), key=repr))


# ---------------------------------------------------------------------- #
# References
# ---------------------------------------------------------------------- #
def fd(rows: Sequence[dict], lhs: Sequence[Attr], rhs: Sequence[Attr]) -> set:
    """Groups of ``lhs`` with more than one distinct ``rhs``."""
    key_of, value_of = _getter(lhs), _getter(rhs)
    groups: dict[Any, set] = {}
    for row in rows:
        groups.setdefault(key_of(row), set()).add(value_of(row))
    return {(key, _frozen(vals)) for key, vals in groups.items() if len(vals) > 1}


def dc(
    rows: Sequence[dict],
    predicates: Sequence[tuple[str, str, str]],
    left_filter: tuple[str, str, Any] | None = None,
) -> set:
    """Ordered rid pairs ``(t1, t2)`` satisfying every ``t1.a OP t2.b``;
    for a symmetric rule (see :func:`symmetric`) each pair once, unordered,
    which is how the engine reports those.

    Equality predicates bucket the right side; the rest is a nested loop.
    A ``None`` operand satisfies nothing.
    """
    order = _pair if left_filter is None and symmetric(predicates) else (lambda a, b: (a, b))
    equal = [(a, b) for a, op, b in predicates if op == "=="]
    other = [(a, _OPS[op], b) for a, op, b in predicates if op != "=="]
    buckets: dict[tuple, list[dict]] = {}
    for row in rows:
        key = tuple(row.get(b) for _a, b in equal)
        if None not in key:
            buckets.setdefault(key, []).append(row)
    pairs = set()
    for t1 in rows:
        if left_filter is not None:
            attr, op, const = left_filter
            if t1.get(attr) is None or not _OPS[op](t1[attr], const):
                continue
        for t2 in buckets.get(tuple(t1.get(a) for a, _b in equal), ()):
            if all(
                t1.get(a) is not None and t2.get(b) is not None and op(t1[a], t2[b])
                for a, op, b in other
            ):
                pairs.add(order(t1["_rid"], t2["_rid"]))
    return pairs


def symmetric(predicates: Sequence[tuple[str, str, str]]) -> bool:
    """Whether ``(t1, t2)`` violates exactly when ``(t2, t1)`` does."""
    return all(a == b and op in ("==", "!=") for a, op, b in predicates)


def levenshtein(a: str, b: str) -> int:
    if len(a) < len(b):
        a, b = b, a
    row = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        diagonal, row[0] = row[0], i
        for j, cb in enumerate(b, start=1):
            diagonal, row[j] = row[j], min(
                row[j] + 1, row[j - 1] + 1, diagonal + (ca != cb)
            )
    return row[-1]


def _similarity(a: str, b: str) -> float:
    longest = max(len(a), len(b))
    return 1.0 if longest == 0 else 1.0 - levenshtein(a, b) / longest


def dedup(
    rows: Sequence[dict], attributes: Sequence[str], block_on: Sequence[Attr], theta: float
) -> set:
    """Unordered rid pairs inside one block whose mean attribute
    similarity reaches ``theta``."""
    block_of = _getter(block_on)
    blocks: dict[Any, list[dict]] = {}
    for row in rows:
        blocks.setdefault(block_of(row), []).append(row)
    pairs = set()
    for members in blocks.values():
        texts = [[str(row.get(attr, "")) for attr in attributes] for row in members]
        bags = [[Counter(text) for text in row] for row in texts]
        for i, left in enumerate(members):
            for j in range(i + 1, len(members)):
                bound = sum(
                    _similarity_bound(a, b, len(ta), len(tb))
                    for a, b, ta, tb in zip(bags[i], bags[j], texts[i], texts[j])
                )
                if bound / len(attributes) < theta - 1e-9:
                    continue
                total = sum(_similarity(a, b) for a, b in zip(texts[i], texts[j]))
                if total / len(attributes) >= theta:
                    pairs.add(_pair(left["_rid"], members[j]["_rid"]))
    return pairs


def _similarity_bound(bag_a: Counter, bag_b: Counter, len_a: int, len_b: int) -> float:
    """An alignment keeps at most the characters both strings have, so the
    distance is at least ``longest - shared``."""
    longest = max(len_a, len_b)
    return 1.0 if longest == 0 else sum((bag_a & bag_b).values()) / longest


def group_count(rows: Sequence[dict], group: str, keep: Callable[[dict], bool]) -> set:
    counts: dict[Any, int] = {}
    for row in rows:
        if keep(row):
            counts[row[group]] = counts.get(row[group], 0) + 1
    return set(counts.items())


def _pair(a: Any, b: Any) -> tuple:
    return (a, b) if a <= b else (b, a)


# ---------------------------------------------------------------------- #
# Engine outputs -> the same canonical sets
# ---------------------------------------------------------------------- #
def canon_fd(violations: Iterable[Any]) -> set:
    """``FDViolation`` objects; witnesses differ by backend and are dropped."""
    return {(v.key, _frozen(v.rhs_values)) for v in violations}


def canon_fd_branch(rows: Iterable[dict], value_field: str) -> set:
    """An ``FD(...)`` query branch: ``{"key":..., value_field: frozenset}``."""
    return {(r["key"], _frozen(r[value_field])) for r in rows}


def canon_dc(pairs: Iterable[tuple[dict, dict]]) -> set:
    return {(t1["_rid"], t2["_rid"]) for t1, t2 in pairs}


def canon_dc_symmetric(pairs: Iterable[tuple[dict, dict]]) -> set:
    return {_pair(t1["_rid"], t2["_rid"]) for t1, t2 in pairs}


def canon_dups(pairs: Iterable[Any]) -> set:
    return {_pair(p.left_id, p.right_id) for p in pairs}


def canon_dup_branch(rows: Iterable[dict]) -> set:
    return {_pair(r["p1"]["_rid"], r["p2"]["_rid"]) for r in rows}


def canon_counts(rows: Iterable[dict], group: str, count: str) -> set:
    return {(r[group], r[count]) for r in rows}
