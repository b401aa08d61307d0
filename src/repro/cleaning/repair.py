"""Applying detected violations as repairs.

The paper scopes CleanM to *detection* ("data repairing techniques ... are
orthogonal extensions"); this module provides the repair policies its
outputs suggest, so the examples can show a full detect→repair loop:

* :func:`apply_term_repairs` — replace dirty terms with their best
  dictionary suggestion (term validation's output *is* the suggested
  repair, §4.4).
* :func:`repair_fd_by_majority` — for each violated FD group, rewrite the
  right-hand side to the group's most frequent value (the simplest
  NADEEF-style update that satisfies the rule).
* :func:`repair_dc_by_relaxation` — for general denial constraints, build
  the violation hypergraph over cells (HoloClean's framing: one hyperedge
  per violating pair, one vertex per participating cell), pick a greedy
  minimal vertex cover, and move each covered cell to the *nearest* value
  that falsifies its predicates (the relaxation view of DC repair,
  arXiv:2002.06163), nulling a cell only when no single value can — a
  null never satisfies a DC predicate under the kernel's three-valued
  semantics, so nulling is the always-terminating backstop.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from .dc_kernel import DenialConstraint
from .denial import FDViolation, find_violations
from .term_validation import TermRepair


def apply_term_repairs(
    records: list[dict],
    attr: str,
    repairs: Iterable[TermRepair],
    term_func: Callable[[Any], str] | None = None,
) -> tuple[list[dict], int]:
    """Rewrite ``attr`` values that have a repair suggestion.

    Handles both scalar attributes and list attributes (e.g. a nested
    author list).  Returns ``(new_records, values_changed)``.
    """
    mapping = {r.term: r.best for r in repairs if r.best is not None}
    changed = 0
    out: list[dict] = []
    for record in records:
        value = record.get(attr)
        if isinstance(value, list):
            new_value = [mapping.get(v, v) for v in value]
            if new_value != value:
                changed += sum(1 for a, b in zip(value, new_value) if a != b)
                record = {**record, attr: new_value}
        elif value in mapping:
            changed += 1
            record = {**record, attr: mapping[value]}
        out.append(record)
    return out, changed


def repair_fd_by_majority(
    records: list[dict],
    violations: Iterable[FDViolation],
    lhs: Sequence[str],
    rhs: str,
) -> tuple[list[dict], int]:
    """Make each violated group satisfy ``lhs → rhs`` by majority vote.

    For every violating LHS key, the most frequent RHS value among the
    group's records wins (ties break deterministically by value repr).
    Returns ``(new_records, values_changed)``.
    """
    violated_keys = {v.key for v in violations}

    def key_of(record: dict) -> Any:
        if len(lhs) == 1:
            return record.get(lhs[0])
        return tuple(record.get(a) for a in lhs)

    majorities: dict[Any, Any] = {}
    counts: dict[Any, Counter] = {}
    for record in records:
        key = key_of(record)
        if key in violated_keys:
            counts.setdefault(key, Counter())[record.get(rhs)] += 1
    for key, counter in counts.items():
        majorities[key] = min(
            counter.items(), key=lambda kv: (-kv[1], repr(kv[0]))
        )[0]

    changed = 0
    out: list[dict] = []
    for record in records:
        key = key_of(record)
        if key in majorities and record.get(rhs) != majorities[key]:
            record = {**record, rhs: majorities[key]}
            changed += 1
        out.append(record)
    return out, changed


# ---------------------------------------------------------------------- #
# Denial-constraint repair by relaxation
# ---------------------------------------------------------------------- #

#: Sentinel for "no single value can falsify this cell's predicates".
_INFEASIBLE = object()


@dataclass
class DCRepairReport:
    """Outcome of :func:`repair_dc_by_relaxation`.

    ``violations_found`` counts the pairs detected before repairing;
    ``cover_size`` the total vertex-cover cells selected across rounds;
    ``cells_changed`` / ``cells_nulled`` split the applied updates into
    value moves and null-outs; ``residual_violations`` is re-checked on
    the repaired records and is 0 unless ``max_rounds`` was 0.
    """

    constraint: str
    violations_found: int
    cover_size: int
    cells_changed: int
    cells_nulled: int
    rounds: int
    residual_violations: int

    @property
    def clean(self) -> bool:
        return self.residual_violations == 0


def repair_dc_by_relaxation(
    records: Sequence[dict],
    constraint: DenialConstraint,
    max_rounds: int = 4,
    violations: Sequence[tuple[dict, dict]] | None = None,
) -> tuple[list[dict], DCRepairReport]:
    """Repair DC violations by relaxing a minimal set of cells.

    Each round: detect violations (the kernel's banded, null-safe check),
    build the violation hypergraph — one hyperedge per violating pair
    whose vertices are the cells ``(row, attribute)`` its predicates
    touch — cover the edges with a greedy minimal vertex cover (highest
    uncovered-degree cell first, deterministic tie-break), and move every
    covered cell to the nearest value falsifying its incident predicates.
    Moving a cell can surface *new* violations (a raised price may now
    out-discount a third row), hence the loop; after ``max_rounds`` any
    survivors are nulled out, which can never create violations, so the
    result is violation-free by construction.

    ``violations`` lets a caller that already ran detection skip the
    first detection pass; the pairs must reference the ``records`` list's
    own dict objects (a backend that returned rebuilt or pickled copies
    simply triggers a fresh detection instead).

    Returns ``(repaired_records, report)``; input records are not
    mutated.
    """
    out = [dict(r) for r in records]

    pairs_idx = (
        _pairs_to_indices(records, violations) if violations is not None else None
    )
    if pairs_idx is None:
        pairs_idx = _detect_indices(out, constraint)
    found = len(pairs_idx)
    cover_total = changed = nulled = rounds = 0

    for final in [False] * max_rounds + [True]:
        if not pairs_idx:
            break
        rounds += 1
        edges = [_violation_edge(constraint, i1, i2) for i1, i2 in pairs_idx]
        cover = _greedy_vertex_cover(edges)
        cover_total += len(cover)
        for cell in cover:
            row_index, attr = cell
            if final:
                value: Any = None
            else:
                value = _relaxed_value(constraint, cell, edges, out)
            if value is _INFEASIBLE or value is None:
                nulled += 1
                out[row_index][attr] = None
            else:
                changed += 1
                out[row_index][attr] = value
        pairs_idx = _detect_indices(out, constraint)

    return out, DCRepairReport(
        constraint=constraint.name,
        violations_found=found,
        cover_size=cover_total,
        cells_changed=changed,
        cells_nulled=nulled,
        rounds=rounds,
        residual_violations=len(pairs_idx),
    )


def _detect_indices(
    out: list[dict], constraint: DenialConstraint
) -> list[tuple[int, int]]:
    """Detect violations in ``out`` as row-index pairs.

    Detection runs over ``out`` itself, so violating pairs reference the
    very list entries — identity is the one key that needs neither rids
    nor hashable rows.
    """
    position = {id(r): i for i, r in enumerate(out)}
    return [
        (position[id(t1)], position[id(t2)])
        for t1, t2 in find_violations(out, constraint)
    ]


def _pairs_to_indices(
    records: Sequence[dict], violations: Sequence[tuple[dict, dict]]
) -> list[tuple[int, int]] | None:
    """Map caller-supplied violating pairs onto row indices by identity.

    ``None`` when any pair's records are not the input list's own objects
    (e.g. copies pickled back from worker processes) — the caller then
    falls back to detecting afresh, which is always correct.
    """
    position = {id(r): i for i, r in enumerate(records)}
    out: list[tuple[int, int]] = []
    for t1, t2 in violations:
        i1 = position.get(id(t1))
        i2 = position.get(id(t2))
        if i1 is None or i2 is None:
            return None
        out.append((i1, i2))
    return out


def _violation_edge(
    constraint: DenialConstraint, i1: int, i2: int
) -> tuple[frozenset, tuple[int, int]]:
    """One hyperedge: the cells whose change can falsify this violation."""
    cells = set()
    for p in constraint.predicates:
        cells.add((i1, p.left_attr))
        cells.add((i2, p.right_attr))
    return frozenset(cells), (i1, i2)


def _greedy_vertex_cover(
    edges: list[tuple[frozenset, tuple[int, int]]]
) -> list[tuple[int, str]]:
    """Greedy minimal vertex cover of the violation hypergraph.

    Repeatedly takes the cell covering the most uncovered hyperedges
    (ties broken on the cell's ``(row, attr)`` so the cover — and hence
    the repair — is deterministic), until every edge is covered.
    """
    uncovered = {i: cells for i, (cells, _) in enumerate(edges)}
    cover: list[tuple[int, str]] = []
    while uncovered:
        degree: dict[tuple[int, str], int] = {}
        for cells in uncovered.values():
            for cell in cells:
                degree[cell] = degree.get(cell, 0) + 1
        best = min(degree.items(), key=lambda kv: (-kv[1], kv[0]))[0]
        cover.append(best)
        uncovered = {
            i: cells for i, cells in uncovered.items() if best not in cells
        }
    return cover


def _relaxed_value(
    constraint: DenialConstraint,
    cell: tuple[int, str],
    edges: list[tuple[frozenset, tuple[int, int]]],
    records: list[dict],
) -> Any:
    """The nearest value for ``cell`` that falsifies its incident edges.

    For every incident violation, the predicates touching the cell yield a
    requirement the new value must satisfy (``NOT (x OP partner)`` — e.g.
    a ``t1.price < t2.price`` violation asks the covered price to rise to
    at least the partner's).  The requirements combine into an interval
    plus equality/inequality sets; the value inside it closest to the
    current one wins.  Returns :data:`_INFEASIBLE` when the requirements
    conflict (the caller nulls the cell instead).
    """
    row_index, attr = cell
    current = records[row_index].get(attr)
    requirements: list[tuple[str, Any]] = []
    for cells, (i1, i2) in edges:
        if (row_index, attr) not in cells:
            continue
        t1, t2 = records[i1], records[i2]
        for p in constraint.predicates:
            if (i1, p.left_attr) == cell:
                requirements.append((_negate_left(p.op), t2.get(p.right_attr)))
            if (i2, p.right_attr) == cell:
                requirements.append((_negate_right(p.op), t1.get(p.left_attr)))
    return _solve_requirements(requirements, current)


# NOT(x OP v) for the cell on the predicate's left side ...
_NEGATE_LEFT = {"<": "ge", "<=": "gt", ">": "le", ">=": "lt", "==": "ne", "!=": "eq"}
# ... and NOT(v OP x) for the cell on the right side.
_NEGATE_RIGHT = {"<": "le", "<=": "lt", ">": "ge", ">=": "gt", "==": "ne", "!=": "eq"}


def _negate_left(op: str) -> str:
    return _NEGATE_LEFT[op]


def _negate_right(op: str) -> str:
    return _NEGATE_RIGHT[op]


def _solve_requirements(
    requirements: list[tuple[str, Any]], current: Any
) -> Any:
    """The value nearest ``current`` meeting every requirement, else
    :data:`_INFEASIBLE`.

    Requirements are ``(kind, bound)`` with kind in ge/gt/le/lt/eq/ne.
    Bounds must be mutually comparable (numbers, strings of one type);
    anything else — or an empty interval — is infeasible and the caller
    falls back to nulling the cell.
    """
    lo: tuple[Any, bool] | None = None  # (bound, strict)
    hi: tuple[Any, bool] | None = None
    eqs: list[Any] = []
    nes: list[Any] = []
    try:
        for kind, bound in requirements:
            if bound is None:
                # The partner side is null: the predicate can never hold
                # again whatever we write, so it constrains nothing.
                continue
            if kind == "ge":
                if lo is None or bound > lo[0]:
                    lo = (bound, False)
            elif kind == "gt":
                if lo is None or bound > lo[0] or (bound == lo[0] and not lo[1]):
                    lo = (bound, True)
            elif kind == "le":
                if hi is None or bound < hi[0]:
                    hi = (bound, False)
            elif kind == "lt":
                if hi is None or bound < hi[0] or (bound == hi[0] and not hi[1]):
                    hi = (bound, True)
            elif kind == "eq":
                eqs.append(bound)
            else:
                nes.append(bound)

        if eqs:
            value = eqs[0]
            if any(e != value for e in eqs[1:]) or any(n == value for n in nes):
                return _INFEASIBLE
            if lo is not None and (value < lo[0] or (value == lo[0] and lo[1])):
                return _INFEASIBLE
            if hi is not None and (value > hi[0] or (value == hi[0] and hi[1])):
                return _INFEASIBLE
            return value

        if lo is not None and hi is not None:
            if lo[0] > hi[0] or (lo[0] == hi[0] and (lo[1] or hi[1])):
                return _INFEASIBLE

        value = current
        if lo is not None and (
            value is None or value < lo[0] or (value == lo[0] and lo[1])
        ):
            value = _bump(lo[0], up=True) if lo[1] else lo[0]
        if hi is not None and value is not None and (
            value > hi[0] or (value == hi[0] and hi[1])
        ):
            value = _bump(hi[0], up=False) if hi[1] else hi[0]
            # Bumping down may violate a strict lower bound again.
            if value is _INFEASIBLE or (
                lo is not None and (value < lo[0] or (value == lo[0] and lo[1]))
            ):
                return _INFEASIBLE
        if value is _INFEASIBLE or value is None:
            return _INFEASIBLE
        if any(value == n for n in nes):
            return _INFEASIBLE
        return value
    except TypeError:
        # Mixed-type bounds: no ordered solution exists.
        return _INFEASIBLE


def _bump(value: Any, up: bool) -> Any:
    """The adjacent representable value (for strict bounds)."""
    if isinstance(value, bool):
        return _INFEASIBLE
    if isinstance(value, int):
        return value + 1 if up else value - 1
    if isinstance(value, float):
        return math.nextafter(value, math.inf if up else -math.inf)
    return _INFEASIBLE
