"""Denial-constraint kernel: null-safe predicates and the banded DC plan.

General denial constraints ``∀ t1,t2 ¬(p1 ∧ ... ∧ pn)`` are the one CleanM
operation family (§3.1, rule ψ of §2) whose historical execution was a
black-box theta join: every strategy handed an opaque pair predicate to
``theta_join_*`` and paid for the full cross product.  This module is the
backend-neutral kernel that replaces that inner loop — extract
(:func:`extract_partition`), plan (:func:`plan_dc_entries`), index
(:func:`build_dc_index`), scan (:func:`scan_partition`, or
:func:`scan_task` around it in a worker).  The first three are composed
in one place, :func:`repro.cleaning.denial.build_dc_state`: the drivers
there build through it and price the counts, and the maintained DC state
(:mod:`repro.cleaning.incremental`) patches the index it returns.

The planner (:func:`plan_dc`) splits the constraint's predicate
conjunction:

* **Equality prefix** — ``t1.a == t2.b`` predicates become a
  hash-partitioned equi-prefix: the right side is grouped by its equality
  key tuple, and each left tuple probes exactly one group, so pairs that
  disagree on any equality attribute are never generated.
* **Band predicate** — one ordered inequality (``<``, ``<=``, ``>``,
  ``>=``) becomes a sort-banded range scan: each group's members are
  sorted on the right-hand band attribute and a left tuple's candidates
  are the ``bisect`` range satisfying the inequality — the sorted
  counterpart of BigDansing's min-max pruning, but exact.  The planner
  picks the *most selective* ordered predicate using a small statistics
  sample (the "spends more effort to obtain global data statistics"
  behaviour of §8.3), not blindly the first one.
* **Residual predicates** — everything else (``!=``, further
  inequalities) is verified per candidate on pre-extracted value vectors.

**The compiled probe.**  :func:`scan_partition` runs a closure built once
per :class:`DCPlan` (cached on the plan, never pickled with it): predicate
operators, index positions and the left filter are resolved up front, a
left tuple's values are read and null-checked once, each residual
predicate is one comprehension over the surviving candidates, and the
reverse-order check of the exactly-once rule is skipped when a strict
order over one attribute proves both orders cannot violate.  A delta's
group probes many lefts through its right-anchored form, :func:`scan_right_anchored`.

**Null semantics** are three-valued, SQL-style: a comparison with a
missing or ``None`` operand never *satisfies* a DC predicate (so a null
can never take part in a violation), instead of raising ``TypeError`` the
way raw ``None < 5`` does.  This applies to every operator, including
``==`` (``NULL = NULL`` is unknown) — see :func:`null_safe_compare`.

**Exactly-once pairs.**  Violating pairs are emitted with a stable
row-id rule rather than object identity (which breaks once records are
pickled across worker processes): self pairs compare equal rids, and when
*both* orders of a pair violate (symmetric constraints), only the
rid-ordered one is emitted — so the union over partitions and backends
reports each unordered violating pair exactly once.

Accounting mirrors the similarity kernel's split: ``candidates`` is the
logical pair universe the pushed-down cartesian plan would examine
(filtered left × full right), ``examined`` the pairs the banded scan
actually touched; they flow into the cluster's ``comparisons`` /
``verified`` counters and their ratio is the observable pruning ratio.
"""

from __future__ import annotations

import operator
import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import repeat
from typing import Any, Callable, Iterable, NamedTuple, Sequence

from .rowid import RID, row_ids

#: Raw comparison table.  Never call these on possibly-null operands —
#: go through :func:`null_safe_compare`.
_RAW_OPS: dict[str, Callable[[Any, Any], bool]] = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "==": operator.eq,
    "!=": operator.ne,
}

#: Operators whose banded range scan the planner can drive.
ORDERED_OPS = ("<", "<=", ">", ">=")


def _is_null(value: Any) -> bool:
    """Null for banding purposes: ``None`` or NaN.

    A NaN can never satisfy ``==`` or an ordered predicate (every
    comparison is False), but it *corrupts* a sorted list's bisect
    invariants — so the index and the probes treat it exactly like a
    null: no candidates.
    """
    return value is None or value != value


def rid_after(a: Any, b: Any) -> bool:
    """Total order over row ids: ``a`` sorts after ``b``.

    Native comparison when the ids are comparable (ints, the usual case);
    mixed types — e.g. string ``_rid`` rows next to positionally-numbered
    id-less rows — fall back to a ``(type name, repr)`` key, so the
    exactly-once pair rule stays deterministic instead of raising
    ``TypeError``.
    """
    try:
        return a > b
    except TypeError:
        return (type(a).__name__, repr(a)) > (type(b).__name__, repr(b))


def null_safe_compare(op: str, left: Any, right: Any) -> bool:
    """Three-valued comparison: a ``None`` operand never satisfies.

    DC predicates select *violations*; under SQL three-valued logic an
    unknown comparison cannot prove a violation, so it evaluates to
    ``False`` here.  This also makes ordered comparisons total — the raw
    ``None < 5`` would raise ``TypeError`` on exactly the dirty rows a
    cleaning system must survive.
    """
    if left is None or right is None:
        return False
    return _RAW_OPS[op](left, right)


@dataclass(frozen=True)
class TuplePredicate:
    """A cross-tuple predicate ``t1.left_attr OP t2.right_attr``."""

    left_attr: str
    op: str
    right_attr: str

    def holds(self, t1: dict, t2: dict) -> bool:
        return null_safe_compare(
            self.op, t1.get(self.left_attr), t2.get(self.right_attr)
        )


@dataclass(frozen=True)
class SingleFilter:
    """A single-tuple filter ``t1.attr OP constant`` (e.g. ψ's price < X)."""

    attr: str
    op: str
    value: Any

    def holds(self, t: dict) -> bool:
        return null_safe_compare(self.op, t.get(self.attr), self.value)


@dataclass(frozen=True)
class DenialConstraint:
    """``∀ t1, t2  ¬(predicates ∧ t1-filters)``.

    ``predicates`` relate a pair of tuples; ``left_filters`` restrict t1
    before the join (the 0.01 % price selection of rule ψ).
    """

    predicates: tuple[TuplePredicate, ...]
    left_filters: tuple[SingleFilter, ...] = field(default=())
    name: str = "dc"

    def violated_by(self, t1: dict, t2: dict) -> bool:
        """Whether the ordered pair ``(t1, t2)`` violates the constraint.

        Self pairs are skipped by *stable row id* (``_rid``) when both
        records carry one — object identity breaks after pickling through
        the parallel backend, where the same logical row arrives as two
        distinct dict objects — with identity as the fallback for id-less
        records.
        """
        if t1 is t2:
            return False
        rid1, rid2 = t1.get(RID), t2.get(RID)
        if rid1 is not None and rid1 == rid2:
            return False
        if not all(f.holds(t1) for f in self.left_filters):
            return False
        return all(p.holds(t1, t2) for p in self.predicates)


def parse_dc(
    rule: str, where: str = "", name: str = "dc"
) -> DenialConstraint:
    """Parse a textual DC into a :class:`DenialConstraint` (CLI surface).

    ``rule`` is a conjunction of cross-tuple clauses ``t1.attr OP t2.attr``
    joined by ``and`` (or ``;``); ``where`` is a conjunction of
    single-tuple clauses ``t1.attr OP constant``.  Example::

        parse_dc("t1.price < t2.price and t1.discount > t2.discount",
                 where="t1.price < 1000")
    """
    predicates = tuple(
        _parse_tuple_clause(clause) for clause in _split_clauses(rule)
    )
    filters = tuple(
        _parse_filter_clause(clause) for clause in _split_clauses(where)
    )
    if not predicates:
        raise ValueError("a denial constraint needs at least one predicate")
    return DenialConstraint(predicates=predicates, left_filters=filters, name=name)


def _split_clauses(text: str) -> list[str]:
    parts: list[str] = []
    # Conjunctions join with "and" (any case) or ";".
    for chunk in re.split(r";|\band\b", text, flags=re.IGNORECASE):
        chunk = chunk.strip()
        if chunk:
            parts.append(chunk)
    return parts


def _split_operator(clause: str) -> tuple[str, str, str]:
    # Longest operators first so "<=" is not read as "<"; SQL's single "="
    # (what CleanM's own WHERE uses) comes last and parses as "==".
    for op in ("<=", ">=", "==", "!=", "<", ">", "="):
        if op in clause:
            left, right = clause.split(op, 1)
            return left.strip(), "==" if op == "=" else op, right.strip()
    raise ValueError(f"no comparison operator in DC clause {clause!r}")


def _strip_role(term: str, role: str) -> str:
    prefix = role + "."
    if not term.startswith(prefix):
        raise ValueError(f"expected {prefix}ATTR in DC clause, got {term!r}")
    attr = term[len(prefix):]
    # A non-identifier here means the clause was misparsed (e.g. an
    # unrecognized conjunction swallowed into the attribute name); fail
    # loudly instead of silently matching nothing.
    if not attr.isidentifier():
        raise ValueError(f"invalid attribute name {attr!r} in DC clause")
    return attr


def _parse_tuple_clause(clause: str) -> TuplePredicate:
    left, op, right = _split_operator(clause)
    return TuplePredicate(_strip_role(left, "t1"), op, _strip_role(right, "t2"))


def _parse_filter_clause(clause: str) -> SingleFilter:
    left, op, right = _split_operator(clause)
    attr = _strip_role(left, "t1")
    try:
        value: Any = int(right)
    except ValueError:
        try:
            value = float(right)
        except ValueError:
            value = right.strip("'\"")
    return SingleFilter(attr, op, value)


# ---------------------------------------------------------------------- #
# Planning
# ---------------------------------------------------------------------- #

@dataclass(frozen=True)
class DCPlan:
    """A denial constraint split for partition-aware execution.

    ``eq_idx`` indexes the equality predicates (the hash-partitioned
    equi-prefix), ``band_idx`` the one ordered predicate driving the
    sorted range scan (``None`` when the constraint has none), and
    ``residual_idx`` everything verified per candidate.  Indices refer to
    ``constraint.predicates``; the plan itself is picklable and ships to
    worker processes as these four fields.
    """

    constraint: DenialConstraint
    eq_idx: tuple[int, ...]
    band_idx: int | None
    residual_idx: tuple[int, ...]

    def __getstate__(self) -> dict[str, Any]:
        """The fields only: the probe :func:`_compiled` caches on a plan
        neither pickles nor needs to — a worker compiles its own."""
        state = dict(vars(self))
        state.pop("_compiled", None)
        return state

    @property
    def band(self) -> TuplePredicate | None:
        if self.band_idx is None:
            return None
        return self.constraint.predicates[self.band_idx]

    def describe(self) -> str:
        preds = self.constraint.predicates
        eq = ", ".join(f"{preds[i].left_attr}=={preds[i].right_attr}" for i in self.eq_idx)
        band = (
            f"{preds[self.band_idx].left_attr} {preds[self.band_idx].op} "
            f"{preds[self.band_idx].right_attr}"
            if self.band_idx is not None
            else "-"
        )
        return f"DCPlan(eq=[{eq}], band={band}, residual={len(self.residual_idx)})"


def plan_dc(
    constraint: DenialConstraint, records: Sequence[dict] = (), sample: int = 64
) -> DCPlan:
    """Split a DC into equi-prefix, band predicate, and residuals.

    Convenience wrapper over :func:`plan_dc_entries` for callers holding
    plain dict records (the denial-constraint tests read the chosen plan
    through it); the engine plans from the entries it extracts anyway, in
    ``denial.build_dc_state``, which repair reaches through
    ``find_violations``.
    """
    entries = extract_partition(records, constraint)
    return plan_dc_entries(constraint, entries, sample=sample)


def plan_dc_entries(
    constraint: DenialConstraint,
    entries: Sequence["DCRecord"] = (),
    sample: int = 64,
) -> DCPlan:
    """Split a DC into equi-prefix, band predicate, and residuals.

    When ``entries`` are provided, the band predicate is chosen by
    *estimated selectivity*: for each ordered predicate, a deterministic
    every-k-th sample of left values is probed against the sorted right
    values and the predicate whose ranges would examine the fewest
    candidates wins (ties fall to declaration order).  Without entries
    the first ordered predicate is used.  Deterministic given the entry
    order, so backends that extract in the same partition-major order
    always pick the same plan.
    """
    preds = constraint.predicates
    eq_idx = tuple(i for i, p in enumerate(preds) if p.op == "==")
    ordered = [i for i, p in enumerate(preds) if p.op in ORDERED_OPS]
    band_idx: int | None = None
    if ordered:
        band_idx = ordered[0]
        if len(ordered) > 1 and entries:
            band_idx = _most_selective(preds, ordered, entries, sample)
    residual_idx = tuple(
        i for i in range(len(preds)) if i not in eq_idx and i != band_idx
    )
    return DCPlan(
        constraint=constraint,
        eq_idx=eq_idx,
        band_idx=band_idx,
        residual_idx=residual_idx,
    )


def _most_selective(
    preds: Sequence[TuplePredicate],
    ordered: list[int],
    entries: Sequence["DCRecord"],
    sample: int,
) -> int:
    """The ordered predicate whose band ranges examine the fewest pairs."""
    best_idx = ordered[0]
    best_cost = None
    step = max(1, len(entries) // sample)
    probes = entries[::step]
    for idx in ordered:
        try:
            values = sorted(
                v for e in entries if not _is_null(v := e.rvals[idx])
            )
        except TypeError:  # mixed-type column: unsortable, cannot band on it
            continue
        cost = 0
        for probe in probes:
            left_value = probe.lvals[idx]
            if _is_null(left_value):
                continue
            try:
                lo, hi = band_range(preds[idx].op, values, left_value)
            except TypeError:
                cost = None
                break
            cost += hi - lo
        if cost is None:
            continue
        if best_cost is None or cost < best_cost:
            best_cost = cost
            best_idx = idx
    return best_idx


# ---------------------------------------------------------------------- #
# Per-record extraction
# ---------------------------------------------------------------------- #

class DCRecord(NamedTuple):
    """One record's pre-extracted comparison state (both join roles).

    ``fvals`` *start with* the left-filter attribute values, ``lvals`` /
    ``rvals`` are the per-predicate left/right attribute values (in
    ``constraint.predicates`` order), ``payload`` whatever the backend
    needs to materialize an output pair (the record dict on the driver,
    the row's index into the driver's table in a worker or an incremental
    state — :func:`~repro.cleaning.rowid.row_indices`).  Plain tuples, so
    a :class:`DCRecord` crosses process boundaries unchanged.
    """

    rid: Any
    fvals: tuple
    lvals: tuple
    rvals: tuple
    payload: Any


def record_extractor(
    constraint: DenialConstraint,
) -> Callable[..., DCRecord]:
    """``extract(rid, record, payload=None)`` for one constraint: a dict
    record's comparison vectors, the attribute lists resolved once, not per
    record.  ``payload`` defaults to the record itself.  Roles reading the
    same values share one tuple: ``rvals`` when both sides name the same
    attributes, ``fvals`` when the filters read a prefix of the left ones."""
    fattrs = [f.attr for f in constraint.left_filters]
    lattrs = [p.left_attr for p in constraint.predicates]
    rattrs = [p.right_attr for p in constraint.predicates]
    symmetric, prefixed = lattrs == rattrs, bool(fattrs) and fattrs == lattrs[: len(fattrs)]

    def extract(rid: Any, record: dict, payload: Any = None) -> DCRecord:
        get = record.get
        lvals = tuple(map(get, lattrs))
        return DCRecord(
            rid,
            lvals if prefixed else tuple(map(get, fattrs)),
            lvals,
            lvals if symmetric else tuple(map(get, rattrs)),
            record if payload is None else payload,
        )

    return extract


def extract_partition(
    records: Sequence[dict],
    constraint: DenialConstraint,
    start: int = 0,
    rows: Sequence[int] | None = None,
) -> list[DCRecord]:
    """One partition's comparison vectors, in partition order.

    Row ids follow the shared rule (:func:`~repro.cleaning.rowid.row_ids`;
    ``start`` is the partition's offset in the partition-major numbering),
    so every backend extracts the identical entry stream.  Payloads are
    the records themselves, or their ``rows`` — the partition's
    :func:`~repro.cleaning.rowid.row_indices` into a table the caller
    holds — so nothing downstream carries a copy of any row.
    """
    extract = record_extractor(constraint)
    return list(map(extract, row_ids(records, start), records, rows or records))


def extract_task(records: list[dict], constraint: DenialConstraint, start: int, rows: range) -> Any:
    """Worker task: :func:`extract_partition` with row-index payloads.  The
    driver indexes every entry; the worker keeps the left-filtered ones,
    all :func:`scan_task` probes with."""
    from ..engine.worker import Staged  # a worker task: the pool's modules are loaded

    entries = extract_partition(records, constraint, start, rows)
    return Staged(list(filter(left_filter(constraint), entries)), entries)


def left_filter(constraint: DenialConstraint) -> Callable[[DCRecord], bool]:
    """``passes(entry)`` for one constraint: whether the entry's t1 role
    survives the single-tuple filters (null-safe, in declaration order)."""
    checks = [(_RAW_OPS[f.op], f.value) for f in constraint.left_filters]

    def passes(entry: DCRecord) -> bool:
        for (op, bound), value in zip(checks, entry.fvals):
            if value is None or bound is None or not op(value, bound):
                return False
        return True

    return passes


# ---------------------------------------------------------------------- #
# Index build + banded scan
# ---------------------------------------------------------------------- #

@dataclass
class DCStats:
    """Counters the kernel accumulates (the simjoin ``JoinStats`` analogue).

    ``candidates`` is the logical pair universe (filtered left × full
    right — exactly what the pushed-down cartesian plan charges), so the
    pruning ratio ``examined / candidates`` is comparable across
    strategies.  ``examined`` counts pairs the banded scan touched (these
    charge the cluster's ``verified`` counter), ``pairs`` the emitted
    violations, ``work`` the simulated cost.
    """

    candidates: int = 0
    examined: int = 0
    pairs: int = 0
    work: float = 0.0


def dc_group_key(entry: DCRecord, plan: DCPlan) -> tuple | None:
    """The equality-group key :func:`build_dc_index` files ``entry`` under
    (the maintained DC state patches by it), or ``None``: a null equality
    key or band value can never satisfy its predicate, so the entry has no
    candidates and is not indexed."""
    return _compiled(plan)[0](entry)


def build_dc_index(
    entries: Iterable[DCRecord], plan: DCPlan
) -> dict[tuple, tuple[list | None, list[DCRecord]]]:
    """Group + sort the right side for probing.

    Entries whose equality key or band value contains ``None`` are
    excluded outright — a null can never satisfy the corresponding
    predicate, so they have no candidates.  Each group holds its members
    sorted by band value (stable, so ties keep input order and every
    backend builds the identical index) alongside the extracted value
    list for :func:`bisect`.  A group whose band values are mutually
    incomparable (mixed types) keeps insertion order with a ``None``
    value list; the scan then checks the band predicate explicitly, so
    planning can never change the answer.
    """
    group_key = _compiled(plan)[0]
    groups: dict[tuple, list[DCRecord]] = {}
    for entry in entries:
        key = group_key(entry)
        if key is not None:
            groups.setdefault(key, []).append(entry)
    return {
        key: band_sorted(members, plan.band_idx) for key, members in groups.items()
    }


def band_sorted(
    members: list[DCRecord], band_idx: int | None, side: str = "rvals"
) -> tuple[list | None, list[DCRecord]]:
    """One index group in probe form: ``(band values, members)`` sorted by
    band value (their ``side``'s), or ``(None, members)`` in insertion order
    when there is no band predicate or the values are mutually incomparable
    (the maintained DC state re-forms a group through it when bisection
    cannot; the right-anchored probe sorts its lefts by ``lvals``)."""
    if band_idx is not None:
        at = DCRecord._fields.index(side)  # e[at] reads as fast as e.rvals
        try:
            members = sorted(members, key=lambda e: e[at][band_idx])
            return [e[at][band_idx] for e in members], members
        except TypeError:
            pass
    return None, members


def band_range(op: str, values: list, left_value: Any) -> tuple[int, int]:
    """The half-open index range of sorted ``values`` satisfying
    ``left_value OP value``."""
    if op == "<":
        return bisect_right(values, left_value), len(values)
    if op == "<=":
        return bisect_left(values, left_value), len(values)
    if op == ">":
        return 0, bisect_left(values, left_value)
    if op == ">=":
        return 0, bisect_right(values, left_value)
    raise ValueError(f"not an ordered operator: {op!r}")


def scan_partition(
    left_entries: Sequence[DCRecord],
    index: dict[tuple, tuple[list | None, list[DCRecord]]],
    plan: DCPlan,
    stats: DCStats,
    compare_unit: float = 0.0,
) -> list[tuple[DCRecord, DCRecord]]:
    """Probe one left partition against the index; returns violating pairs.

    Left entries are assumed to have passed the single-tuple filters.
    Candidates come from the equality group's band range; residual
    predicates run on the extracted vectors.  When both orders of a pair
    violate, only the rid-ordered one is emitted (see module docstring),
    so partitions never double-report.
    """
    return _compiled(plan)[1](left_entries, index, stats, compare_unit)


def scan_right_anchored(
    left_entries: Sequence[DCRecord], group: tuple[list | None, list[DCRecord]], plan: DCPlan
) -> list[tuple[DCRecord, DCRecord]]:
    """:func:`scan_partition`'s pairs for left entries that all probe one
    index ``group``, found from the group's side: the lefts are sorted once
    by band value and each member bisects its band range of them, the
    operator mirrored.  Each t1's partners keep the group's order."""
    return _compiled(plan)[2](left_entries, group)


def scan_task(
    left_entries: list[DCRecord],
    index: dict,
    plan: DCPlan,
    compare_unit: float,
) -> tuple[list[Any], tuple[int, int, float]]:
    """Worker task: banded probe of one resident left partition.

    ``left_entries`` (what :func:`extract_task` kept) and ``index`` arrive
    by handle (the index is broadcast once per worker), so a warm re-run
    ships only this task's few-hundred-byte argument tuple.  Returns the
    violating pairs' payloads as one flat list ``[t1, t2, t1, t2, ...]``
    plus ``(examined, pairs, work)`` for the driver's metrics.
    """
    stats = DCStats()
    pairs = scan_partition(left_entries, index, plan, stats, compare_unit)
    return [e.payload for pair in pairs for e in pair], (stats.examined, stats.pairs, stats.work)


def _compiled(plan: DCPlan) -> tuple[Callable, Callable, Callable]:
    """``(group_key, probe, probe_right)`` specialised for ``plan``: built
    on first use and cached on the (frozen) plan, never pickled with it."""
    cached = vars(plan).get("_compiled")
    if cached is None:
        cached = _compile(plan)
        object.__setattr__(plan, "_compiled", cached)
    return cached


def _compile(plan: DCPlan) -> tuple[Callable, Callable, Callable]:
    """Resolve everything a probe would otherwise look up per candidate:
    predicate operators, index positions, the left filter, and whether the
    reverse order of an emitted pair can violate at all."""
    preds = plan.constraint.predicates
    eq_idx, band_idx = plan.eq_idx, plan.band_idx
    band_op = preds[band_idx].op if band_idx is not None else ""
    # ``lv OP rv`` is ``rv MIRRORED lv``: the right-anchored probe's range.
    mirrored_op = band_op.translate(str.maketrans("<>", "><"))
    residual = [(i, _RAW_OPS[preds[i].op]) for i in plan.residual_idx]
    # An unsortable group verifies the band predicate like a residual.
    unbanded = residual if band_idx is None else [(band_idx, _RAW_OPS[band_op]), *residual]
    every = [(i, _RAW_OPS[p.op]) for i, p in enumerate(preds)]
    passes = left_filter(plan.constraint)
    # A strict order over one attribute on both sides holds in at most one
    # direction, so the reverse of a violating pair never violates.
    one_way = any(
        p.op in ("<", ">") and p.left_attr == p.right_attr for p in preds
    )

    def eq_key(vals: tuple) -> tuple | None:
        key = tuple([vals[i] for i in eq_idx])
        for k in key:
            if k is None or k != k:
                return None
        return key

    def group_key(entry: DCRecord) -> tuple | None:
        rvals = entry.rvals
        if band_idx is not None and _is_null(rvals[band_idx]):
            return None
        return eq_key(rvals)

    def holds(t1: DCRecord, t2: DCRecord) -> bool:
        """Every cross-tuple predicate on the ordered pair (the reverse
        order of an emitted pair; rids are known to differ)."""
        lvals, rvals = t1.lvals, t2.rvals
        for i, op in every:
            lv, rv = lvals[i], rvals[i]
            if lv is None or rv is None or not op(lv, rv):
                return False
        return True

    # ``left_ok`` holds one probe call's left-filter verdicts of reverse-checked
    # entries, by identity: one evaluation per entry per call (the index, or
    # the right-anchored probe's group and lefts, keeps the entries alive).
    def mirrored(t1: DCRecord, t2: DCRecord, left_ok: dict[int, bool]) -> bool:
        """Whether ``(t2, t1)`` violates too and is the pair to emit."""
        if not rid_after(t1.rid, t2.rid):
            return False
        ok = left_ok.get(id(t2))
        if ok is None:
            ok = left_ok[id(t2)] = passes(t2)
        return ok and holds(t2, t1)

    def probe(
        left_entries: Sequence[DCRecord],
        index: dict[tuple, tuple[list | None, list[DCRecord]]],
        stats: DCStats,
        compare_unit: float,
    ) -> list[tuple[DCRecord, DCRecord]]:
        out: list[tuple[DCRecord, DCRecord]] = []
        left_ok: dict[int, bool] = {}
        # Same per-probe additions in the same order as a field update per
        # probe, so the simulated work is bit-identical.
        examined, work = stats.examined, stats.work
        for t1 in left_entries:
            lvals = t1.lvals
            key = eq_key(lvals)
            group = index.get(key) if key is not None else None
            if group is None:
                continue
            values, cands = group
            checks = residual
            if band_idx is not None:
                left_value = lvals[band_idx]
                if left_value is None or left_value != left_value:
                    continue
                checks = unbanded  # unsortable group: verify per pair
                if values is not None:
                    try:
                        lo, hi = band_range(band_op, values, left_value)
                        cands, checks = cands[lo:hi], residual
                    except TypeError:
                        pass
            examined += len(cands)
            work += len(cands) * compare_unit
            # t1's side of each predicate is read and null-checked once;
            # each predicate then filters the survivors in one pass.
            for i, op in checks:
                lv = lvals[i]
                if lv is None:
                    cands = ()
                    break
                cands = [
                    t2
                    for t2 in cands
                    if (rv := t2.rvals[i]) is not None and op(lv, rv)
                ]
            rid = t1.rid
            cands = [t2 for t2 in cands if not rid == t2.rid]
            if not one_way:
                # Both orders violating (symmetric constraints): emit only
                # the rid-ordered pair so the union across partitions and
                # backends reports each unordered pair exactly once.
                cands = [t2 for t2 in cands if not mirrored(t1, t2, left_ok)]
            out.extend(zip(repeat(t1), cands))
        stats.examined, stats.work = examined, work
        stats.pairs += len(out)
        return out

    def probe_right(lefts: Sequence[DCRecord], group: tuple) -> list[tuple[DCRecord, DCRecord]]:
        """The forward probe, loops swapped: each pair meets the same checks in the same order."""
        out: list[tuple[DCRecord, DCRecord]] = []
        left_ok: dict[int, bool] = {}
        if band_idx is not None:
            lefts = [t1 for t1 in lefts if not _is_null(t1.lvals[band_idx])]
        values, lefts = band_sorted(lefts, band_idx, "lvals")
        for t2 in group[1]:
            rvals, cands, checks = t2.rvals, lefts, unbanded
            if values is not None:
                try:
                    lo, hi = band_range(mirrored_op, values, rvals[band_idx])
                    cands, checks = lefts[lo:hi], residual
                except TypeError:
                    pass
            for i, op in checks:
                if (rv := rvals[i]) is None:
                    cands = ()
                    break
                cands = [t1 for t1 in cands if (lv := t1.lvals[i]) is not None and op(lv, rv)]
            rid = t2.rid
            cands = [t1 for t1 in cands if not t1.rid == rid]
            if not one_way:
                cands = [t1 for t1 in cands if not mirrored(t1, t2, left_ok)]
            out.extend(zip(cands, repeat(t2)))
        return out

    return group_key, probe, probe_right
