"""Algebra-level rewrites (§5): coalescing and shared-scan DAG building.

Two rewrites give the paper's Fig. 1 plan:

* :func:`coalesce_nests` — sub-plans that group the *same input on the same
  key* are merged into a single Nest computing every branch's aggregates in
  one grouping pass (Plan B + Plan C → Plan BC).  Each merged branch's
  aggregate is renamed to a unique slot (``p0``, ``p1``, ...) and the
  branch's own references to its ``partition`` field are rewritten to the
  new slot; the branch-specific HAVING predicates stay on top of the shared
  Nest, so per-branch semantics are preserved exactly.
* :func:`build_shared_dag` — sub-plans scanning the same table are stitched
  into a :class:`~repro.algebra.operators.SharedScanDAG` that scans the
  dataset once and feeds every branch (the "Overall Plan" of Fig. 1).

Both rewrites are purely structural: subtrees are compared via their
canonical description strings.
"""

from __future__ import annotations

from .._records import Record, field
from ..monoid.expressions import (
    BinOp,
    Call,
    Const,
    Expr,
    If,
    Lambda,
    Merge,
    Proj,
    RecordCons,
    UnaryOp,
    Var,
)
from .operators import (
    TRUE,
    AlgebraOp,
    Join,
    Nest,
    Reduce,
    Scan,
    Select,
    SharedScanDAG,
    Unnest,
)


class RewriteReport(Record):
    """What the rewriter did; surfaced by EXPLAIN and asserted in tests."""

    coalesced_groups: list[tuple[str, ...]] = field(default_factory=list)
    shared_scan: str | None = None

    @property
    def any_rewrite(self) -> bool:
        return bool(self.coalesced_groups) or self.shared_scan is not None


def plan_signature(op: AlgebraOp) -> str:
    """A canonical string for subtree comparison."""
    return op.describe()


def leaf_scan(op: AlgebraOp) -> Scan | None:
    """The unique Scan leaf of a linear subtree, if any."""
    if isinstance(op, Scan):
        return op
    if isinstance(op, (Select, Unnest, Reduce, Nest)):
        return leaf_scan(op.child)
    if isinstance(op, Join):
        left = leaf_scan(op.left)
        right = leaf_scan(op.right)
        if left is not None and right is None:
            return left
        if right is not None and left is None:
            return right
        return left  # both sides scan; report the left one
    return None


def _nest_of(branch: AlgebraOp) -> Nest | None:
    """The Nest a violation branch is built on.

    Walks the Reduce/Select/Unnest spine — dedup branches unnest the group
    partition twice before comparing pairs, and must still coalesce with FD
    branches grouping on the same key (Fig. 5).
    """
    if isinstance(branch, Nest):
        return branch
    if isinstance(branch, (Reduce, Select, Unnest)):
        return _nest_of(branch.child)
    return None


def coalesce_nests(
    branches: list[AlgebraOp],
    names: list[str] | None = None,
    report: RewriteReport | None = None,
) -> list[AlgebraOp]:
    """Merge branches whose Nest shares the same child and grouping key."""
    names = names or [f"branch{i}" for i in range(len(branches))]
    report = report if report is not None else RewriteReport()

    families: dict[tuple[str, str, bool], list[int]] = {}
    nests: list[Nest | None] = []
    for i, branch in enumerate(branches):
        nest = _nest_of(branch)
        nests.append(nest)
        if nest is None:
            continue
        signature = (
            plan_signature(nest.child),
            repr(nest.key),
            bool(getattr(nest, "multi", False)),
        )
        families.setdefault(signature, []).append(i)

    out = list(branches)
    for signature, members in families.items():
        if len(members) < 2:
            continue
        # Merge aggregates, deduplicating identical (monoid, head) folds and
        # assigning a unique slot name per distinct fold.
        merged_aggs: list = []
        slot_of: dict[str, str] = {}  # fold signature -> slot name
        member_slots: dict[int, dict[str, str]] = {}
        for i in members:
            renames: dict[str, str] = {}
            for agg_name, monoid, head in nests[i].aggregates:  # type: ignore[union-attr]
                fold_sig = f"{monoid.name}/{head!r}"
                if fold_sig not in slot_of:
                    slot = f"p{len(merged_aggs)}"
                    slot_of[fold_sig] = slot
                    merged_aggs.append((slot, monoid, head))
                renames[agg_name] = slot_of[fold_sig]
            member_slots[i] = renames

        base = nests[members[0]]
        assert base is not None
        merged = Nest(
            child=base.child,
            key=base.key,
            aggregates=tuple(merged_aggs),
            var=base.var,
        )
        merged.multi = bool(getattr(base, "multi", False))  # type: ignore[attr-defined]
        for i in members:
            out[i] = _replant(
                branches[i], nests[i], merged, member_slots[i]  # type: ignore[arg-type]
            )
        report.coalesced_groups.append(tuple(names[i] for i in members))
    return out


def _replant(
    branch: AlgebraOp, old: Nest, new: Nest, renames: dict[str, str]
) -> AlgebraOp:
    """Replace ``old`` by ``new`` inside a Select/Reduce/Unnest spine.

    Field references to the branch's former aggregate names (typically
    ``partition``) are rewritten to the merged slot names, and references to
    the branch's own nest variable are substituted by the merged Nest's
    variable; the branch's group predicate is preserved as a Select on top
    of the shared Nest.
    """

    def fix(expr: Expr) -> Expr:
        renamed = rename_fields(expr, old.var, renames)
        if old.var != new.var:
            renamed = renamed.substitute({old.var: Var(new.var)})
        return renamed

    if branch is old:
        replacement: AlgebraOp = new
        if old.group_predicate != TRUE:
            replacement = Select(new, fix(old.group_predicate))
        return replacement
    if isinstance(branch, Select):
        return Select(_replant(branch.child, old, new, renames), fix(branch.predicate))
    if isinstance(branch, Reduce):
        return Reduce(
            _replant(branch.child, old, new, renames),
            branch.monoid,
            fix(branch.head),
            fix(branch.predicate),
        )
    if isinstance(branch, Unnest):
        return Unnest(
            _replant(branch.child, old, new, renames),
            fix(branch.path),
            branch.var,
            fix(branch.predicate),
            branch.outer,
        )
    return branch


def rename_fields(expr: Expr, var: str, renames: dict[str, str]) -> Expr:
    """Rewrite ``Proj(Var(var), old_field)`` per the rename map, recursively."""
    if isinstance(expr, Proj):
        source = rename_fields(expr.source, var, renames)
        if isinstance(expr.source, Var) and expr.source.name == var and expr.attr in renames:
            return Proj(source, renames[expr.attr])
        return Proj(source, expr.attr)
    if isinstance(expr, (Var, Const)):
        return expr
    if isinstance(expr, BinOp):
        return BinOp(
            expr.op,
            rename_fields(expr.left, var, renames),
            rename_fields(expr.right, var, renames),
        )
    if isinstance(expr, UnaryOp):
        return UnaryOp(expr.op, rename_fields(expr.operand, var, renames))
    if isinstance(expr, Call):
        return Call(
            expr.name, tuple(rename_fields(a, var, renames) for a in expr.args)
        )
    if isinstance(expr, If):
        return If(
            rename_fields(expr.cond, var, renames),
            rename_fields(expr.then_branch, var, renames),
            rename_fields(expr.else_branch, var, renames),
        )
    if isinstance(expr, RecordCons):
        return RecordCons(
            tuple((n, rename_fields(e, var, renames)) for n, e in expr.fields)
        )
    if isinstance(expr, Lambda):
        return Lambda(expr.params, rename_fields(expr.body, var, renames))
    if isinstance(expr, Merge):
        return Merge(
            expr.monoid,
            rename_fields(expr.left, var, renames),
            rename_fields(expr.right, var, renames),
        )
    return expr


def build_shared_dag(
    branches: list[AlgebraOp],
    names: list[str] | None = None,
    report: RewriteReport | None = None,
) -> AlgebraOp:
    """Stitch branches into a SharedScanDAG (single branch passes through)."""
    if not branches:
        raise ValueError("no branches to combine")
    names = names or [f"branch{i}" for i in range(len(branches))]
    report = report if report is not None else RewriteReport()
    if len(branches) == 1:
        return branches[0]
    scans = [leaf_scan(b) for b in branches]
    tables = {s.table for s in scans if s is not None}
    if len(tables) == 1 and all(s is not None for s in scans):
        report.shared_scan = next(iter(tables))
    first = scans[0] or Scan("<none>", "_")
    return SharedScanDAG(
        scan=first, branches=tuple(branches), branch_names=tuple(names)
    )


def optimize_branches(
    branches: list[AlgebraOp],
    names: list[str] | None = None,
    coalesce: bool = True,
) -> tuple[AlgebraOp, RewriteReport]:
    """The full §5 rewrite: coalesce shared groupings, then share the scan.

    ``coalesce=False`` gives the baseline behaviour (each operation is a
    standalone black box, as in Spark SQL / BigDansing).
    """
    report = RewriteReport()
    names = names or [f"branch{i}" for i in range(len(branches))]
    rewritten = coalesce_nests(branches, names, report) if coalesce else list(branches)
    dag = build_shared_dag(rewritten, names, report)
    return dag, report
