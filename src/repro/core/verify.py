"""Plan-invariant verification: the post-lowering half of ``repro check``.

The semantic pass (:mod:`repro.core.semantics`) judges the *source*; this
module judges what the rewriters *produced*.  Rewrites are supposed to be
meaning-preserving, so any plan that drops a branch, references a variable
no upstream operator binds, or scans a table outside the catalog is a
rewriter bug — better caught at plan time as a ``CM6##`` diagnostic than
as a ``NameError`` ten operators deep in a worker.

:func:`verify_handles` covers the dispatch half: before a parallel plan
runs against pinned partitions, the driver's expected ``(name, version)``
handles are checked against what the worker store actually holds, so a
stale handle fails with a diagnostic naming the version skew instead of a
mid-flight ``StaleHandleError``.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

from ..algebra.operators import (
    AlgebraOp,
    Join,
    Nest,
    Reduce,
    Scan,
    Select,
    SharedScanDAG,
    Unnest,
)
from .semantics import Diagnostic

__all__ = ["verify_plan", "verify_handles"]


def verify_plan(
    plan: AlgebraOp,
    tables: Iterable[str],
    expected_branches: Iterable[str] = (),
) -> list[Diagnostic]:
    """Check a lowered plan's structural invariants.

    * CM601 — the optimized DAG must carry exactly the branch names the
      rewriter produced (schema preservation across the §5 rewrites: a
      coalesce that eats a branch would silently drop its output).
    * CM602 — every expression's free variables must be bound by an
      upstream operator under the physical environment-threading rules.
    * CM603 — every Scan must name a catalog table.
    """
    diags: list[Diagnostic] = []
    expected = list(expected_branches)
    if expected:
        if isinstance(plan, SharedScanDAG):
            produced = list(plan.branch_names) or [
                f"branch{i}" for i in range(len(plan.branches))
            ]
        else:
            # A single-root plan answers for exactly one branch (the
            # facade assigns it the first branch's name on collection).
            produced = expected[:1]
        if sorted(produced) != sorted(expected):
            diags.append(
                Diagnostic(
                    code="CM601",
                    severity="error",
                    message=(
                        f"plan rewrite changed the branch set: expected "
                        f"{sorted(expected)}, plan produces {sorted(produced)}"
                    ),
                    hint="a §5 rewrite dropped or duplicated a branch output",
                )
            )
    table_set = set(tables)
    if isinstance(plan, SharedScanDAG):
        _verify_scan(plan.scan, table_set, diags)
        for branch in plan.branches:
            _verify_op(branch, table_set, diags, shared_root=plan.scan)
    else:
        _verify_op(plan, table_set, diags)
    return diags


def _verify_scan(op: Scan, tables: set[str], diags: list[Diagnostic]) -> None:
    if op.table not in tables:
        diags.append(
            Diagnostic(
                code="CM603",
                severity="error",
                message=f"plan scans unknown table {op.table!r}",
                hint="the catalog changed between compile and verify",
            )
        )


def _verify_op(
    op: AlgebraOp,
    tables: set[str],
    diags: list[Diagnostic],
    shared_root: Scan | None = None,
) -> set[str]:
    """Walk bottom-up, returning the bound-variable environment the
    operator's *output* rows carry (the lowering's env-threading rules)."""
    if isinstance(op, Scan):
        if op is not shared_root:
            _verify_scan(op, tables, diags)
        return {op.var}
    if isinstance(op, Select):
        env = _verify_op(op.child, tables, diags, shared_root)
        _check_free(op.predicate, env, "Select predicate", diags)
        return env
    if isinstance(op, Join):
        left = _verify_op(op.left, tables, diags, shared_root)
        right = _verify_op(op.right, tables, diags, shared_root)
        env = left | right
        for key in op.left_keys:
            _check_free(key, left, "Join left key", diags)
        for key in op.right_keys:
            _check_free(key, right, "Join right key", diags)
        _check_free(op.predicate, env, "Join predicate", diags)
        return env
    if isinstance(op, Unnest):
        env = _verify_op(op.child, tables, diags, shared_root)
        _check_free(op.path, env, "Unnest path", diags)
        extended = env | {op.var}
        _check_free(op.predicate, extended, "Unnest predicate", diags)
        return extended
    if isinstance(op, Nest):
        env = _verify_op(op.child, tables, diags, shared_root)
        _check_free(op.key, env, "Nest key", diags)
        for name, _monoid, head in op.aggregates:
            _check_free(head, env, f"Nest aggregate {name!r}", diags)
        # Downstream of a Nest only the group variable exists: the emit
        # step rebinds the environment to ``{op.var: group}``.
        _check_free(op.group_predicate, {op.var}, "Nest group predicate", diags)
        return {op.var}
    if isinstance(op, Reduce):
        env = _verify_op(op.child, tables, diags, shared_root)
        _check_free(op.predicate, env, "Reduce predicate", diags)
        _check_free(op.head, env, "Reduce head", diags)
        return env
    if isinstance(op, SharedScanDAG):  # nested DAGs do not occur, but verify
        _verify_scan(op.scan, tables, diags)
        for branch in op.branches:
            _verify_op(branch, tables, diags, shared_root=op.scan)
        return {op.scan.var}
    return set()  # unknown operator: nothing to claim


def _check_free(
    expr: Any, env: set[str], where: str, diags: list[Diagnostic]
) -> None:
    unbound = expr.free_vars() - env
    if unbound:
        names = ", ".join(sorted(repr(v) for v in unbound))
        bound = ", ".join(sorted(repr(v) for v in env)) or "(none)"
        diags.append(
            Diagnostic(
                code="CM602",
                severity="error",
                message=(
                    f"{where} references unbound variable(s) {names}; "
                    f"operators upstream bind only {bound}"
                ),
                hint="a rewrite moved an expression past the operator binding it",
            )
        )


def verify_handles(
    pool: Any, pinned_map: Mapping[str, tuple[str, int]]
) -> list[Diagnostic]:
    """CM502: driver-held pin handles must match the worker store.

    For each table the driver expects at ``(pin_name, version)``: a cold
    store (no versions resident) is fine — the executor re-pins on demand
    — but a store holding *only other versions* means driver and workers
    disagree about the table's identity, and dispatching would either fail
    with ``StaleHandleError`` or, worse, a recovered worker could rebuild
    pre-mutation rows.  That skew is an error here, before dispatch.
    """
    diags: list[Diagnostic] = []
    for table, (pin_name, version) in sorted(pinned_map.items()):
        try:
            resident = pool.pinned_versions(pin_name)
        except Exception:  # pool mid-restart: dispatch-time recovery handles it
            continue
        if not resident or version in resident:
            continue
        held = ", ".join(f"v{v}" for v in sorted(resident))
        diags.append(
            Diagnostic(
                code="CM502",
                severity="error",
                message=(
                    f"stale handle for table {table!r}: driver expects "
                    f"{pin_name!r} v{version}, worker store holds {held}"
                ),
                hint="call refresh_table(); the next pool read pins the current rows",
            )
        )
    return diags
