"""Shared test-data builders for the integration and property suites.

The cleaning operators' hard cases are null-laden rows: ``None`` grouping
keys, ``None`` comparison values, missing attributes.  Several suites used
to declare their own copies of the same datasets; this module is the single
factory.  Two entry points:

* :func:`cyclic_nully_rows` — deterministic rows where column ``c`` is
  ``None`` on a fixed cycle (``i % period == 0``) and a formula of ``i``
  otherwise.  The canonical datasets below are all built from it, so their
  bytes are stable across refactors (the parity tests compare ``repr``
  output, which must not drift).
* :func:`random_nully_rows` — seeded random rows with a configurable null
  rate, for tests that want varied shapes without Hypothesis.

The Hypothesis strategies the DC/incremental property suites share
(``values`` / ``record_sets`` / :func:`with_rids`) live here too.
"""

from __future__ import annotations

import os
import random
from typing import Any, Callable, Mapping, Sequence

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from repro.cleaning.denial import DenialConstraint, TuplePredicate
from repro.physical.parallel_exec import resident_input
from repro.engine.partitioner import round_robin_split

#: Worker processes for ``execution="parallel"`` tests (CI exports 2).
WORKERS = int(os.environ.get("REPRO_TEST_WORKERS", "2"))

#: Shared Hypothesis profile: worker-pool examples are slow by nature.
SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# Small domains force collisions (equal keys, equal band values, both
# orders violating) and the None weight injects nulls everywhere.
values = st.one_of(st.none(), st.integers(min_value=-3, max_value=3))
record_sets = st.lists(
    st.fixed_dictionaries({"a": values, "b": values, "c": values}),
    min_size=0,
    max_size=12,
)


def with_rids(records: Sequence[Mapping[str, Any]]) -> list[dict]:
    """Stamp positional ``_rid`` values onto generated records."""
    return [dict(r, _rid=i) for i, r in enumerate(records)]


# --------------------------------------------------------------------- #
# Deterministic factory
# --------------------------------------------------------------------- #
#: Column spec: ``name -> (null_period, value_of_i)``.  ``null_period``
#: ``None``/``0`` means the column never goes null; otherwise the value is
#: ``None`` whenever ``i % null_period == 0``.
ColumnSpec = Mapping[str, tuple[int | None, Callable[[int], Any]]]


def cyclic_nully_rows(
    n: int, columns: ColumnSpec, *, rid_first: bool = False
) -> list[dict]:
    """``n`` dict rows with deterministic cyclic nulls and ``_rid = i``.

    ``rid_first`` controls whether ``_rid`` is the first or last key — the
    parity suites compare ``repr`` output, so key order is part of the
    contract a migrated dataset must preserve.
    """
    rows: list[dict] = []
    for i in range(n):
        row: dict[str, Any] = {"_rid": i} if rid_first else {}
        for name, (period, value_of) in columns.items():
            row[name] = None if period and i % period == 0 else value_of(i)
        if not rid_first:
            row["_rid"] = i
        rows.append(row)
    return rows


def random_nully_rows(
    n: int,
    schema: Mapping[str, Sequence[Any]],
    *,
    null_rate: float = 0.25,
    seed: int = 0,
) -> list[dict]:
    """``n`` seeded-random rows; each cell drawn from its column's domain
    and independently nulled with probability ``null_rate``."""
    rnd = random.Random(seed)
    rows = []
    for i in range(n):
        row: dict[str, Any] = {}
        for name, domain in schema.items():
            row[name] = None if rnd.random() < null_rate else rnd.choice(list(domain))
        row["_rid"] = i
        rows.append(row)
    return rows


# --------------------------------------------------------------------- #
# Canonical datasets (formulas are load-bearing: repr-parity tests)
# --------------------------------------------------------------------- #
def nully_fd_rows(n: int = 90) -> list[dict]:
    """Customer-like rows for FD checks; every attribute cycles through
    ``None``."""
    return cyclic_nully_rows(
        n,
        {
            "addr": (7, lambda i: f"a{i % 5}"),
            "phone": (11, lambda i: f"{i % 5}{i % 3}-555"),
            "nation": (13, lambda i: i % 4),
        },
    )


def nully_orders_rows(n: int = 80) -> list[dict]:
    """Order-like rows for DC checks; band and residual values go null."""
    return cyclic_nully_rows(
        n,
        {
            "price": (9, lambda i: float(100 + 13 * (i % 11))),
            "qty": (17, lambda i: i % 5 + 1),
        },
    )


def nully_dedup_rows(n: int = 60) -> list[dict]:
    """Dedup rows with null blocking keys and null similarity attributes."""
    return cyclic_nully_rows(
        n,
        {
            "city": (6, lambda i: f"c{i % 3}"),
            "name": (5, lambda i: f"name {i % 8}"),
        },
        rid_first=True,
    )


def fd_clean_records(n: int = 120) -> list[dict]:
    """Null-free FD-check rows (the three-backend parity datasets)."""
    return cyclic_nully_rows(
        n,
        {
            "addr": (None, lambda i: f"a{i % 9}"),
            "phone": (None, lambda i: f"{i % 9}{i % 4}-555"),
            "nation": (None, lambda i: i % 4),
        },
    )


def dedup_clean_records(n: int = 60) -> list[dict]:
    """Null-free publication-style dedup rows (three-backend parity)."""
    return cyclic_nully_rows(
        n,
        {
            "journal": (None, lambda i: f"j{i % 3}"),
            "title": (None, lambda i: f"title {i % 10}"),
            "pages": (None, lambda i: f"{i}-{i + 9}"),
            "authors": (None, lambda i: f"author {i % 6}"),
        },
        rid_first=True,
    )


def psi_constraint() -> DenialConstraint:
    """Rule ψ: no pair may be cheaper yet larger (price <, qty >)."""
    return DenialConstraint(
        predicates=(
            TuplePredicate("price", "<", "price"),
            TuplePredicate("qty", ">", "qty"),
        ),
    )


def dirty_lineitem_rows(n: int = 200, outlier: int = 30) -> list[dict]:
    """Monotone price/qty rows with one planted ψ-violating outlier."""
    rows = [
        {"price": float(i), "qty": i // 20, "cat": f"c{i % 2}"} for i in range(n)
    ]
    rows[outlier]["qty"] += 3
    return rows


def split_for(records: Sequence[Any], cluster: Any) -> list[list[Any]]:
    """Partition ``records`` exactly as a pool read pins them."""
    return round_robin_split(records, cluster.default_parallelism)


def make_resident(db: Any, table: str) -> list:
    """Pin a registered table the way a pool read does (``resident_input``
    under the table's pin identity) and return its handles.  Registration
    ships nothing, so a test about pins, patches or store bytes reads the
    table through this first."""
    refs, _ = resident_input(db.cluster, db.table(table), db.tables.pinned_key(table))
    return refs
