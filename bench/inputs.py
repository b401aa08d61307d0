"""Seeded inputs for the six workloads.

The *shape* of every table (sizes, how many violating groups, duplicate
cluster sizes, how many DC left-side rows) comes from the repository's
generators run with fixed generator seeds, so every ``--seed`` does the
same amount of work: with the generator seeds drawn from ``--seed`` the
rule-psi violation count moved 17k-40k and the Fig. 5 dedup pair count
1.4k-2.9k from one seed to the next, which would have been reported as
run-to-run spread of the program.  ``--seed`` decides row order (so which
rows share a pinned partition), the integer key labels (so how keys hash
to partitions), which rows the delta stream rewrites and the order in
which the serving clients send their queries.
"""

from __future__ import annotations

import random
from typing import Any

from repro.datasets import generate_customer, generate_dblp, generate_lineitem

# Sizes are set by the run-time cap of the benchmark contract (136 runs in
# 3420 s, so ~25 s a run all told): a warm pass has to stay near half a
# second for a 16 s run to hold twenty of them and five set-ups, which is
# what it takes for a run's medians to repeat on this kind of host.
SIZES: dict[str, dict[str, int]] = {
    "full": {
        "lineitem_sf": 12, "lineitem_dc_sf": 10, "dblp_pubs": 800,
        "customers": 600, "delta_fd": 30000, "delta_dc": 2000,
        "delta_dedup": 3000, "serve_customers": 1000, "csv_sf": 10,
    },
    "tiny": {
        "lineitem_sf": 1, "lineitem_dc_sf": 1, "dblp_pubs": 120,
        "customers": 80, "delta_fd": 2000, "delta_dc": 300,
        "delta_dedup": 300, "serve_customers": 120, "csv_sf": 1,
    },
}
ROWS_PER_SF = 600
DC_SELECTIVITY = 0.002

LINEITEM_FIELDS = (
    ("orderkey", "int"), ("linenumber", "int"), ("suppkey", "int"),
    ("partkey", "int"), ("quantity", "int"), ("price", "float"),
    ("discount", "float"), ("receiptdate", "str"),
)


def _reskin(rows: list[dict], rng: random.Random, int_keys: tuple[str, ...] = ()) -> list[dict]:
    """Seed-dependent row order and key labels; the amount of work stays."""
    rows = [dict(r) for r in rows]
    rng.shuffle(rows)
    offset = rng.randrange(1, 1000) * 1000
    for row in rows:
        for key in int_keys:
            row[key] += offset
    return rows


def _with_rids(rows: list[dict]) -> list[dict]:
    for i, row in enumerate(rows):
        row["_rid"] = i
    return rows


def price_cap(rows: list[dict], selectivity: float = DC_SELECTIVITY) -> float:
    prices = sorted(r["price"] for r in rows)
    return prices[max(1, int(len(prices) * selectivity))]


def warm_inputs(seed: int, size: dict[str, int]) -> dict[str, Any]:
    rng = random.Random(seed)
    lineitem = generate_lineitem(size["lineitem_sf"], rows_per_sf=ROWS_PER_SF, seed=7)
    lineitem_dc = generate_lineitem(size["lineitem_dc_sf"], rows_per_sf=ROWS_PER_SF, seed=8)
    dblp = generate_dblp(
        num_publications=size["dblp_pubs"], num_authors=300, dup_fraction=0.10, seed=41
    ).records
    customer = generate_customer(
        num_customers=size["customers"], max_duplicates=25, seed=23
    ).records
    for row in customer:
        # As in benchmarks/workloads.py: a tenth of the rows break both
        # Fig. 5 dependencies, so neither FD branch is empty.
        if row["_rid"] % 10 == 0:
            row["phone"] = "99-" + row["phone"]
            row["nationkey"] = (row["nationkey"] + 7) % 25
    tables = {
        "lineitem": _with_rids(_reskin(lineitem, rng, ("orderkey", "suppkey"))),
        "lineitem_dc": _with_rids(_reskin(lineitem_dc, rng, ("orderkey", "suppkey"))),
        "dblp": _reskin(dblp, rng),
        "customer": _reskin(customer, rng),
    }
    return {"tables": tables, "cap": price_cap(tables["lineitem_dc"])}


# The delta tables are the shapes of benchmarks/test_bench_incremental.py:
# few FD groups over many rows, a DC whose violations are the planted rows,
# dedup blocks of near-duplicates.  ``i`` is the row's position in the
# pattern, so appended rows continue it.
def delta_fd_row(i: int) -> dict:
    return {
        "addr": f"a{i % 150}",
        "phone": f"{i % 89}-{i % 7}55",
        "nation": (i % 150) % 11 + (0 if i % 997 else 1),
    }


def delta_dc_row(i: int) -> dict:
    return {"cat": f"c{i % 5}", "price": float(i), "qty": i % 5 + (1 if i % 1999 == 101 else 0)}


def delta_dedup_row(i: int) -> dict:
    # Blocks of four names one or two edits apart: at theta 0.9 four of a
    # block's six pairs are duplicates, so verification does real work and
    # the output stays near one pair per row.
    block = i // 4
    return {"city": f"c{block}", "name": f"record {block * 7919 % 1000:03d} name v{i % 4 // 2}{i % 2}"}


DELTA_ROWS = {"fd": delta_fd_row, "dc": delta_dc_row, "dedup": delta_dedup_row}


def delta_inputs(seed: int, size: dict[str, int]) -> dict[str, list[dict]]:
    rng = random.Random(seed)
    tables = {}
    for name, factory in DELTA_ROWS.items():
        rows = [factory(i) for i in range(size[f"delta_{name}"])]
        rng.shuffle(rows)
        tables[name] = _with_rids(rows)
    return tables


def serve_inputs(seed: int, size: dict[str, int]) -> dict[str, list[dict]]:
    rng = random.Random(seed)
    tenants = {}
    for tenant, generator_seed in (("acme", 50), ("zen", 51)):
        rows = generate_customer(
            num_customers=size["serve_customers"], max_duplicates=5, seed=generator_seed
        ).records
        tenants[tenant] = _reskin(rows, rng)
    return tenants


def cold_inputs(seed: int, size: dict[str, int]) -> list[dict]:
    rng = random.Random(seed)
    rows = generate_lineitem(size["csv_sf"], rows_per_sf=ROWS_PER_SF, seed=9)
    return _reskin(rows, rng, ("orderkey", "suppkey"))
