"""The six workloads.

Each workload answers the same small protocol (``prepare`` / ``setup`` /
``round`` / ``finish`` / ``teardown``) so one runner measures them all.  A
*round* is the workload's repeating unit — one pass of the warm op mix, one
write plus re-check, one batch of served queries, one rotation of CLI
launches — and every operation in it is timed from call to collected
result and its output compared with the oracle's.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import random
import re
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from . import inputs, oracle
from .hostclock import HostClock
from .trace import Tracer, spans_from_chrome

WORKERS = min(2, os.cpu_count() or 1)
REPO_ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

UNIFIED_SQL = (
    "SELECT * FROM customer c "
    "FD(c.address, prefix(c.phone)) FD(c.address, c.nationkey) "
    "DEDUP(exact, LD, 0.5, c.address)"
)
# Filters on discount, not quantity: generate_lineitem plants None
# quantities and an ordered WHERE over them raises TypeError today.
AGG_SQL = (
    "SELECT l.suppkey, count(l.orderkey) AS n FROM lineitem l "
    "WHERE l.discount > 0.05 GROUP BY l.suppkey"
)
COLD_SQL = "SELECT * FROM lineitem l FD(l.orderkey, l.suppkey)"
DELTA_DC = (("cat", "==", "cat"), ("price", "<", "price"), ("qty", "!=", "qty"))
SERVE_DC = (("address", "==", "address"), ("name", "!=", "name"))
SERVE_SQL = (
    "SELECT c.nationkey, count(c.custkey) AS n FROM customer c "
    "WHERE c.custkey > 100 GROUP BY c.nationkey"
)
# fd 40 % / sql 30 % / dc 15 % / dedup 15 %: the same twenty queries per
# client and round, in an order the seed decides.
SERVE_MIX = ("fd",) * 8 + ("sql",) * 6 + ("dc",) * 3 + ("dedup",) * 3


def dc_rule(predicates: tuple[tuple[str, str, str], ...]) -> str:
    return " and ".join(f"t1.{a} {op} t2.{b}" for a, op, b in predicates)


@dataclass
class Op:
    kind: str
    start: float  # perf_counter at the call
    seconds: float
    ok: bool
    exec_seconds: float = 0.0  # serve_mixed: time inside the service thread


@dataclass
class Round:
    ops: list[Op]
    start: float
    seconds: float
    concurrent: bool = False  # ops overlapped: seconds is the batch's wall time


def _sequential(ops: list[Op]) -> Round:
    """A round whose operations ran one after another: its time is theirs,
    without the harness's checking and calibration between them."""
    return Round(ops, ops[0].start, sum(op.seconds for op in ops))


class Workload:
    name = ""
    execution = "row"
    incremental = False
    # Timed rounds on one session before it is torn down and set up again.
    # A session slows as it ages (check_fd alone: 81 ms -> 116 ms over 240
    # calls), so every sample comes from a session of the same age, and
    # setup_s gets one sample per session.
    rounds_per_session = 4

    def __init__(self, seed: int, scale: str):
        self.seed = seed
        self.size = inputs.SIZES[scale]
        self.tracer: Tracer | None = None  # set by the runner around traced blocks
        self.clock = HostClock()
        self.oracle_s = 0.0
        self.datagen_s = 0.0
        self.expected: dict[str, str] = {}
        self.counts: dict[str, float] = {}

    # -- what the runner calls ------------------------------------------ #
    def prepare(self) -> None:
        """Generate inputs and the oracle's expected digests (harness time)."""
        start = time.perf_counter()
        self._generate()
        self.datagen_s = time.perf_counter() - start
        start = time.perf_counter()
        self._expect()
        self.oracle_s += time.perf_counter() - start

    def setup(self) -> None:
        raise NotImplementedError

    def round(self, index: int) -> Round:
        raise NotImplementedError

    def finish(self) -> list[bool]:
        """End-of-run output checks beyond the per-operation ones."""
        return []

    def teardown(self) -> None:
        raise NotImplementedError

    def sizes(self) -> dict[str, int]:
        raise NotImplementedError

    def pool(self) -> Any:
        return None

    def collectors(self) -> list[Any]:
        """The session's ``MetricsCollector`` objects (counters are read
        from them between rounds)."""
        return []

    def sql_texts(self) -> list[str]:
        return []

    def tables(self) -> dict[str, list]:
        return {}

    # -- helpers --------------------------------------------------------- #
    def _generate(self) -> None:
        raise NotImplementedError

    def _expect(self) -> None:
        raise NotImplementedError

    def _root(self, index: int, kind: str, layer: str = "bench"):
        if self.tracer is None or index < 0:  # untraced, or part of the set-up's op
            return contextlib.nullcontext()
        return self.tracer.root(kind, layer, f"r{index}:{kind}")

    def _op(self, index: int, kind: str, call: Callable[[], Any],
            canon: Callable[[Any], Any] | None) -> Op:
        """Time ``call`` and check its output against ``expected[kind]``."""
        out, error = None, False
        self.clock.tick()
        with self._root(index, kind):
            start = time.perf_counter()
            try:
                out = call()
            except Exception:  # the run goes on; the operation counts as failed
                traceback.print_exc()
                error = True
            seconds = time.perf_counter() - start
        ok = not error and (canon is None or self._matches(kind, canon(out)))
        return Op(kind, start, seconds, ok)

    def _matches(self, key: str, canonical: Any) -> bool:
        start = time.perf_counter()
        ok = oracle.digest(canonical) == self.expected[key]
        self.oracle_s += time.perf_counter() - start
        return ok


# ---------------------------------------------------------------------- #
# warm_row / warm_vectorized / warm_parallel
# ---------------------------------------------------------------------- #
class WarmMix(Workload):
    """fd -> dc -> dedup -> unified -> agg on one warm session."""

    def _generate(self) -> None:
        data = inputs.warm_inputs(self.seed, self.size)
        self._tables, self.cap = data["tables"], data["cap"]

    def _expect(self) -> None:
        t = self._tables
        expected = {
            "fd": oracle.fd(t["lineitem"], ["orderkey"], ["suppkey"]),
            "dc": oracle.dc(
                t["lineitem_dc"],
                (("price", "<", "price"), ("discount", ">", "discount")),
                left_filter=("price", "<", self.cap),
            ),
            "dedup": oracle.dedup(t["dblp"], ["pages", "authors"], ["journal", "title"], 0.8),
            "unified": _tagged({
                "fd1": oracle.fd(t["customer"], ["address"], [lambda r: str(r["phone"])[:3]]),
                "fd2": oracle.fd(t["customer"], ["address"], ["nationkey"]),
                "dedup": oracle.dedup(t["customer"], ["address"], ["address"], 0.5),
            }),
            "agg": oracle.group_count(t["lineitem"], "suppkey", lambda r: r["discount"] > 0.05),
        }
        self.expected = {kind: oracle.digest(items) for kind, items in expected.items()}

    def _calls(self) -> dict[str, tuple[Callable[[], Any], Callable[[Any], Any]]]:
        from repro.datasets.tpch import rule_psi

        db, psi = self.db, rule_psi(self.cap)
        return {
            "fd": (lambda: db.check_fd("lineitem", ["orderkey"], ["suppkey"]), oracle.canon_fd),
            "dc": (lambda: db.check_dc("lineitem_dc", psi), oracle.canon_dc),
            "dedup": (
                lambda: db.deduplicate(
                    "dblp", ["pages", "authors"], block_on=("journal", "title"), theta=0.8
                ),
                oracle.canon_dups,
            ),
            "unified": (lambda: db.execute(UNIFIED_SQL), _canon_unified),
            "agg": (
                lambda: db.execute(AGG_SQL),
                lambda result: oracle.canon_counts(result.branches["query"], "suppkey", "n"),
            ),
        }

    def setup(self) -> None:
        from repro import CleanDB

        self.db = CleanDB(
            execution=self.execution,
            workers=WORKERS if self.execution == "parallel" else None,
        )
        for name, rows in self._tables.items():
            self.db.register_table(name, rows)
        for call, _canon in self._calls().values():  # the untimed warm-up pass
            call()

    def round(self, index: int) -> Round:
        ops = []
        metrics = self.db.cluster.metrics
        for kind, (call, canon) in self._calls().items():
            before = (metrics.comparisons, metrics.verified)
            ops.append(self._op(index, kind, call, canon))
            if kind in ("dc", "dedup"):
                prefix = "dc" if kind == "dc" else "sim"
                self.counts[f"{prefix}_candidates"] = metrics.comparisons - before[0]
                self.counts[f"{prefix}_verified"] = metrics.verified - before[1]
        return _sequential(ops)

    def teardown(self) -> None:
        self.db.close()

    def sizes(self) -> dict[str, int]:
        return {name: len(rows) for name, rows in self._tables.items()}

    def pool(self) -> Any:
        return self.db.cluster.pool if self.execution == "parallel" else None

    def collectors(self) -> list[Any]:
        return [self.db.cluster.metrics]

    def sql_texts(self) -> list[str]:
        return [UNIFIED_SQL, AGG_SQL]

    def tables(self) -> dict[str, list]:
        return self._tables


def _tagged(branches: dict[str, set]) -> set:
    return {(name, item) for name, items in branches.items() for item in items}


def _canon_unified(result: Any) -> set:
    b = result.branches
    return _tagged({
        "fd1": oracle.canon_fd_branch(b["fd1"], "p0"),
        "fd2": oracle.canon_fd_branch(b["fd2"], "p1"),
        "dedup": oracle.canon_dup_branch(b["dedup"]),
    })


class WarmRow(WarmMix):
    name = "warm_row"
    execution = "row"


class WarmVectorized(WarmMix):
    name = "warm_vectorized"
    execution = "vectorized"


class WarmParallel(WarmMix):
    name = "warm_parallel"
    execution = "parallel"


# ---------------------------------------------------------------------- #
# delta_stream
# ---------------------------------------------------------------------- #
class DeltaStream(Workload):
    name = "delta_stream"
    execution = "parallel"
    incremental = True
    rounds_per_session = 25

    def _generate(self) -> None:
        self._base = inputs.delta_inputs(self.seed, self.size)

    def _expect(self) -> None:
        pass  # the oracle runs over the post-delta tables, in finish()

    def _checks(self) -> dict[str, tuple[Callable[[], Any], Callable[[Any], Any]]]:
        db, rule = self.db, dc_rule(DELTA_DC)
        return {
            "fd": (lambda: db.check_fd("fd", ["addr"], ["nation"]), oracle.canon_fd),
            "dc": (lambda: db.check_dc("dc", rule), oracle.canon_dc),
            "dedup": (
                lambda: db.deduplicate("dedup", ["name"], theta=0.9, block_on="city"),
                oracle.canon_dups,
            ),
        }

    def setup(self) -> None:
        from repro import CleanDB

        self.db = CleanDB(execution="parallel", workers=WORKERS, incremental=True)
        # The harness keeps its own copy of every table and applies the
        # same deltas to it: the oracle never reads the program's state.
        self.mirror = {name: list(rows) for name, rows in self._base.items()}
        self.next_index = {name: len(rows) for name, rows in self._base.items()}
        self.rng = random.Random(self.seed)
        self.writes = 0
        self.last: dict[str, Any] = {}
        for name, rows in self._base.items():
            self.db.register_table(name, rows)
        for call, _canon in self._checks().values():  # one cold check of each
            call()

    def _write(self) -> None:
        """0.1 % of each table: appends and updates alternate."""
        append, self.writes = self.writes % 2 == 0, self.writes + 1
        for name, factory in inputs.DELTA_ROWS.items():
            mirror = self.mirror[name]
            count = max(1, len(self._base[name]) // 1000)
            fresh = [factory(self.next_index[name] + j) for j in range(count)]
            self.next_index[name] += count
            if append:
                for row in fresh:
                    row["_rid"] = len(mirror)
                    mirror.append(row)
                self.db.append_rows(name, fresh[:])
            else:
                rids = self.rng.sample(range(len(mirror)), count)
                updates = {rid: {**row, "_rid": rid} for rid, row in zip(rids, fresh)}
                for rid, row in updates.items():
                    mirror[rid] = row
                self.db.update_rows(name, updates)

    def round(self, index: int) -> Round:
        ops = [self._op(index, "write", self._write, None)]
        for kind, (call, _canon) in self._checks().items():
            def keep(kind=kind, call=call):
                self.last[kind] = call()
            ops.append(self._op(index, kind, keep, None))
        return _sequential(ops)

    def finish(self) -> list[bool]:
        start = time.perf_counter()
        m = self.mirror
        expected = {
            "fd": oracle.fd(m["fd"], ["addr"], ["nation"]),
            "dc": oracle.dc(m["dc"], DELTA_DC),
            "dedup": oracle.dedup(m["dedup"], ["name"], ["city"], 0.9),
        }
        self.expected = {kind: oracle.digest(items) for kind, items in expected.items()}
        self.oracle_s += time.perf_counter() - start
        checks = self._checks()
        return [
            kind in self.last and self._matches(kind, checks[kind][1](self.last[kind]))
            for kind in expected
        ]

    def teardown(self) -> None:
        self.db.close()

    def sizes(self) -> dict[str, int]:
        return {name: len(rows) for name, rows in self._base.items()}

    def pool(self) -> Any:
        return self.db.cluster.pool

    def collectors(self) -> list[Any]:
        return [self.db.cluster.metrics]

    def tables(self) -> dict[str, list]:
        return self._base


# ---------------------------------------------------------------------- #
# serve_mixed
# ---------------------------------------------------------------------- #
class ServeMixed(Workload):
    name = "serve_mixed"
    execution = "parallel"
    rounds_per_session = 3

    SPECS = {
        "fd": {"op": "fd", "table": "customer", "lhs": ["address"], "rhs": ["phone"]},
        "sql": {"op": "sql", "text": SERVE_SQL},
        "dc": {"op": "dc", "table": "customer", "rule": dc_rule(SERVE_DC)},
        "dedup": {
            "op": "dedup", "table": "customer", "attributes": ["name", "phone"],
            "theta": 0.7, "block_on": ["address"],
        },
    }
    CANON = {
        "fd": oracle.canon_fd,
        "sql": lambda branches: oracle.canon_counts(branches["query"], "nationkey", "n"),
        "dc": oracle.canon_dc_symmetric,
        "dedup": oracle.canon_dups,
    }

    def _generate(self) -> None:
        self._tenants = inputs.serve_inputs(self.seed, self.size)

    def _expect(self) -> None:
        for tenant, rows in self._tenants.items():
            expected = {
                "fd": oracle.fd(rows, ["address"], ["phone"]),
                "sql": oracle.group_count(rows, "nationkey", lambda r: r["custkey"] > 100),
                "dc": oracle.dc(rows, SERVE_DC),
                "dedup": oracle.dedup(rows, ["name", "phone"], ["address"], 0.7),
            }
            for kind, items in expected.items():
                self.expected[f"{tenant}:{kind}"] = oracle.digest(items)

    def setup(self) -> None:
        from repro.serving import CleanService

        self.loop = asyncio.new_event_loop()
        self.service = CleanService(workers=WORKERS)
        for tenant, rows in self._tenants.items():
            self.service.register_table(tenant, "customer", rows)
        self.rng = random.Random(self.seed)
        # The untimed warm-up: each kind of query once per tenant, one
        # tenant after the other so that the set-up's spans do not overlap.
        for tenant in self._tenants:
            self._batch(-1, {tenant: list(self.SPECS)})

    async def _client(self, index: int, tenant: str, order: list[str], sink: list) -> None:
        for n, kind in enumerate(order):
            with self._root(index, f"{tenant}:{kind}:{n}", layer="serving"):
                start = time.perf_counter()
                outcome = await self.service.submit(tenant, self.SPECS[kind])
                seconds = time.perf_counter() - start
            sink.append((tenant, kind, start, seconds, outcome))

    def round(self, index: int) -> Round:
        orders = {t: self.rng.sample(SERVE_MIX, len(SERVE_MIX)) for t in self._tenants}
        return self._batch(index, orders)

    def _batch(self, index: int, orders: dict[str, list[str]]) -> Round:
        """One closed-loop client per tenant, each sending its ``orders``."""
        sink: list = []

        async def batch() -> None:
            await asyncio.gather(
                *(self._client(index, t, order, sink) for t, order in orders.items())
            )

        self.clock.tick()
        start = time.perf_counter()
        self.loop.run_until_complete(batch())
        wall = time.perf_counter() - start
        ops = []
        for tenant, kind, op_start, seconds, outcome in sink:
            ok = outcome.ok and self._matches(f"{tenant}:{kind}", self.CANON[kind](outcome.rows))
            if not outcome.ok:
                print(f"serve_mixed: {tenant}/{kind}: {outcome.error}", file=sys.stderr)
            ops.append(Op(kind, op_start, seconds, ok, outcome.latency_seconds))
        return Round(ops, start, wall, concurrent=True)

    def teardown(self) -> None:
        self.service.close()
        self.loop.run_until_complete(self.loop.shutdown_default_executor())
        self.loop.close()

    def sizes(self) -> dict[str, int]:
        return {tenant: len(rows) for tenant, rows in self._tenants.items()}

    def pool(self) -> Any:
        return self.service.pool

    def collectors(self) -> list[Any]:
        return [self.service.session(t).db.cluster.metrics for t in self._tenants]

    def sql_texts(self) -> list[str]:
        return [SERVE_SQL]

    def tables(self) -> dict[str, list]:
        return {"customer": next(iter(self._tenants.values()))}


# ---------------------------------------------------------------------- #
# cold_cli
# ---------------------------------------------------------------------- #
class ColdCli(Workload):
    name = "cold_cli"
    rounds_per_session = 3
    ROWS_LINE = re.compile(r"-- branch 'fd1': (\d+) rows --")

    def _generate(self) -> None:
        self._rows = inputs.cold_inputs(self.seed, self.size)
        self.work_dir = OUT_DIR / "work"
        self.csv_path = self.work_dir / f"lineitem-{self.seed}.csv"
        # Relative to the checkout so that the table spec has no ':' of its own.
        spec_path = os.path.relpath(self.csv_path, REPO_ROOT)
        schema = ",".join(f"{name}:{kind}" for name, kind in inputs.LINEITEM_FIELDS)
        spec = f"lineitem={spec_path}:csv:{schema}"
        self.commands = {
            "cold_start": ["formats"],
            "cold_query": ["query", "--table", spec, COLD_SQL],
            "cold_pool_query": [
                "query", "--table", spec, "--execution", "parallel",
                "--workers", str(WORKERS), COLD_SQL,
            ],
        }
        self.env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(REPO_ROOT / "src"), str(REPO_ROOT)]
        )}

    def _expect(self) -> None:
        self.expected_rows = len(oracle.fd(self._rows, ["orderkey"], ["suppkey"]))

    def setup(self) -> None:
        from repro.sources import Field, Schema, write_records

        self.work_dir.mkdir(parents=True, exist_ok=True)
        schema = Schema(tuple(Field(n, k) for n, k in inputs.LINEITEM_FIELDS))
        write_records(self.csv_path, self._rows, "csv", schema)
        self._launch(-1, "cold_start")  # primes the interpreter's bytecode cache

    def _launch(self, index: int, kind: str) -> Op:
        argv = self.commands[kind]
        if self.tracer is None:
            command = [sys.executable, "-m", "repro", *argv]
        else:
            spans_path = self.work_dir / f"spans-{self.seed}.json"
            command = [sys.executable, "-m", "bench.trace", str(spans_path), *argv]
        self.clock.tick()
        start = time.perf_counter()
        done = subprocess.run(command, cwd=REPO_ROOT, env=self.env, capture_output=True, text=True)
        seconds = time.perf_counter() - start
        ok = done.returncode == 0
        if ok and kind != "cold_start":
            match = self.ROWS_LINE.search(done.stdout)
            ok = match is not None and int(match.group(1)) == self.expected_rows
        if not ok:
            print(f"cold_cli: {kind} failed:\n{done.stdout[-500:]}\n{done.stderr[-2000:]}",
                  file=sys.stderr)
        if self.tracer is not None and done.returncode == 0:
            self._adopt_spans(spans_path, f"r{index}:{kind}")
        return Op(kind, start, seconds, ok)

    def _adopt_spans(self, path: Path, op: str) -> None:
        """Merge the child's spans; ids are renumbered past this process's."""
        with open(path, encoding="utf-8") as handle:
            spans = spans_from_chrome(json.load(handle))
        base = max((s.id for s in self.tracer.spans), default=0) + 1_000_000
        for span in spans:
            span.id += base
            span.parent = span.parent + base if span.parent is not None else None
            span.op = op
        self.tracer.spans.extend(spans)

    def round(self, index: int) -> Round:
        return _sequential([self._launch(index, kind) for kind in self.commands])

    def teardown(self) -> None:
        for path in self.work_dir.glob(f"*-{self.seed}.*"):
            path.unlink()

    def sizes(self) -> dict[str, int]:
        return {"lineitem_csv": len(self._rows)}

    def sql_texts(self) -> list[str]:
        return [COLD_SQL]

    def tables(self) -> dict[str, list]:
        return {"lineitem": self._rows}


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (WarmRow, WarmVectorized, WarmParallel, DeltaStream, ServeMixed, ColdCli)
}
