"""Command-line interface: run CleanM queries over data files.

Usage::

    python -m repro explain --table customer=data.csv:csv:name:str,phone:str "SELECT ..."
    python -m repro query   --table customer=data.json:json "SELECT ..."
    python -m repro dc      --table lineitem=data.csv:csv:... \\
        --rule "t1.price < t2.price and t1.discount > t2.discount" \\
        --where "t1.price < 1000" --dc-strategy banded --repair
    python -m repro formats

Table specs take the form ``NAME=PATH:FORMAT[:SCHEMA]`` where SCHEMA is a
comma-separated ``field:type`` list (required for csv/columnar).  Query
results print as text tables; cleaning branches print one block each.

The ``dc`` command checks (and with ``--repair`` repairs) a general
denial constraint: ``--rule`` is the cross-tuple conjunction, ``--where``
the optional single-tuple filters, ``--dc-strategy`` the physical plan
(``banded``/``matrix``/``cartesian``/``minmax``), and ``--execution``
picks the backend the banded kernel runs on.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from typing import TYPE_CHECKING, Any, Callable, Sequence

from .errors import DataSourceError, ParseError, ReproError
from .evaluation.reporting import format_table
from .sources.catalog import FORMATS, Catalog

if TYPE_CHECKING:
    from .sources.schema import Schema

# The compiler and the engine are imported by the command that needs them.


def parse_table_spec(spec: str) -> tuple[str, str, str, Schema | None]:
    """``name=path:fmt[:a:int,b:str]`` → (name, path, fmt, schema)."""
    from .sources.schema import Field, Schema

    if "=" not in spec:
        raise ValueError(f"table spec {spec!r} must look like NAME=PATH:FORMAT")
    name, rest = spec.split("=", 1)
    parts = rest.split(":", 2)
    if len(parts) < 2:
        raise ValueError(f"table spec {spec!r} is missing a format")
    path, fmt = parts[0], parts[1]
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}; known: {', '.join(FORMATS)}")
    schema = None
    if len(parts) == 3 and parts[2]:
        fields = []
        tokens = parts[2].split(",")
        for token in tokens:
            if ":" not in token:
                raise ValueError(f"schema entry {token!r} must be field:type")
            fname, ftype = token.split(":", 1)
            fields.append(Field(fname.strip(), ftype.strip()))
        schema = Schema(tuple(fields))
    return name, path, fmt, schema


def load_tables(specs: Sequence[str], register: Callable[..., None]) -> None:
    """Read each spec's file and hand its rows over: ``register(name, rows,
    fmt=)`` gets the reader's own rows, each stamped in place with its position."""
    from .cleaning.rowid import own_rids

    catalog = Catalog()
    for spec in specs:
        name, path, fmt, schema = parse_table_spec(spec)
        catalog.register(name, path, fmt, schema)
        register(name, own_rids(catalog.load(name)), fmt=fmt)


def _read_query(sql: str | None) -> str | None:
    """A query argument's text: as given, or the file ``@PATH`` names."""
    if sql is None or not sql.startswith("@"):
        return sql
    try:
        with open(sql[1:], encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        why = DataSourceError.undecodable(sql[1:]) if isinstance(exc, UnicodeDecodeError) else exc
        raise DataSourceError(f"cannot read query {sql[1:]}: {why}") from None


def _print_branch(name: str, rows: list[Any]) -> None:
    print(f"\n-- branch {name!r}: {len(rows)} rows --")
    display: list[dict] = []
    for row in rows[:50]:
        if isinstance(row, dict):
            display.append({k: _short(v) for k, v in row.items()})
        else:
            display.append({"value": _short(row)})
    if display:
        print(format_table(name, display))
    if len(rows) > 50:
        print(f"... {len(rows) - 50} more rows")


def _short(value: Any) -> str:
    text = repr(value) if not isinstance(value, str) else value
    return text if len(text) <= 60 else text[:57] + "..."


def _error_line(exc: Exception) -> str:
    """``error: [location: ]message`` — the location an input error carries."""
    where = getattr(exc, "location", "")
    return f"error: {where}: {exc}" if where else f"error: {exc}"


def _print_error(exc: Exception, sources: dict[str, str]) -> None:
    """The CLI's error contract: an ``error: ...`` summary line, then — for
    analyzable failures — the caret-annotated diagnostics underneath."""
    from .core.semantics import DiagnosticsError, parse_error_diagnostic, render_diagnostics

    print(_error_line(exc), file=sys.stderr)
    if isinstance(exc, DiagnosticsError):
        print(render_diagnostics(exc.diagnostics, sources), file=sys.stderr)
    elif isinstance(exc, ParseError):
        diag = parse_error_diagnostic(exc, source=sources.get("query", ""))
        print(render_diagnostics([diag], sources), file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CleanM/CleanDB: query and clean heterogeneous data",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    tables = argparse.ArgumentParser(add_help=False)  # query, explain, dc and check
    tables.add_argument("--table", action="append", default=[],
                        metavar="NAME=PATH:FORMAT[:SCHEMA]",
                        help="register a data source (repeatable)")

    for cmd, help_text in (
        ("query", "execute a CleanM query and print every branch"),
        ("explain", "show the three-level optimization of a query"),
    ):
        p = sub.add_parser(cmd, help=help_text, parents=[tables])
        p.add_argument("--nodes", type=int, default=10, help="simulated cluster size")
        p.add_argument("--budget", type=float, default=None, help="execution budget")
        p.add_argument(
            "--execution",
            choices=("row", "vectorized", "parallel"),
            default="row",
            help=(
                "physical backend: per-row environments, column batches, or "
                "real multi-process workers"
            ),
        )
        p.add_argument(
            "--workers",
            type=int,
            default=None,
            metavar="N",
            help=(
                "worker processes for --execution parallel "
                "(clamped to --nodes; default: a small pool)"
            ),
        )
        p.add_argument("--no-coalesce", action="store_true", help="disable §5 rewrites")
        p.add_argument(
            "--no-sim-filters",
            action="store_true",
            help=(
                "disable the similarity kernel's candidate pruning "
                "(banded edit-distance); results are identical, only slower"
            ),
        )
        p.add_argument("--metrics", action="store_true", help="print execution metrics")
        p.add_argument("sql", help="the CleanM query text (or @file to read one)")

    dc = sub.add_parser(
        "dc", help="check (and optionally repair) a general denial constraint", parents=[tables]
    )
    dc.add_argument(
        "--on",
        default=None,
        metavar="NAME",
        help="table to check (defaults to the only registered table)",
    )
    dc.add_argument(
        "--rule",
        required=True,
        metavar="'t1.a OP t2.b and ...'",
        help="cross-tuple predicate conjunction of the constraint",
    )
    dc.add_argument(
        "--where",
        default="",
        metavar="'t1.a OP CONST and ...'",
        help="single-tuple filters on t1 (e.g. rule psi's price cap)",
    )
    dc.add_argument(
        "--dc-strategy",
        choices=("banded", "matrix", "cartesian", "minmax"),
        default="banded",
        help="physical DC plan (banded = equality prefix + sorted range scan)",
    )
    dc.add_argument(
        "--execution",
        choices=("row", "vectorized", "parallel"),
        default="row",
        help="backend the banded kernel runs on",
    )
    dc.add_argument("--workers", type=int, default=None, metavar="N",
                    help="worker processes for --execution parallel")
    dc.add_argument("--nodes", type=int, default=10, help="simulated cluster size")
    dc.add_argument("--budget", type=float, default=None, help="execution budget")
    dc.add_argument(
        "--repair",
        action="store_true",
        help="repair the violations by relaxation and report the changes",
    )
    dc.add_argument("--metrics", action="store_true", help="print execution metrics")

    serve = sub.add_parser(
        "serve",
        help=(
            "run a multi-tenant workload: N concurrent cleaning queries "
            "over one shared worker pool"
        ),
    )
    serve.add_argument(
        "--table",
        action="append",
        default=[],
        metavar="[TENANT/]NAME=PATH:FORMAT[:SCHEMA]",
        help=(
            "register a data source in a tenant's namespace (repeatable; "
            "no TENANT/ prefix registers under the 'default' tenant)"
        ),
    )
    serve.add_argument(
        "--workload",
        required=True,
        metavar="FILE.json",
        help=(
            "JSON workload: a list of query specs, each with 'tenant', "
            "'op' (fd/dedup/dc/sql) and the op's fields — or an object "
            "{'queries': [...], 'budgets': {tenant: cost}}"
        ),
    )
    serve.add_argument("--workers", type=int, default=None, metavar="N",
                       help="worker processes in the shared pool")
    serve.add_argument("--nodes", type=int, default=10,
                       help="simulated cluster size per tenant session")
    serve.add_argument(
        "--store-cap",
        type=int,
        default=None,
        metavar="BYTES",
        help=(
            "cap on the shared store's pinned bytes; past it, idle "
            "tenants' LRU tables are unpinned (they re-pin on next use)"
        ),
    )
    serve.add_argument(
        "--sequential",
        action="store_true",
        help="admit queries one at a time (the serial baseline)",
    )
    serve.add_argument("--metrics", action="store_true",
                       help="print per-query metrics")

    check = sub.add_parser(
        "check",
        help=(
            "statically analyze a CleanM query and/or DC rule without "
            "executing anything; exit 1 on any error diagnostic"
        ),
        parents=[tables],
    )
    check.add_argument(
        "--rule",
        default=None,
        metavar="'t1.a OP t2.b and ...'",
        help="also analyze this denial-constraint rule",
    )
    check.add_argument(
        "--where",
        default="",
        metavar="'t1.a OP CONST and ...'",
        help="the rule's single-tuple filters",
    )
    check.add_argument(
        "--on",
        default=None,
        metavar="NAME",
        help="table the rule targets (defaults to the only registered table)",
    )
    check.add_argument(
        "--execution",
        choices=("row", "vectorized", "parallel"),
        default="row",
        help=(
            "backend to analyze for (parallel additionally checks task-"
            "closure shippability); nothing executes either way"
        ),
    )
    check.add_argument(
        "sql",
        nargs="?",
        default=None,
        help="the CleanM query text (or @file to read one)",
    )

    sub.add_parser("formats", help="list supported storage formats")
    return parser


def run_check(args: Any) -> int:
    """The ``check`` subcommand: static analysis only, no execution.

    Prints every diagnostic with its caret-annotated source span; exit 1
    iff any is an error.  The CleanDB stays on the row backend (no worker
    pool spawns) — ``--execution`` only parameterizes the analysis.
    """
    from ._records import replace

    from .core.language import CleanDB
    from .core.semantics import errors_in, render_diagnostics

    if args.sql is None and args.rule is None:
        print("error: pass a query, --rule, or both", file=sys.stderr)
        return 1
    sql, db = args.sql, CleanDB()
    try:
        sql = _read_query(sql)
        load_tables(args.table, db.register_table)
        if args.rule is not None:
            db.rule_table(args.on)  # an unresolvable table fails as in `repro dc`
        # Analyze for the requested backend without ever creating it: the
        # config flip happens after registration, so no table pins and no
        # worker pool — check must stay side-effect free.
        db.config = replace(db.config, execution=args.execution)
        diags = db.check(sql, rule=args.rule, where=args.where, on=args.on)
    except (ReproError, ValueError, OSError) as exc:
        print(_error_line(exc), file=sys.stderr)
        return 1
    finally:
        db.close()

    sources = {"query": sql or "", "rule": args.rule or "", "where": args.where}
    if not diags:
        print("ok: no diagnostics")
        return 0
    print(render_diagnostics(diags, sources))
    errors = errors_in(diags)
    print(f"-- {len(diags)} diagnostic(s), {len(errors)} error(s) --")
    return 1 if errors else 0


def run_dc(args: Any) -> int:
    """The ``dc`` subcommand: check the rule (``CleanDB.check_dc`` analyzes
    and parses it), optionally repair."""
    import math

    from .core.language import CleanDB
    from .core.semantics import DiagnosticsError, render_diagnostics

    try:
        with CleanDB(
            num_nodes=args.nodes,
            budget=args.budget if args.budget is not None else math.inf,
            execution=args.execution,
            workers=args.workers,
            dc_strategy=args.dc_strategy,
        ) as db:
            load_tables(args.table, db.register_table)
            table = db.rule_table(args.on)
            if table is None:
                raise ValueError("no table registered: pass --table NAME=PATH:FORMAT[:SCHEMA]")
            violations = db.check_dc(table, args.rule, where=args.where)
            print(f"-- {len(violations)} violating pairs ({args.dc_strategy}) --")
            for t1, t2 in violations[:20]:
                print(f"  t1={_short(t1)}  t2={_short(t2)}")
            if len(violations) > 20:
                print(f"  ... {len(violations) - 20} more pairs")
            if args.repair:
                report = db.repair_dc(table, args.rule, violations=violations, where=args.where)
                print("\n-- repair by relaxation --")
                print(f"  cover cells:         {report.cover_size}")
                print(f"  cells changed:       {report.cells_changed}")
                print(f"  cells nulled:        {report.cells_nulled}")
                print(f"  rounds:              {report.rounds}")
                print(f"  residual violations: {report.residual_violations}")
            if args.metrics:
                import json

                print("\n-- metrics --")
                print(json.dumps(db.cluster.metrics.summary(), indent=2, sort_keys=True))
    except DiagnosticsError as exc:
        # A malformed or unsatisfiable rule exits with caret-annotated
        # diagnostics instead of a parser traceback.
        print(f"error: {exc.diagnostics[0].message}", file=sys.stderr)
        sources = {"rule": args.rule, "where": args.where}
        print(render_diagnostics(exc.diagnostics, sources), file=sys.stderr)
        return 1
    except BrokenPipeError:  # the reader left early: ``main`` reports it
        raise
    except (ReproError, ValueError, OSError) as exc:
        print(_error_line(exc), file=sys.stderr)
        return 1
    return 0


def run_serve(args: Any) -> int:
    """The ``serve`` subcommand: drive a multi-tenant workload against one
    shared worker pool and report per-query outcomes plus a latency
    summary.  Exit code 0 iff every query finished ok."""
    import json

    from .serving import CleanService

    try:
        with open(args.workload, "r", encoding="utf-8") as handle:
            workload = json.load(handle)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read workload: {exc}", file=sys.stderr)
        return 1
    if isinstance(workload, dict):
        queries = workload.get("queries", [])
        budgets = workload.get("budgets", {})
    else:
        queries, budgets = workload, {}
    if not isinstance(queries, list) or not all(
        isinstance(q, dict) for q in queries
    ):
        print("error: workload queries must be a list of objects", file=sys.stderr)
        return 1

    service = CleanService(
        workers=args.workers,
        num_nodes=args.nodes,
        store_bytes_cap=args.store_cap,
    )
    try:
        for tenant, budget in budgets.items():
            service.session(tenant, budget=float(budget))
        def register(name: str, rows: list[Any], fmt: str) -> None:
            tenant, _, table = name.rpartition("/")
            service.register_table(tenant or "default", table, rows, fmt=fmt)

        load_tables(args.table, register)
        report = service.run_queries(queries, sequential=args.sequential)
    except (ReproError, ValueError, OSError) as exc:
        print(_error_line(exc), file=sys.stderr)
        return 1
    finally:
        service.close()

    for i, outcome in enumerate(report.outcomes):
        line = (
            f"[{i}] {outcome.tenant}/{outcome.op}: {outcome.status} "
            f"({outcome.latency_seconds * 1000:.1f} ms)"
        )
        if outcome.ok and isinstance(outcome.rows, list):
            line += f" -> {len(outcome.rows)} rows"
        if outcome.recovered:
            line += f" [recovered, {outcome.retries} retries]"
        if outcome.degraded:
            line += " [degraded to row backend]"
        if not outcome.ok:
            line += f" -- {outcome.error}"
        print(line)
        if args.metrics and outcome.ok:
            print(json.dumps(outcome.metrics, indent=2, sort_keys=True))
    summary = report.summary()
    print(
        f"-- {len(report.outcomes)} queries in {summary['elapsed_seconds']:.3f}s: "
        f"{summary['throughput_qps']:.1f} q/s, "
        f"p50 {summary['p50_seconds'] * 1000:.1f} ms, "
        f"p99 {summary['p99_seconds'] * 1000:.1f} ms, "
        f"{report.recovered_count} recovered / {report.degraded_count} degraded, "
        f"{report.total_retries} retries --"
    )
    return 0 if report.all_ok else 1


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = _run(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:  # the reader left early: ``repro query ... | head``
        # Python's SIGPIPE note: stdout to devnull, so the flush at exit cannot fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


def _run(args: Any) -> int:
    if args.command == "formats":
        print("\n".join(FORMATS))
        return 0
    if args.command == "serve":  # a service runs many operations: the host's setting
        return run_serve(args)
    from .engine.gcpause import collector_paused

    thaw = not gc.get_freeze_count()  # a host's own frozen objects stay as they are
    with collector_paused():  # any other launch is one operation
        code = {"dc": run_dc, "check": run_check}.get(args.command, run_query)(args)
        if thaw:  # the young generation empties: re-enabling starts no pass over the launch
            gc.freeze()
    if thaw:
        gc.unfreeze()
    return code


def run_query(args: Any) -> int:
    """The ``query`` and ``explain`` subcommands."""
    import math

    from .core.language import CleanDB

    sql = args.sql
    try:
        sql = _read_query(sql)
        with CleanDB(
            num_nodes=args.nodes,
            budget=args.budget if args.budget is not None else math.inf,
            execution=args.execution,
            workers=args.workers,
            coalesce=not args.no_coalesce,
            sim_filters=not args.no_sim_filters,
        ) as db:
            load_tables(args.table, db.register_table)
            result = db.explain(sql) if args.command == "explain" else db.execute(sql)
    except (ReproError, ValueError, OSError) as exc:
        _print_error(exc, {"query": sql})
        return 1

    if args.command == "explain":
        print(result)
        return 0
    for name, rows in result.branches.items():
        _print_branch(name, rows)
    if args.metrics:
        import json

        print("\n-- metrics --")
        print(json.dumps(result.metrics, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
