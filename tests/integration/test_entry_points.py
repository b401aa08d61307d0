"""Every way to ask for a cleaning check answers a bad argument alike.

One 12-row table ``t(k, v, name, city)``.  The rows of the matrix are the
entry points: ``CleanDB.check_fd`` / ``deduplicate`` / ``check_dc`` /
``repair_dc`` (the DC ones with rule text and with a built
``DenialConstraint``), ``CleanDB.check(rule=)``, ``repro dc``, ``repro
check --rule``, the served ``fd`` / ``dedup`` / ``dc`` specs on a 2-worker
``CleanService``, and the FD / DEDUP query.  Its columns are inputs: an
unknown FD attribute, dedup attribute or block key, an unknown DC attribute
as rule text and as a ``DenialConstraint``, a DC predicate comparing a
string column with a number column, a dedup ``theta`` outside [0, 1] or
unknown ``metric``, and a valid input.

A bad input gets the same CM code at every entry point that can spell it —
the code its query spelling gets, for the FD and dedup ones — and a served
spec reports it as ``status == "error"`` with the code in ``error``.  Once
only query and rule text reached the analyzer: the API and served calls
answered a typo with wrong rows (an FD violation from a column of Nones,
duplicate pairs from one block of Nones, no DC pairs, no pairs at theta
1.5 and all 34 at -0.5), a built ill-typed constraint died with a raw
``TypeError`` in the DC kernel and an unknown metric with a plain
``ValueError``.  A
valid input gets the answer frozen below at every entry point.
"""

from __future__ import annotations

import re

import pytest

from fixtures import WORKERS
from repro import CleanDB
from repro.cleaning.dc_kernel import DenialConstraint, TuplePredicate, parse_dc
from repro.cli import main
from repro.core.semantics import DiagnosticsError, errors_in
from repro.serving import CleanService
from repro.sources import Schema, write_records

NAMES = ("ann lee", "anne lee", "bob ray", "bob rey")
ROWS = [{"k": i % 4, "v": i % 3, "name": NAMES[i % 4], "city": f"c{i % 3}"} for i in range(12)]
SCHEMA = "k:int,v:int,name:str,city:str"

VALID_RULE, VALID_WHERE = "t1.k == t2.k and t1.v < t2.v", "t1.v <= 1"

#: Each input's spellings, by what an entry point takes, and the code a bad
#: one gets (``None``: valid).
CASES = {
    "unknown FD attribute": {
        "code": "CM102",
        "fd": (["nosuch"], ["v"]),
        "query": "SELECT * FROM t x FD(x.nosuch, x.v)",
    },
    "unknown dedup attribute": {
        "code": "CM102",
        "dedup": (["nosuch"], "city", {}),
        "query": "SELECT * FROM t x DEDUP(exact, LD, 0.8, x.nosuch)",
    },
    "unknown block key": {"code": "CM102", "dedup": (["name"], "nosuch", {})},
    "dedup theta above 1": {
        "code": "CM202",
        "dedup": (["name"], "city", {"theta": 1.5}),
        "query": "SELECT * FROM t x DEDUP(exact, LD, 1.5, x.name)",
    },
    # A query cannot spell a negative number.
    "dedup theta below 0": {"code": "CM202", "dedup": (["name"], "city", {"theta": -0.5})},
    "unknown dedup metric": {
        "code": "CM203",
        "dedup": (["name"], "city", {"metric": "nosuch"}),
        "query": "SELECT * FROM t x DEDUP(exact, nosuch, 0.8, x.name)",
    },
    "unknown DC attribute as text": {"code": "CM302", "rule": ("t1.nosuch < t2.v", "")},
    "unknown DC attribute as object": {
        "code": "CM302",
        "constraint": DenialConstraint((TuplePredicate("nosuch", "<", "v"),)),
    },
    "str-vs-num DC predicate": {
        "code": "CM303",
        "rule": ("t1.name < t2.v", ""),
        "constraint": parse_dc("t1.name < t2.v"),
    },
    "valid": {
        "code": None,
        "fd": (["k"], ["v"]),
        "dedup": (["name"], "city", {}),
        "rule": (VALID_RULE, VALID_WHERE),
        "constraint": parse_dc(VALID_RULE, VALID_WHERE),
        "query": "SELECT * FROM t x FD(x.k, x.v)",
    },
}


def codes_in(text: str) -> list[str]:
    return sorted(set(re.findall(r"error\[(CM\d{3})\]", text)))


def fd_answer(violations) -> list:
    return sorted((v.key, sorted(v.rhs_values)) for v in violations)


def dc_answer(pairs) -> list:
    return sorted((a["_rid"], b["_rid"]) for a, b in pairs)


def dedup_answer(pairs) -> list:
    return sorted((p.left_id, p.right_id) for p in pairs)


def session() -> CleanDB:
    db = CleanDB(num_nodes=3)
    db.register_table("t", [dict(row) for row in ROWS])
    return db


def api(call, canon):
    """An entry point that raises :class:`DiagnosticsError`: its codes, or
    its canonical answer."""
    def run(ctx, spelling):
        with session() as db:
            try:
                answer = call(db, spelling)
            except DiagnosticsError as exc:
                return sorted({d.code for d in exc.diagnostics}), None
        return [], canon(answer)
    return run


def repair_answer(report) -> tuple:
    return (
        report.violations_found, report.cells_changed, report.cells_nulled,
        report.residual_violations,
    )


def check_rule(ctx, rule):
    with session() as db:
        diags = db.check(rule=rule[0], where=rule[1])
    codes = sorted({d.code for d in errors_in(diags)})
    return (codes, None) if codes else ([], [str(d) for d in diags])


def cli(command):
    def run(ctx, rule):
        argv = [command, "--table", ctx["table"], "--rule", rule[0], "--where", rule[1]]
        code = main(argv)
        out, err = ctx["capsys"].readouterr()
        if code:
            return codes_in(out + err), None
        return [], out.splitlines()[0]
    return run


def served(op, build, canon):
    def run(ctx, spelling):
        (outcome,) = ctx["service"].run_queries(
            [{"tenant": "acme", "op": op, "table": "t", **build(spelling)}]
        ).outcomes
        if outcome.status == "error":
            return codes_in(outcome.error), None
        assert outcome.status == "ok", outcome
        return [], canon(outcome.rows)
    return run


def query(ctx, sql):
    with session() as db:
        try:
            branches = db.execute(sql).branches
        except DiagnosticsError as exc:
            return sorted({d.code for d in exc.diagnostics}), None
    return [], sorted(row["key"] for row in branches["fd1"])


#: entry point -> (the spelling it takes, how it is asked).
ENTRIES = {
    "CleanDB.check_fd": ("fd", api(lambda db, s: db.check_fd("t", *s), fd_answer)),
    "CleanDB.deduplicate": (
        "dedup",
        api(lambda db, s: db.deduplicate("t", s[0], block_on=s[1], **s[2]), dedup_answer),
    ),
    "CleanDB.check_dc(text)": (
        "rule", api(lambda db, s: db.check_dc("t", s[0], where=s[1]), dc_answer),
    ),
    "CleanDB.check_dc(object)": ("constraint", api(lambda db, s: db.check_dc("t", s), dc_answer)),
    "CleanDB.repair_dc(text)": (
        "rule", api(lambda db, s: db.repair_dc("t", s[0], where=s[1]), repair_answer),
    ),
    "CleanDB.repair_dc(object)": (
        "constraint", api(lambda db, s: db.repair_dc("t", s), repair_answer),
    ),
    "CleanDB.check(rule=)": ("rule", check_rule),
    "repro dc": ("rule", cli("dc")),
    "repro check --rule": ("rule", cli("check")),
    "served fd": ("fd", served("fd", lambda s: {"lhs": s[0], "rhs": s[1]}, fd_answer)),
    "served dedup": (
        "dedup",
        served("dedup", lambda s: {"attributes": s[0], "block_on": s[1], **s[2]}, dedup_answer),
    ),
    "served dc": ("rule", served("dc", lambda s: {"rule": s[0], "where": s[1]}, dc_answer)),
    "FD/DEDUP query": ("query", query),
}

#: What every entry point answered on the valid input before the analyzer
#: saw the API's arguments (the API's DC ones, given the rule parsed with
#: its filters, as they took it then).
FD_KEYS = [(k, [0, 1, 2]) for k in range(4)]
DUP_IDS = [(0, 9), (1, 4), (2, 11), (3, 6), (5, 8), (7, 10)]
DC_PAIRS = [
    (0, 4), (0, 8), (1, 5), (3, 7), (3, 11), (4, 8), (6, 2), (6, 10), (7, 11), (9, 1),
    (9, 5), (10, 2),
]
REPAIR = (12, 0, 8, 0)  # violations found, cells changed, cells nulled, residual
VALID = {
    "CleanDB.check_fd": FD_KEYS,
    "CleanDB.deduplicate": DUP_IDS,
    "CleanDB.check_dc(text)": DC_PAIRS,
    "CleanDB.check_dc(object)": DC_PAIRS,
    "CleanDB.repair_dc(text)": REPAIR,
    "CleanDB.repair_dc(object)": REPAIR,
    "CleanDB.check(rule=)": [],
    "repro dc": "-- 12 violating pairs (banded) --",
    "repro check --rule": "ok: no diagnostics",
    "served fd": FD_KEYS,
    "served dedup": DUP_IDS,
    "served dc": DC_PAIRS,
    "FD/DEDUP query": [0, 1, 2, 3],
}

CELLS = [
    pytest.param(entry, case, id=f"{entry} | {case}")
    for entry, (takes, _run) in ENTRIES.items()
    for case, spellings in CASES.items()
    if takes in spellings and spellings["code"] is not None
]


@pytest.fixture(scope="module")
def service():
    with CleanService(workers=WORKERS) as svc:
        svc.register_table("acme", "t", [dict(row) for row in ROWS])
        yield svc


@pytest.fixture
def ctx(service, tmp_path, capsys):
    path = tmp_path / "t.csv"
    write_records(path, ROWS, "csv", Schema.of(k="int", v="int", name="str", city="str"))
    return {"service": service, "table": f"t={path}:csv:{SCHEMA}", "capsys": capsys}


def test_every_bad_input_is_spelled_at_more_than_one_entry_point():
    for case, spellings in CASES.items():
        takers = [entry for entry, (takes, _run) in ENTRIES.items() if takes in spellings]
        assert len(takers) >= 2, case


@pytest.mark.parametrize("entry, case", CELLS)
def test_a_bad_input_gets_the_same_code_at_every_entry_point(ctx, entry, case):
    takes, run = ENTRIES[entry]
    codes, answer = run(ctx, CASES[case][takes])
    assert (codes, answer) == ([CASES[case]["code"]], None)


@pytest.mark.parametrize("entry", ENTRIES)
def test_a_valid_input_keeps_its_answer_at_every_entry_point(ctx, entry):
    takes, run = ENTRIES[entry]
    assert run(ctx, CASES["valid"][takes]) == ([], VALID[entry])
