"""Differential suite for the expression compiler.

``monoid.expressions.compiled`` is the only evaluator the engine's hot paths
run; ``evaluate`` is the reference.  This suite holds three things:

* random expression trees over null-laden, mixed-type environments agree
  across ``compiled``, ``evaluate`` and the vectorized ``eval_column`` — by
  value, or by ``(exception type, message)``;
* no hot path still interprets: every query family runs on row, vectorized
  and parallel with ``evaluate`` rigged to raise inside ``Executor.execute``
  and inside the workers;
* an ordered comparison against NULL filters the row instead of raising.
"""

import math
import pickle
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import CleanDB
from repro.datasets import generate_lineitem
from repro.errors import ReproError
from repro.monoid import (
    BagMonoid,
    BinOp,
    Call,
    Const,
    If,
    Lambda,
    Merge,
    Proj,
    RecordCons,
    UnaryOp,
    Var,
    compile_expr,
    compiled,
    evaluate,
    expressions,
)
from repro.physical import EnvBatch, Executor, eval_column
from repro.sources.columnar import ColumnBatch

from fixtures import SETTINGS, WORKERS

FUNCS = {
    "inc": lambda v: v + 1,
    "pair": lambda a, b: (a, b),
    "zero": lambda: 0,
}

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-3, max_value=3),
    st.sampled_from([0.5, -1.5, math.inf, -math.inf, math.nan]),
    st.sampled_from(["", "a", "b"]),
)
# Constants may also be values source text cannot spell or hash.
constants = st.one_of(scalars, st.lists(st.integers(0, 2), max_size=2))

envs = st.fixed_dictionaries(
    {
        "r": st.fixed_dictionaries({"a": scalars, "b": scalars, "c": scalars}),
        "o": st.builds(SimpleNamespace, a=scalars, b=scalars),
        "x": scalars,
    }
)

ATTRS = ("a", "b", "c", "missing")
BINARY = ("+", "-", "*", "/", "%", "==", "!=", "<", "<=", ">", ">=", "and", "or")

leaves = st.one_of(
    constants.map(Const),
    st.sampled_from(["r", "o", "x", "unbound"]).map(Var),
    st.builds(Proj, st.sampled_from([Var("r"), Var("o")]), st.sampled_from(ATTRS)),
)


def _grow(children):
    return st.one_of(
        st.builds(BinOp, st.sampled_from(BINARY), children, children),
        st.builds(UnaryOp, st.sampled_from(["not", "-"]), children),
        st.builds(If, children, children, children),
        st.builds(Proj, children, st.sampled_from(ATTRS)),
        st.builds(
            lambda a, b: RecordCons((("a", a), ("b", b))), children, children
        ),
        st.builds(lambda a: Call("inc", (a,)), children),
        st.builds(lambda a, b: Call("pair", (a, b)), children, children),
        st.just(Call("zero", ())),
        st.builds(lambda a: Call("no_such_function", (a,)), children),
    )


exprs = st.recursive(leaves, _grow, max_leaves=8)


def outcome(thunk):
    """A comparable record of what a thunk did (``nan`` compares by repr)."""
    try:
        value = thunk()
    except Exception as exc:  # the suite compares failures, whatever they are
        return ("raised", type(exc).__name__, str(exc))
    return ("value", type(value).__name__, repr(value))


def one_row_batch(env):
    """The environment as a one-row EnvBatch (``r`` columnar, rest scalar)."""
    batch = EnvBatch.bind("r", ColumnBatch.from_records([env["r"]]))
    for var in ("o", "x"):
        batch = batch.merge(EnvBatch.bind_values(var, [env[var]]))
    return batch


class TestCompiledMatchesReference:
    @SETTINGS
    @given(expr=exprs, env=envs)
    def test_compiled_evaluate_and_eval_column_agree(self, expr, env):
        expected = outcome(lambda: evaluate(expr, env, FUNCS))
        assert outcome(lambda: compiled(expr)(env, FUNCS)) == expected
        column = outcome(lambda: eval_column(expr, one_row_batch(env), FUNCS)[0])
        assert column == expected

    @SETTINGS
    @given(expr=exprs, env=envs)
    def test_a_pickled_expression_compiles_again(self, expr, env):
        """What a worker does: the cached function does not cross the
        process boundary, the unpickled tree compiles to the same thing."""
        compiled(expr)
        shipped = pickle.loads(pickle.dumps(expr))
        assert "_compiled" not in vars(shipped)
        assert repr(shipped) == repr(expr)
        assert outcome(lambda: compiled(shipped)(env, FUNCS)) == outcome(
            lambda: evaluate(expr, env, FUNCS)
        )

    def test_short_circuit_returns_bool_and_skips_the_right_side(self):
        guard = BinOp("and", Var("x"), Call("no_such_function", ()))
        assert compiled(guard)({"x": 0}, FUNCS) is False
        assert compiled(BinOp("or", Var("x"), Var("unbound")))({"x": "a"}, FUNCS) is True

    def test_interpreted_subtrees_are_handed_off(self):
        """Lambda / Merge / unknown operators have no template: the compiled
        form defers to the interpreter for exactly that subtree."""
        merge = Merge(BagMonoid(), Const([1]), Const([2]))
        assert compiled(merge)({}, None) == evaluate(merge, {}, None)
        assert "evaluate(" in compile_expr(merge)
        double = compiled(Lambda(("v",), BinOp("*", Var("v"), Var("k"))))({"k": 2}, None)
        assert double(21) == 42
        unknown = BinOp("**", Const(2), Var("unbound"))
        assert outcome(lambda: compiled(unknown)({}, None)) == outcome(
            lambda: evaluate(unknown, {}, None)
        )

    def test_a_tree_deeper_than_the_parser_allows_compiles_in_pieces(self):
        expr = Const(True)
        for i in range(300):  # a 300-term WHERE conjunction
            expr = BinOp("and", expr, BinOp(">", Proj(Var("r"), "a"), Const(i)))
        for a in (1000, 150, None):
            env = {"r": {"a": a}}
            assert compiled(expr)(env) is evaluate(expr, env)
        assert "evaluate(" not in compile_expr(expr)

    def test_funcs_default_matches_evaluate(self):
        expr = Call("inc", (Const(1),))
        assert outcome(lambda: compiled(expr)({})) == outcome(lambda: evaluate(expr, {}))


# --------------------------------------------------------------------- #
# No hot path interprets
# --------------------------------------------------------------------- #

def customers():
    return [
        {
            "name": f"client {i:02d}",
            "address": f"addr{i % 4}",
            "phone": f"{700 + i % 4}-{i:04d}",
            "nationkey": i % 3,
        }
        for i in range(24)
    ]


# Every query family the language supports (the list the plan-level code
# generator's differential test used to run).
QUERIES = [
    "SELECT * FROM customer c",
    "SELECT c.name AS n FROM customer c WHERE c.nationkey > 0",
    "SELECT DISTINCT c.address FROM customer c",
    "SELECT c.address, count(c.name) AS cnt FROM customer c GROUP BY c.address",
    "SELECT * FROM customer c FD(c.address, c.nationkey)",
    "SELECT * FROM customer c FD(c.address, prefix(c.phone)) FD(c.address, c.nationkey)",
    "SELECT * FROM customer c DEDUP(exact, LD, 0.5, c.address)",
    "SELECT * FROM customer c DEDUP(token_filtering, LD, 0.8, c.name)",
    (
        "SELECT * FROM customer c FD(c.address, c.nationkey) "
        "DEDUP(exact, LD, 0.5, c.address)"
    ),
    (
        "SELECT * FROM customer c, dictionary d "
        "CLUSTER BY(token_filtering, LD, 0.7, c.name)"
    ),
]


def _interpreter_forbidden(expr, env, funcs=None):
    raise AssertionError(f"the engine interpreted {expr!r} instead of compiling it")


def _forbid_interpreter_task():
    """Worker task: rig this worker's ``evaluate`` and say that it is rigged."""
    expressions.evaluate = _interpreter_forbidden
    try:
        expressions.evaluate(Const(1), {})
    except AssertionError:
        return True
    return False


def run_query(query, execution, before_execute=None):
    db = CleanDB(num_nodes=4, execution=execution, workers=WORKERS, q=2)
    try:
        db.register_table("customer", customers())
        db.register_table("dictionary", ["client 01", "client 02"])
        if before_execute is not None:
            before_execute(db)
        result = db.execute(query)
    finally:
        db.close()
    return {name: sorted(map(repr, rows)) for name, rows in result.branches.items()}


@pytest.mark.parametrize("execution", ["row", "vectorized", "parallel"])
@pytest.mark.parametrize("query", QUERIES)
def test_no_hot_path_interprets(query, execution, monkeypatch):
    expected = run_query(query, "row")

    real_execute = Executor.execute

    def guarded_execute(self, op):
        with monkeypatch.context() as patch:
            patch.setattr(expressions, "evaluate", _interpreter_forbidden)
            return real_execute(self, op)

    monkeypatch.setattr(Executor, "execute", guarded_execute)

    def rig_workers(db):
        if execution == "parallel":
            pool = db.cluster.pool
            rigged = pool.run(_forbid_interpreter_task, [()] * pool.workers)
            assert rigged == [True] * pool.workers

    assert run_query(query, execution, rig_workers) == expected


# --------------------------------------------------------------------- #
# Ordered comparison against NULL
# --------------------------------------------------------------------- #

class TestNullOrderedComparison:
    QUERY = "SELECT l.orderkey FROM lineitem l WHERE l.quantity > 10"

    @pytest.mark.parametrize("op", ["<", "<=", ">", ">="])
    def test_none_operand_is_false_not_an_error(self, op):
        for left, right in [(None, 1), (1, None), (None, None)]:
            expr = BinOp(op, Const(left), Const(right))
            assert evaluate(expr, {}) is False
            assert compiled(expr)({}) is False

    def test_equality_and_mixed_types_keep_their_behaviour(self):
        assert evaluate(BinOp("==", Const(None), Const(None)), {}) is True
        assert compiled(BinOp("!=", Const(None), Const(1)))({}) is True
        for run in (evaluate, lambda e, env: compiled(e)(env)):
            with pytest.raises(TypeError):
                run(BinOp("<", Const("a"), Const(1)), {})

    def test_where_over_planted_nulls_agrees_on_every_backend(self):
        rows = generate_lineitem(15)
        assert any(r["quantity"] is None for r in rows)
        expected = sorted(
            r["orderkey"] for r in rows
            if r["quantity"] is not None and r["quantity"] > 10
        )
        for execution in ("row", "vectorized", "parallel"):
            with CleanDB(num_nodes=4, execution=execution, workers=WORKERS) as db:
                db.register_table("lineitem", [dict(r) for r in rows])
                # `repro check` passes, so nothing but a ReproError may
                # surface at runtime.
                assert db.check(self.QUERY) == []
                try:
                    result = db.execute(self.QUERY)
                except ReproError:
                    raise
                except Exception as exc:  # the soundness claim under test
                    pytest.fail(f"{execution}: check passed, runtime died with {exc!r}")
                got = sorted(row["orderkey"] for row in result.branches["query"])
                assert got == expected, execution
