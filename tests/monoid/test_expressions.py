"""Unit tests for the expression IR: evaluation, compilation, free vars,
substitution."""

import pytest

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
)


class TestEvaluation:
    def test_const(self):
        assert evaluate(Const(42), {}) == 42

    def test_var(self):
        assert evaluate(Var("x"), {"x": 7}) == 7

    def test_unbound_var_raises(self):
        with pytest.raises(NameError):
            evaluate(Var("missing"), {})

    def test_proj_on_dict(self):
        assert evaluate(Proj(Var("r"), "name"), {"r": {"name": "ada"}}) == "ada"

    def test_proj_missing_attr_raises_with_known_fields(self):
        with pytest.raises(KeyError) as info:
            evaluate(Proj(Var("r"), "nope"), {"r": {"a": 1}})
        assert "nope" in str(info.value)

    def test_record_cons(self):
        expr = RecordCons.of(a=Const(1), b=Var("x"))
        assert evaluate(expr, {"x": 2}) == {"a": 1, "b": 2}

    @pytest.mark.parametrize(
        "op,left,right,expected",
        [
            ("+", 2, 3, 5), ("-", 5, 3, 2), ("*", 4, 3, 12), ("/", 6, 3, 2.0),
            ("%", 7, 3, 1), ("==", 1, 1, True), ("!=", 1, 2, True),
            ("<", 1, 2, True), ("<=", 2, 2, True), (">", 3, 2, True),
            (">=", 1, 2, False),
        ],
    )
    def test_binops(self, op, left, right, expected):
        assert evaluate(BinOp(op, Const(left), Const(right)), {}) == expected

    def test_and_short_circuits(self):
        # The right side would raise if evaluated.
        expr = BinOp("and", Const(False), Proj(Var("missing"), "x"))
        assert evaluate(expr, {}) is False

    def test_or_short_circuits(self):
        expr = BinOp("or", Const(True), Var("missing"))
        assert evaluate(expr, {}) is True

    def test_unknown_binop(self):
        with pytest.raises(ValueError):
            evaluate(BinOp("**", Const(2), Const(3)), {})

    def test_unary_not_and_neg(self):
        assert evaluate(UnaryOp("not", Const(False)), {}) is True
        assert evaluate(UnaryOp("-", Const(5)), {}) == -5

    def test_call_resolves_from_registry(self):
        expr = Call("double", (Const(21),))
        assert evaluate(expr, {}, {"double": lambda x: x * 2}) == 42

    def test_unknown_call_raises(self):
        with pytest.raises(NameError):
            evaluate(Call("nope", ()), {}, {})

    def test_if(self):
        expr = If(Var("c"), Const("yes"), Const("no"))
        assert evaluate(expr, {"c": True}) == "yes"
        assert evaluate(expr, {"c": False}) == "no"

    def test_lambda_closure(self):
        expr = Lambda(("x",), BinOp("+", Var("x"), Var("y")))
        func = evaluate(expr, {"y": 10})
        assert func(5) == 15

    def test_merge(self):
        expr = Merge(BagMonoid(), Const([1]), Const([2]))
        assert evaluate(expr, {}) == [1, 2]


class TestCompileExpr:
    """The source text ``compiled`` runs (Fig. 2's code generator)."""

    def test_const_is_bound_by_reference(self):
        assert compile_expr(Const(5)) == "K0"
        assert compiled(Const(5))({}) == 5
        marker = object()
        assert compiled(Const(marker))({}) is marker

    def test_var_and_proj(self):
        expr = Proj(Var("c"), "name")
        assert "env['c']" in compile_expr(expr) and "['name']" in compile_expr(expr)
        assert compiled(expr)({"c": {"name": "ada"}}) == "ada"

    def test_binop(self):
        expr = BinOp("+", Proj(Var("c"), "age"), Const(3))
        assert compile_expr(expr).endswith("+ K0)")
        assert compiled(expr)({"c": {"age": 4}}) == 7

    def test_boolean_ops(self):
        expr = BinOp("and", Const(True), UnaryOp("not", Const(False)))
        assert compiled(expr)({}) is True

    def test_call_goes_through_registry(self):
        expr = Call("prefix", (Var("p"),))
        assert compile_expr(expr) == "funcs['prefix'](env['p'])"
        assert compiled(expr)({"p": "123-4"}, {"prefix": lambda s: s[:3]}) == "123"

    def test_record_cons(self):
        expr = RecordCons.of(a=Const(1), b=Var("x"))
        assert compiled(expr)({"x": 2}) == {"a": 1, "b": 2}

    def test_if_expression(self):
        expr = If(Const(True), Const("t"), Const("e"))
        assert compiled(expr)({}) == "t"

    def test_no_tree_walk_in_the_generated_source(self):
        expr = BinOp(">", Proj(Var("c"), "age"), Const(3))
        assert "evaluate(" not in compile_expr(expr)

    def test_unsupported_op_fails_as_the_interpreter_does(self):
        expr = BinOp("**", Const(2), Const(3))
        assert "evaluate(" in compile_expr(expr)
        with pytest.raises(ValueError, match="unknown binary operator"):
            compiled(expr)({})

    def test_compiled_once_per_node(self):
        expr = BinOp("+", Var("x"), Const(1))
        assert compiled(expr) is compiled(expr)


class TestFreeVars:
    def test_const_has_none(self):
        assert Const(1).free_vars() == set()

    def test_var(self):
        assert Var("x").free_vars() == {"x"}

    def test_binop_unions(self):
        assert BinOp("+", Var("a"), Var("b")).free_vars() == {"a", "b"}

    def test_lambda_binds_params(self):
        expr = Lambda(("x",), BinOp("+", Var("x"), Var("y")))
        assert expr.free_vars() == {"y"}

    def test_record_cons(self):
        expr = RecordCons.of(a=Var("p"), b=Var("q"))
        assert expr.free_vars() == {"p", "q"}


class TestSubstitution:
    def test_var_replaced(self):
        assert Var("x").substitute({"x": Const(5)}) == Const(5)

    def test_untouched_var(self):
        assert Var("y").substitute({"x": Const(5)}) == Var("y")

    def test_nested(self):
        expr = BinOp("+", Var("x"), Proj(Var("x"), "f"))
        result = expr.substitute({"x": Var("z")})
        assert result == BinOp("+", Var("z"), Proj(Var("z"), "f"))

    def test_lambda_shadows(self):
        expr = Lambda(("x",), Var("x"))
        assert expr.substitute({"x": Const(1)}) == expr

    def test_substitution_is_pure(self):
        original = BinOp("+", Var("x"), Const(1))
        original.substitute({"x": Const(9)})
        assert original.left == Var("x")
