"""The monoid comprehension calculus — CleanM's first abstraction level."""

from .comprehension import (
    Bind,
    Comprehension,
    Filter,
    Generator,
    Qualifier,
    evaluate_comprehension,
    fresh_var,
)
from .expressions import (
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
    compile_expr,
    compiled,
    evaluate,
)
from .monoids import (
    AllMonoid,
    AnyMonoid,
    AvgMonoid,
    BagMonoid,
    CountMonoid,
    FunctionCompositionMonoid,
    GroupMonoid,
    IterationMonoid,
    KMeansAssignMonoid,
    ListMonoid,
    MaxMonoid,
    MinMonoid,
    Monoid,
    MultiGroupMonoid,
    SetMonoid,
    SumMonoid,
    TokenFilterMonoid,
    check_monoid_laws,
    get_monoid,
    register_monoid,
)
from .normalize import NormalizationTrace, normalize

__all__ = [
    "Bind", "Comprehension", "Filter", "Generator", "Qualifier",
    "evaluate_comprehension", "fresh_var",
    "BinOp", "Call", "Const", "Expr", "If", "Lambda", "Merge", "Proj",
    "RecordCons", "UnaryOp", "Var", "compile_expr", "compiled", "evaluate",
    "AllMonoid", "AnyMonoid", "AvgMonoid", "BagMonoid", "CountMonoid",
    "FunctionCompositionMonoid", "GroupMonoid", "IterationMonoid", "KMeansAssignMonoid",
    "ListMonoid", "MaxMonoid", "MinMonoid", "Monoid", "MultiGroupMonoid",
    "SetMonoid", "SumMonoid", "TokenFilterMonoid", "check_monoid_laws",
    "get_monoid", "register_monoid",
    "NormalizationTrace", "normalize",
]
