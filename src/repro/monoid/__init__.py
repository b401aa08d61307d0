"""The monoid comprehension calculus — CleanM's first abstraction level."""

from typing import TYPE_CHECKING

from .._lazy import lazy_surface

if TYPE_CHECKING:
    from .comprehension import (
        Bind, Comprehension, Filter, Generator, Qualifier, evaluate_comprehension,
        fresh_var,
    )
    from .expressions import (
        BinOp, Call, Const, Expr, If, Lambda, Merge, Proj, RecordCons, UnaryOp, Var,
        compile_expr, compiled, evaluate,
    )
    from .monoids import (
        AllMonoid, AnyMonoid, AvgMonoid, BagMonoid, CountMonoid, GroupMonoid,
        ListMonoid, MaxMonoid, MinMonoid, Monoid, MultiGroupMonoid, SetMonoid,
        SumMonoid, check_monoid_laws, get_monoid, register_monoid,
    )
    from .normalize import NormalizationTrace, normalize

__getattr__, __dir__, __all__ = lazy_surface(__name__, {
    "comprehension": (
        "Bind", "Comprehension", "Filter", "Generator", "Qualifier",
        "evaluate_comprehension", "fresh_var",
    ),
    "expressions": (
        "BinOp", "Call", "Const", "Expr", "If", "Lambda", "Merge", "Proj", "RecordCons",
        "UnaryOp", "Var", "compile_expr", "compiled", "evaluate",
    ),
    "monoids": (
        "AllMonoid", "AnyMonoid", "AvgMonoid", "BagMonoid", "CountMonoid", "GroupMonoid",
        "ListMonoid", "MaxMonoid", "MinMonoid", "Monoid", "MultiGroupMonoid", "SetMonoid",
        "SumMonoid", "check_monoid_laws", "get_monoid", "register_monoid",
    ),
    "normalize": ("NormalizationTrace", "normalize"),
})

# ``normalize`` names both the function and its submodule; the import system binds
# the submodule over a lazy entry, so this one name is bound eagerly, as before.
from .normalize import normalize  # noqa: E402
