"""CleanM language frontend and the CleanDB facade (Fig. 2)."""

from typing import TYPE_CHECKING

from .._lazy import lazy_surface

if TYPE_CHECKING:
    from .ast_nodes import ClusterByOp, DedupOp, FDOp, Query, SelectItem, Star, TableRef
    from .language import CleanDB, QueryResult
    from .lexer import Token, tokenize
    from .parser import parse
    from .rewriter import Branch, rewrite_query

__getattr__, __dir__, __all__ = lazy_surface(__name__, {
    "ast_nodes": (
        "ClusterByOp", "DedupOp", "FDOp", "Query", "SelectItem", "Star", "TableRef",
    ),
    "language": ("CleanDB", "QueryResult"),
    "lexer": ("Token", "tokenize"),
    "parser": ("parse",),
    "rewriter": ("Branch", "rewrite_query"),
})
