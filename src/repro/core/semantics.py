"""Static semantic analysis for CleanM: the ``repro check`` pass.

CleanM's pitch is holistic validation and optimization across its three
levels; until this pass existed the front end accepted any syntactically
valid query and let unknown columns, ill-typed predicates, and malformed
DC rules explode at runtime inside workers.  This module turns those into
pre-dispatch :class:`Diagnostic` objects with stable ``CM###`` codes and
lexer source spans, so the CLI can point a caret at the offending text
and the facade can refuse to dispatch a plan that cannot succeed.

The analysis is schema inference plus a handful of judgment rules:

* every column reference must resolve against the (inferred) schema of
  its table — tables are sampled for value *types* and scanned for key
  *presence*, so heterogeneous dirty data never causes false positives;
* predicates are type-checked: an ordered comparison or arithmetic over
  incompatible domains (a string column against a number) is rejected
  statically instead of raising ``TypeError`` on the first dirty row;
* similarity thetas must lie in [0, 1], metrics and blocking operators
  must name registered algorithms;
* the cleaning API's arguments get the same rules as their query
  spellings: an FD side, a dedup attribute or block key must be a column
  (CM102), and a DC — rule text read by ``dc_kernel``'s own clause parser,
  or a built ``DenialConstraint`` — is checked for attribute existence,
  predicate/type compatibility, and trivial unsatisfiability (an
  ordering-set intersection that admits no pair);
* monoid well-formedness: a non-commutative merge in a comprehension
  that executes distributed (after a shuffle) violates the paper's
  legality rules and is an error;
* under ``execution="parallel"``, user-registered scalar functions that
  cannot cross the process boundary are rejected before dispatch.

Every code is registered in :data:`CODES`; the docs reference
(``docs/DIAGNOSTICS.md``) and the uniqueness tests key off that registry.
"""

from __future__ import annotations

from itertools import repeat
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from .._records import Record, field
from ..errors import ParseError, SchemaError
from ..monoid.comprehension import Bind, Comprehension, Filter, Generator
from ..monoid.expressions import (
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
    call_names,
)
from ..physical.functions import BUILTIN_FUNCTION_NAMES, DEFAULT_FUNCTIONS, QUERY_BUILTINS
from .ast_nodes import ClusterByOp, DedupOp, FDOp, Query, SelectItem, Star
from .lexer import Token, tokenize
from .parser import parse
from .shippable import is_module_level_callable, is_picklable, unshippable_reason

#: Every diagnostic code this analyzer can emit, with its one-line meaning.
#: ``docs/DIAGNOSTICS.md`` must carry an entry per code (tested).
CODES: dict[str, str] = {
    "CM001": "the query or rule could not be parsed",
    "CM101": "query references an unknown table",
    "CM102": "column reference does not exist on its table",
    "CM103": "unbound name: not a FROM-clause alias",
    "CM104": "call to an unknown function",
    "CM201": "type-mismatched predicate (ordered comparison or arithmetic over incompatible domains)",
    "CM202": "similarity threshold (theta) outside [0, 1]",
    "CM203": "unknown similarity metric",
    "CM204": "unknown blocking operator",
    "CM205": "DEDUP without comparison attributes",
    "CM301": "malformed denial-constraint clause",
    "CM302": "denial constraint references an unknown attribute",
    "CM303": "denial-constraint predicate over incompatible types",
    "CM304": "trivially unsatisfiable denial constraint",
    "CM401": "illegal monoid merge: non-commutative monoid in a distributed comprehension",
    "CM501": "unpicklable task closure: user function cannot ship to worker processes",
    "CM502": "stale handle: worker store holds a different version than the driver expects",
    "CM601": "plan rewrite dropped or duplicated a branch",
    "CM602": "plan references a variable no operator binds",
    "CM603": "plan scans a table missing from the catalog",
}

#: Per-query functions the executor binds at execution time; always
#: callable from rewritten comprehensions, never user-shipped closures.
ENGINE_BUILTINS = frozenset(QUERY_BUILTINS)

#: Aggregate names the GROUP BY rewriter folds into ``agg(...)`` calls.
AGGREGATE_NAMES = frozenset({"count", "sum", "avg", "min", "max", "distinct_count"})

_ORDERED_OPS = frozenset({"<", "<=", ">", ">="})
_ARITH_OPS = frozenset({"+", "-", "*", "/", "%"})


# ---------------------------------------------------------------------- #
# Diagnostic objects
# ---------------------------------------------------------------------- #
class Span(Record, frozen=True):
    """A half-open region of the analyzed source text."""

    line: int
    column: int
    position: int
    length: int = 1


class Diagnostic(Record, frozen=True):
    """One analyzer finding: a stable code, severity, message, and span.

    ``source_label`` names which input text the span indexes — ``"query"``
    for CleanM text, ``"rule"``/``"where"`` for the two DC inputs — so the
    renderer annotates the right string.
    """

    code: str
    severity: str  # "error" | "warning"
    message: str
    span: Span | None = None
    hint: str | None = None
    source_label: str = "query"

    def __str__(self) -> str:
        loc = f" at {self.span.line}:{self.span.column}" if self.span else ""
        return f"{self.severity}[{self.code}]: {self.message}{loc}"


class DiagnosticsError(SchemaError):
    """Static analysis rejected the input.

    Subclasses :class:`SchemaError` so callers catching the historical
    unknown-table/unknown-column error class keep working; ``diagnostics``
    carries the structured findings and ``source`` the analyzed text for
    caret rendering.
    """

    def __init__(self, diagnostics: Sequence[Diagnostic], source: str = ""):
        diagnostics = list(diagnostics)
        first = diagnostics[0] if diagnostics else None
        message = str(first) if first else "static analysis failed"
        extra = len(diagnostics) - 1
        if extra > 0:
            message += f" (+{extra} more diagnostic{'s' if extra > 1 else ''})"
        super().__init__(message)
        self.diagnostics = diagnostics
        self.source = source


def errors_in(diagnostics: Iterable[Diagnostic]) -> list[Diagnostic]:
    """The error-severity subset, in order."""
    return [d for d in diagnostics if d.severity == "error"]


# ---------------------------------------------------------------------- #
# Schema inference
# ---------------------------------------------------------------------- #
class TableInfo(Record):
    """What the analyzer knows about one registered table.

    ``columns`` maps every key appearing in *any* dict row to the set of
    value type names seen in the sampled prefix (``None`` values are
    skipped: missing data must not poison the type judgment).
    ``is_record`` is False for scalar tables (e.g. dictionary term lists),
    which get no column checks at all.
    """

    columns: dict[str, set[str]] = field(default_factory=dict)
    is_record: bool = True
    row_count: int = 0

    def kind_of(self, attr: str) -> str | None:
        """The abstract domain of a column: ``num``/``str``/``bool``/None."""
        types = self.columns.get(attr)
        if not types:
            return None
        if types <= {"bool"}:
            return "bool"
        if types <= {"int", "float", "bool"}:
            return "num"
        if types <= {"str"}:
            return "str"
        return None  # mixed domains: the analyzer stays silent


def infer_table(rows: Sequence[Any], sample: int = 64) -> TableInfo:
    """Infer a :class:`TableInfo` from registered rows.

    Key *presence* is computed over every row (a column appearing only in
    a late row must still resolve), value *types* only over the first
    ``sample`` rows — type judgments tolerate the unsampled tail because
    mixed observations already disable them.
    """
    info = TableInfo(is_record=bool(rows) and isinstance(rows[0], dict), row_count=len(rows))
    return _fold_rows(info, rows, sample) if info.is_record else info


def _fold_rows(info: TableInfo, rows: Sequence[Any], sample: int, start: int = 0) -> TableInfo:
    """Fold ``rows``, numbered from ``start``, into ``info`` up to the first
    row that is not a dict.  A row inside the sample adds its value types;
    the rest only add keys not seen yet: one C-level union finds whether
    there are any, and only then a per-row pass adds them in row order."""
    if not all(map(isinstance, rows, repeat(dict))):
        rows = rows[:next(i for i, row in enumerate(rows) if not isinstance(row, dict))]
        info.is_record = False
    columns, typed = info.columns, max(sample - start, 0)
    for row in rows[:typed]:
        for key, value in row.items():
            types = columns.setdefault(key, set())
            if value is not None:
                types.add(type(value).__name__)
    tail, known = rows[typed:], columns.keys()
    if not known >= set().union(*tail):
        for row in tail:
            if not row.keys() <= known:
                columns.update({key: set() for key in row if key not in columns})
    return info


def patch_info(
    info: TableInfo, base: int, appended: Sequence[Any],
    updated: Sequence[tuple[int, Any]], table: Sequence[Any], sample: int = 64,
) -> TableInfo:
    """:func:`infer_table` of ``table`` after a delta, folded from its
    answer before it (``TableStore.derived``'s patch rule, ``table`` bound
    to the rows the delta changed).  A replacement inside the sample
    re-reads the sample's types from ``table``: an old row's types cannot
    be taken back one by one.  Raises when the fold would not be
    faithful: a table that was not all dicts, or a replacement lacking a
    known column (the old row may have been its last bearer)."""
    known = info.columns.keys()
    if not info.is_record or any(not row.keys() >= known for _, row in updated):
        raise ValueError("delta cannot be folded into the inferred schema")
    resample = any(g < sample for g, _ in updated)
    columns = {k: set() if resample else set(v) for k, v in info.columns.items()}
    out = TableInfo(columns, True, base + len(appended))
    if resample:  # the sample's replacements are read here, in place
        _fold_rows(out, table[:sample], sample)
    _fold_rows(out, [row for g, row in updated if g >= sample], sample, sample)
    return _fold_rows(out, appended, sample, base)


# ---------------------------------------------------------------------- #
# Span location
# ---------------------------------------------------------------------- #
class SpanFinder:
    """Locates identifiers/numbers in source text by re-tokenizing it.

    The expression IR carries no positions (adding them would touch every
    constructor in the calculus), so diagnostics recover spans by finding
    the matching token in the original text.  Tokenization is lazy: a
    clean analysis never pays for it.
    """

    def __init__(self, text: str):
        self.text = text
        self._tokens: list[Token] | None = None
        self._line_starts: list[int] | None = None

    def _ensure(self) -> list[Token]:
        if self._tokens is None:
            try:
                self._tokens = tokenize(self.text)
            except ParseError:
                self._tokens = []
        return self._tokens

    def _column(self, position: int) -> int:
        if self._line_starts is None:
            starts = [0]
            for i, ch in enumerate(self.text):
                if ch == "\n":
                    starts.append(i + 1)
            self._line_starts = starts
        start = 0
        for s in self._line_starts:
            if s <= position:
                start = s
            else:
                break
        return position - start + 1

    def _span(self, token: Token, length: int | None = None) -> Span:
        return Span(
            line=token.line,
            column=self._column(token.position),
            position=token.position,
            length=length if length is not None else max(len(token.value), 1),
        )

    def ident(self, word: str) -> Span | None:
        for token in self._ensure():
            if token.kind == "IDENT" and token.value == word:
                return self._span(token)
        return None

    def attr(self, alias: str, attr: str) -> Span | None:
        """The span of ``alias.attr`` (the whole dotted reference)."""
        tokens = self._ensure()
        for i in range(len(tokens) - 2):
            if (
                tokens[i].kind == "IDENT"
                and tokens[i].value == alias
                and tokens[i + 1].kind == "SYMBOL"
                and tokens[i + 1].value == "."
                and tokens[i + 2].kind == "IDENT"
                and tokens[i + 2].value == attr
            ):
                start = tokens[i].position
                end = tokens[i + 2].position + len(attr)
                return self._span(tokens[i], end - start)
        return None

    def number(self, value: float) -> Span | None:
        for token in self._ensure():
            if token.kind == "NUMBER":
                try:
                    if float(token.value) == value:
                        return self._span(token)
                except ValueError:  # pragma: no cover - lexer guarantees floats
                    continue
        return None

    def at(self, position: int, length: int = 1) -> Span:
        line = self.text.count("\n", 0, max(position, 0)) + 1
        return Span(
            line=line,
            column=self._column(max(position, 0)),
            position=max(position, 0),
            length=max(length, 1),
        )


# ---------------------------------------------------------------------- #
# Query analysis
# ---------------------------------------------------------------------- #
def parse_error_diagnostic(
    exc: ParseError, label: str = "query", source: str = ""
) -> Diagnostic:
    """Wrap a :class:`ParseError` as the CM001 diagnostic."""
    span = None
    if exc.position >= 0:
        if source:
            span = SpanFinder(source).at(exc.position)
        else:
            span = Span(line=max(exc.line, 1), column=1, position=exc.position, length=1)
    return Diagnostic(
        code="CM001",
        severity="error",
        message=str(exc),
        span=span,
        source_label=label,
    )


def analyze_query(
    sql: str | Query,
    tables: Mapping[str, Sequence[Any]],
    *,
    functions: Mapping[str, Callable] | None = None,
    execution: str = "row",
    infos: Mapping[str, TableInfo] | None = None,
    source: str = "",
    branches: Sequence[Any] | None = None,
) -> list[Diagnostic]:
    """Analyze one CleanM query against registered tables.

    ``sql`` may be raw text (parsed here; a parse failure returns the
    single CM001 diagnostic) or an already-parsed :class:`Query` with
    ``source`` carrying the original text for spans.  ``infos`` supplies
    pre-inferred schemas (the facade caches them per table version);
    missing entries are inferred on demand.  ``branches`` passes the
    caller's already-rewritten comprehension branches for the monoid
    legality walk (the facade de-sugars each query once, before analysis;
    ``[]`` when that failed); without it the query is de-sugared here.
    """
    if isinstance(sql, str):
        source = sql
        try:
            query = parse(sql)
        except ParseError as exc:
            return [parse_error_diagnostic(exc)]
    else:
        query = sql

    diags: list[Diagnostic] = []
    finder = SpanFinder(source)
    if functions is None:
        functions = DEFAULT_FUNCTIONS
    known_functions = set(functions) | ENGINE_BUILTINS | AGGREGATE_NAMES

    # -- tables and aliases -------------------------------------------- #
    alias_map: dict[str, str] = {}
    for t in query.tables:
        alias_map[t.alias] = t.name
        if t.name not in tables:
            diags.append(
                Diagnostic(
                    code="CM101",
                    severity="error",
                    message=f"query references unknown table {t.name!r}",
                    span=finder.ident(t.name),
                    hint=_did_you_mean(t.name, tables),
                )
            )

    local_infos: dict[str, TableInfo] = dict(infos or {})
    for name in set(alias_map.values()):
        if name in tables and name not in local_infos:
            local_infos[name] = infer_table(tables[name])

    checker = _ExprChecker(alias_map, local_infos, known_functions, finder, diags)
    for expr in _query_expressions(query):
        checker.check(expr)

    # -- cleaning-operator parameters ---------------------------------- #
    for op in query.cleaning_ops:
        if isinstance(op, (DedupOp, ClusterByOp)):
            _check_similarity_params(op, finder, diags)
        if isinstance(op, DedupOp) and not op.attributes:
            diags.append(
                Diagnostic(
                    code="CM205",
                    severity="error",
                    message="DEDUP needs at least one comparison attribute",
                    span=finder.ident(op.op),
                    hint="write DEDUP(op, metric, theta, alias.attribute)",
                )
            )

    # -- monoid legality over the de-sugared branches ------------------- #
    if not errors_in(diags):
        if branches is None:
            from .rewriter import rewrite_query

            try:
                branches = rewrite_query(query)
            except Exception:
                # De-sugaring failures surface through compile() with their
                # own error class; the legality walk only covers what de-sugars.
                branches = []
        for branch in branches:
            diags.extend(check_monoid_legality(branch.comprehension, branch.name))

    # -- task-closure shippability (parallel backend only) -------------- #
    if execution == "parallel":
        diags.extend(
            check_task_closures(_call_names_in(query), functions, finder)
        )

    return diags


def _query_expressions(query: Query) -> Iterator[Expr]:
    for item in query.select:
        if isinstance(item, SelectItem):
            yield item.expr
    if query.where is not None:
        yield query.where
    yield from query.group_by
    if query.having is not None:
        yield query.having
    for op in query.cleaning_ops:
        if isinstance(op, FDOp):
            yield from op.lhs
            yield from op.rhs
        elif isinstance(op, DedupOp):
            yield from op.attributes
        elif isinstance(op, ClusterByOp):
            yield op.term


def _call_names_in(query: Query) -> set[str]:
    return set().union(*map(call_names, _query_expressions(query)))


def _did_you_mean(name: str, candidates: Iterable[str]) -> str | None:
    import difflib  # only a misspelled name pays for it

    matches = difflib.get_close_matches(name, list(candidates), n=1, cutoff=0.6)
    return f"did you mean {matches[0]!r}?" if matches else None


def _missing_column(info: TableInfo, attr: Any) -> bool:
    """Whether ``attr`` names a column ``info``'s table lacks.  A callable
    spec, a scalar table and an empty one (no columns to judge by) are
    never judged."""
    return (
        isinstance(attr, str) and info.is_record and bool(info.columns)
        and attr != "_rid" and attr not in info.columns
    )


class _ExprChecker:
    """Walks parsed expressions resolving names and judging types."""

    def __init__(
        self,
        alias_map: dict[str, str],
        infos: Mapping[str, TableInfo],
        known_functions: set[str],
        finder: SpanFinder,
        diags: list[Diagnostic],
    ):
        self.alias_map = alias_map
        self.infos = infos
        self.finder = finder
        self.diags = diags
        self.known_functions = known_functions
        self._reported: set[tuple] = set()

    def _emit(self, diag: Diagnostic, key: tuple) -> None:
        if key in self._reported:
            return
        self._reported.add(key)
        self.diags.append(diag)

    def check(self, expr: Expr) -> None:
        if isinstance(expr, Proj) and isinstance(expr.source, Var):
            self._check_column(expr.source.name, expr.attr)
            return
        if isinstance(expr, Var):
            if expr.name not in self.alias_map:
                self._emit(
                    Diagnostic(
                        code="CM103",
                        severity="error",
                        message=(
                            f"unbound name {expr.name!r}: not an alias in the "
                            f"FROM clause"
                        ),
                        span=self.finder.ident(expr.name),
                        hint=_did_you_mean(expr.name, self.alias_map),
                    ),
                    ("CM103", expr.name),
                )
            return
        if isinstance(expr, Call):
            if expr.name not in self.known_functions:
                self._emit(
                    Diagnostic(
                        code="CM104",
                        severity="error",
                        message=f"unknown function {expr.name!r}",
                        span=self.finder.ident(expr.name),
                        hint=_did_you_mean(expr.name, self.known_functions),
                    ),
                    ("CM104", expr.name),
                )
        if isinstance(expr, BinOp):
            self._check_binop(expr)
        for child in expr.children():
            self.check(child)

    def _check_column(self, alias: str, attr: str) -> None:
        if alias not in self.alias_map:
            self._emit(
                Diagnostic(
                    code="CM103",
                    severity="error",
                    message=(
                        f"unbound name {alias!r}: not an alias in the FROM clause"
                    ),
                    span=self.finder.ident(alias),
                    hint=_did_you_mean(alias, self.alias_map),
                ),
                ("CM103", alias),
            )
            return
        table = self.alias_map[alias]
        info = self.infos.get(table)
        if info is None or not _missing_column(info, attr):
            return  # a column, or nothing to judge by (CM101, scalar rows, empty)
        self._emit(
            Diagnostic(
                code="CM102",
                severity="error",
                message=(
                    f"table {table!r} (alias {alias!r}) has no column {attr!r}"
                ),
                span=self.finder.attr(alias, attr),
                hint=_did_you_mean(attr, info.columns),
            ),
            ("CM102", alias, attr),
        )

    def _check_binop(self, expr: BinOp) -> None:
        if expr.op not in _ORDERED_OPS and expr.op not in _ARITH_OPS:
            return
        left = self.kind_of(expr.left)
        right = self.kind_of(expr.right)
        if left is None or right is None or left == right:
            return
        if {left, right} <= {"num", "bool"}:
            return  # bools are numbers in every backend
        what = "ordered comparison" if expr.op in _ORDERED_OPS else "arithmetic"
        self._emit(
            Diagnostic(
                code="CM201",
                severity="error",
                message=(
                    f"{what} {expr.op!r} over incompatible domains: "
                    f"{_describe_side(expr.left, left)} vs "
                    f"{_describe_side(expr.right, right)}"
                ),
                span=self._binop_span(expr),
                hint="cast one side or compare compatible columns",
            ),
            ("CM201", repr(expr)),
        )

    def _binop_span(self, expr: BinOp) -> Span | None:
        for side in (expr.left, expr.right):
            if isinstance(side, Proj) and isinstance(side.source, Var):
                span = self.finder.attr(side.source.name, side.attr)
                if span is not None:
                    return span
        return None

    def kind_of(self, expr: Expr) -> str | None:
        """Abstract domain of an expression: ``num``/``str``/``bool``/None."""
        if isinstance(expr, Const):
            return _value_kind(expr.value)
        if isinstance(expr, Proj) and isinstance(expr.source, Var):
            table = self.alias_map.get(expr.source.name)
            info = self.infos.get(table) if table else None
            if info is None:
                return None
            return info.kind_of(expr.attr)
        if isinstance(expr, Call):
            return _FUNCTION_KINDS.get(expr.name)
        if isinstance(expr, BinOp):
            if expr.op in _ARITH_OPS:
                kinds = {self.kind_of(expr.left), self.kind_of(expr.right)}
                if kinds <= {"num", "bool"}:
                    return "num"
                if expr.op == "+" and kinds == {"str"}:
                    return "str"
                return None
            return "bool"
        if isinstance(expr, UnaryOp):
            return "bool" if expr.op == "not" else self.kind_of(expr.operand)
        return None


def _value_kind(value: Any) -> str | None:
    """Abstract domain of a constant: ``num``/``str``/``bool``/None."""
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, (int, float)):
        return "num"
    if isinstance(value, str):
        return "str"
    return None


_FUNCTION_KINDS: dict[str, str] = {
    "count": "num",
    "len": "num",
    "distinct_count": "num",
    "sum": "num",
    "abs": "num",
    "similarity": "num",
    "lower": "str",
    "upper": "str",
    "concat": "str",
    "concat_terms": "str",
    "prefix": "str",
    "similar": "bool",
    "similar_records": "bool",
    "in_dictionary": "bool",
    "rid_less": "bool",
}


def _describe_side(expr: Expr, kind: str) -> str:
    if isinstance(expr, Proj) and isinstance(expr.source, Var):
        return f"{expr.source.name}.{expr.attr} ({kind})"
    if isinstance(expr, Const):
        return f"{expr.value!r} ({kind})"
    return f"{expr!r} ({kind})"


def _check_similarity_params(
    op: DedupOp | ClusterByOp, finder: SpanFinder, diags: list[Diagnostic]
) -> None:
    """CM202 / CM203 / CM204 for one DEDUP's or CLUSTER BY's theta, metric
    and blocker, located in the text ``finder`` reads."""
    from ..cleaning.blocking import BLOCKERS
    from ..cleaning.similarity import _METRICS

    kind = "DEDUP" if isinstance(op, DedupOp) else "CLUSTER BY"
    if not 0.0 <= op.theta <= 1.0:
        diags.append(Diagnostic(
            "CM202", "error", f"{kind} similarity threshold {op.theta!r} is outside [0, 1]",
            finder.number(op.theta), "theta is a similarity in [0, 1], not a distance",
        ))
    if op.metric not in _METRICS:
        diags.append(Diagnostic(
            "CM203", "error", f"unknown similarity metric {op.metric!r} in {kind}",
            finder.ident(op.metric), _did_you_mean(op.metric, _METRICS),
        ))
    if op.op not in BLOCKERS:
        diags.append(Diagnostic(
            "CM204", "error", f"unknown blocking operator {op.op!r} in {kind}",
            finder.ident(op.op), _did_you_mean(op.op, BLOCKERS),
        ))


# ---------------------------------------------------------------------- #
# Monoid legality (the paper's well-formedness rules)
# ---------------------------------------------------------------------- #
def check_monoid_legality(expr: Expr, branch: str = "query") -> list[Diagnostic]:
    """Reject merges the distributed evaluation order can corrupt.

    A comprehension that executes after a shuffle merges per-partition
    results in nondeterministic order, so its monoid must be commutative
    (§4.2's legality rules; lists and function composition are the
    canonical violators).  Idempotence is *not* required — the engine's
    exactly-once task protocol covers non-idempotent folds like bags.
    """
    diags: list[Diagnostic] = []
    _walk_monoids(expr, branch, diags)
    return diags


def _walk_monoids(expr: Expr, branch: str, diags: list[Diagnostic]) -> None:
    monoid = None
    if isinstance(expr, Comprehension):
        monoid = expr.monoid
        for q in expr.qualifiers:
            if isinstance(q, Generator):
                _walk_monoids(q.source, branch, diags)
            elif isinstance(q, Filter):
                _walk_monoids(q.predicate, branch, diags)
            elif isinstance(q, Bind):
                _walk_monoids(q.expr, branch, diags)
        _walk_monoids(expr.head, branch, diags)
    elif isinstance(expr, Merge):
        monoid = expr.monoid
        _walk_monoids(expr.left, branch, diags)
        _walk_monoids(expr.right, branch, diags)
    else:
        for child in expr.children():
            _walk_monoids(child, branch, diags)
    if monoid is not None and not getattr(monoid, "commutative", True):
        name = getattr(monoid, "name", type(monoid).__name__)
        diags.append(
            Diagnostic(
                code="CM401",
                severity="error",
                message=(
                    f"branch {branch!r} merges with non-commutative monoid "
                    f"{name!r}; per-partition results merge in shuffle order, "
                    f"which is nondeterministic"
                ),
                hint="fold into a bag/set and order on the driver instead",
            )
        )


# ---------------------------------------------------------------------- #
# Task-closure shippability (parallel backend)
# ---------------------------------------------------------------------- #
def check_task_closures(
    call_names: Iterable[str],
    functions: Mapping[str, Callable],
    finder: SpanFinder | None = None,
) -> list[Diagnostic]:
    """CM501: user-registered functions a parallel plan cannot ship.

    Built-in registry functions are exempt — the engine knows which of
    them ship and routes around the rest — but a *user-registered*
    closure or lambda silently forces the whole plan onto the row path,
    which is never what a caller who asked for ``execution="parallel"``
    meant.
    """
    diags: list[Diagnostic] = []
    for name in sorted(set(call_names)):
        if name in BUILTIN_FUNCTION_NAMES or name in ENGINE_BUILTINS:
            continue
        func = functions.get(name)
        if func is None:
            continue  # CM104 already covers unknown names
        if is_module_level_callable(func) or is_picklable(func):
            continue
        diags.append(
            Diagnostic(
                code="CM501",
                severity="error",
                message=(
                    f"function {name!r} cannot ship to worker processes: "
                    f"{unshippable_reason(func)}"
                ),
                span=finder.ident(name) if finder else None,
                hint=(
                    "register a module-level function (picklable by "
                    "reference) instead of a lambda or closure"
                ),
            )
        )
    return diags


# ---------------------------------------------------------------------- #
# Cleaning-call analysis: the facade's FD, dedup and DC arguments
# ---------------------------------------------------------------------- #
def analyze_columns(
    table: str, attrs: Iterable[Any], info: TableInfo | None
) -> list[Diagnostic]:
    """CM102 for each attribute a cleaning call names — an FD side, a dedup
    comparison attribute or block key — that ``table`` lacks, as the query
    spellings ``FD(x.a, x.b)`` and ``DEDUP(..., x.a)`` get it.  A callable
    spec is code, not a name, and is not judged."""
    if info is None:
        return []
    return [
        Diagnostic("CM102", "error", f"table {table!r} has no column {attr!r}",
                   hint=_did_you_mean(attr, info.columns))
        for attr in dict.fromkeys(attrs)
        if _missing_column(info, attr)
    ]


def analyze_dedup(
    table: str, attrs: Iterable[Any], metric: str, theta: float, info: TableInfo | None
) -> list[Diagnostic]:
    """A dedup call's arguments by the DEDUP rules: :func:`analyze_columns`
    for its comparison attributes and block keys, and CM202 / CM203 for a
    ``theta`` outside [0, 1] or an unknown ``metric``, as
    ``DEDUP(exact, <metric>, <theta>, ...)`` gets them."""
    diags = analyze_columns(table, attrs, info)
    _check_similarity_params(DedupOp("exact", metric, theta), SpanFinder(""), diags)
    return diags


_ORDER_SETS: dict[str, frozenset[str]] = {
    "<": frozenset({"LT"}),
    "<=": frozenset({"LT", "EQ"}),
    "==": frozenset({"EQ"}),
    "!=": frozenset({"LT", "GT"}),
    ">": frozenset({"GT"}),
    ">=": frozenset({"GT", "EQ"}),
}

#: CM301's hint per DC input: what one of its clauses looks like.
_CLAUSE_SHAPES = {
    "rule": "write clauses as t1.attr OP t2.attr",
    "where": "write filters as t1.attr OP constant",
}


def analyze_dc(
    rule: Any,
    where: str = "",
    info: TableInfo | None = None,
) -> list[Diagnostic]:
    """Validate a denial constraint against its target table's schema.

    ``rule`` is rule text, ``where`` its single-tuple filters, or ``rule``
    is a built :class:`~repro.cleaning.dc_kernel.DenialConstraint`.  Text
    is read by ``dc_kernel``'s own clause parser, one clause at a time, so
    a clause it rejects is CM301 at that clause's span.  What the parser
    builds is checked as a built constraint is: attribute existence against
    the target table (CM302), predicate/type compatibility (CM303), and
    trivial unsatisfiability (CM304): a conjunction whose ordering sets
    over the same attribute pair intersect to nothing — or single-tuple
    filters bounding one attribute to an empty interval — can never
    produce a violation, so running it would silently report a clean table.
    """
    from ..cleaning.dc_kernel import _parse_filter_clause, _parse_tuple_clause, _split_clauses

    diags: list[Diagnostic] = []
    whole: dict[str, Span | None] = dict.fromkeys(("rule", "where"))
    if isinstance(rule, str):
        predicates: Iterable[tuple[Any, Span | None]] = _parsed(
            rule, "rule", _parse_tuple_clause, diags
        )
        filters: Iterable[tuple[Any, Span | None]] = _parsed(
            where, "where", _parse_filter_clause, diags
        )
        whole = {"rule": SpanFinder(rule).at(0, len(rule))}
        whole["where"] = SpanFinder(where).at(0, len(where))
        empty = not _split_clauses(rule)
    else:
        predicates = [(p, None) for p in rule.predicates]
        filters = [(f, None) for f in rule.left_filters]
        empty = not rule.predicates
    if empty:
        message = "a denial constraint needs at least one predicate"
        return [_dc_error("CM301", message, whole["rule"], "rule")]
    _check_dc_predicates(predicates, info, whole["rule"], diags)
    _check_dc_filters(filters, info, whole["where"], diags)
    return diags


def _dc_error(
    code: str, message: str, span: Span | None, label: str, hint: str | None = None
) -> Diagnostic:
    return Diagnostic(code, "error", message, span, hint, label)


def _parsed(
    text: str, label: str, parse: Callable[[str], Any], diags: list[Diagnostic]
) -> Iterator[tuple[Any, Span]]:
    """Each clause of ``text`` as ``dc_kernel``'s ``parse`` builds it, with
    the clause's span; a clause the parser rejects is CM301 instead."""
    from ..cleaning.dc_kernel import _split_clauses

    finder = SpanFinder(text)
    end = 0
    for clause in _split_clauses(text):
        start = text.find(clause, end)
        end = start + len(clause)
        span = finder.at(start, len(clause))
        try:
            built = parse(clause)
        except ValueError as exc:
            diags.append(_dc_error("CM301", str(exc), span, label, _CLAUSE_SHAPES[label]))
            continue
        yield built, span


def _check_dc_predicates(
    predicates: Iterable[tuple[Any, Span | None]],
    info: TableInfo | None,
    whole: Span | None,
    diags: list[Diagnostic],
) -> None:
    # Per attribute pair: the orderings every predicate over it allows.
    order_sets: dict[tuple[str, str], tuple[set[str], list[str]]] = {}
    for pred, span in predicates:
        spelled = f"t1.{pred.left_attr} {pred.op} t2.{pred.right_attr}"
        if pred.op not in _ORDER_SETS:
            message = f"unknown operator {pred.op!r} in DC predicate {spelled}"
            diags.append(_dc_error("CM301", message, span, "rule", _CLAUSE_SHAPES["rule"]))
            continue
        _check_dc_attr(pred.left_attr, info, span, diags, "rule")
        _check_dc_attr(pred.right_attr, info, span, diags, "rule")
        _check_dc_types(pred, spelled, info, span, diags)
        pair = (pred.left_attr, pred.right_attr)
        allowed, ops = order_sets.setdefault(pair, ({"LT", "EQ", "GT"}, []))
        allowed &= _ORDER_SETS[pred.op]
        ops.append(spelled)

    for (left_attr, right_attr), (allowed, ops) in order_sets.items():
        if not allowed:
            message = (
                f"trivially unsatisfiable constraint: {' and '.join(ops)} "
                f"admits no ordering of (t1.{left_attr}, t2.{right_attr})"
            )
            hint = "the conjunction can never hold, so no pair can violate it"
            diags.append(_dc_error("CM304", message, whole, "rule", hint))


def _check_dc_attr(
    attr: str, info: TableInfo | None, span: Span | None, diags: list[Diagnostic], label: str
) -> None:
    if info is not None and _missing_column(info, attr):
        message = f"denial constraint references unknown attribute {attr!r}"
        diags.append(_dc_error("CM302", message, span, label, _did_you_mean(attr, info.columns)))


def _check_dc_types(
    pred: Any, spelled: str, info: TableInfo | None, span: Span | None,
    diags: list[Diagnostic],
) -> None:
    if info is None:
        return
    left = info.kind_of(pred.left_attr)
    right = info.kind_of(pred.right_attr)
    if left is None or right is None or left == right or {left, right} <= {"num", "bool"}:
        return
    if pred.op in _ORDERED_OPS:
        outcome = "the kernel raises TypeError on the first pair it compares"
    else:
        outcome = "no pair satisfies it" if pred.op == "==" else "every non-null pair satisfies it"
    message = f"DC predicate {spelled} compares incompatible types ({left} vs {right}); {outcome}"
    diags.append(_dc_error("CM303", message, span, "rule"))


def _check_dc_filters(
    filters: Iterable[tuple[Any, Span | None]],
    info: TableInfo | None,
    whole: Span | None,
    diags: list[Diagnostic],
) -> None:
    # Per attribute: the numeric interval and equality pins the filters allow.
    bounds: dict[str, dict[str, Any]] = {}
    for flt, span in filters:
        attr, op, value = flt.attr, flt.op, flt.value
        if op not in _ORDER_SETS:
            message = f"unknown operator {op!r} in DC filter on t1.{attr}"
            diags.append(_dc_error("CM301", message, span, "where", _CLAUSE_SHAPES["where"]))
            continue
        _check_dc_attr(attr, info, span, diags, "where")
        column = info.kind_of(attr) if info is not None else None
        const = _value_kind(value)
        if column and const and column != const and not {column, const} <= {"num", "bool"}:
            message = (
                f"filter t1.{attr} {op} {value!r} compares a "
                f"{column} column with a {const} constant"
            )
            diags.append(_dc_error("CM303", message, span, "where"))
        if isinstance(value, (int, float)):
            state = bounds.setdefault(
                attr, {"lo": float("-inf"), "hi": float("inf"), "eq": None}
            )
            if op in ("<", "<="):
                state["hi"] = min(state["hi"], value)
            elif op in (">", ">="):
                state["lo"] = max(state["lo"], value)
            elif op == "==":
                if state["eq"] is not None and state["eq"] != value:
                    state["lo"], state["hi"] = 1.0, 0.0  # force the report
                state["eq"] = value

    for attr, state in bounds.items():
        lo, hi, eq = state["lo"], state["hi"], state["eq"]
        if lo > hi or (eq is not None and not (lo <= eq <= hi)):
            message = f"filters on t1.{attr} admit no value (bounds collapse to an empty interval)"
            diags.append(_dc_error("CM304", message, whole, "where"))


# ---------------------------------------------------------------------- #
# Rendering
# ---------------------------------------------------------------------- #
def render_diagnostics(
    diagnostics: Sequence[Diagnostic],
    sources: Mapping[str, str] | str,
) -> str:
    """Human-readable report with caret-annotated source spans.

    ``sources`` maps each :attr:`Diagnostic.source_label` to its text
    (passing a bare string binds it to the ``"query"`` label).
    """
    if isinstance(sources, str):
        sources = {"query": sources}
    blocks: list[str] = []
    for diag in diagnostics:
        lines = [f"{diag.severity}[{diag.code}]: {diag.message}"]
        text = sources.get(diag.source_label)
        if diag.span is not None and text:
            source_lines = text.splitlines() or [""]
            row = min(max(diag.span.line, 1), len(source_lines)) - 1
            line_text = source_lines[row]
            label = diag.source_label
            lines.append(f"  --> {label}:{diag.span.line}:{diag.span.column}")
            lines.append(f"   | {line_text}")
            caret_col = max(diag.span.column - 1, 0)
            width = max(min(diag.span.length, len(line_text) - caret_col), 1)
            lines.append("   | " + " " * caret_col + "^" * width)
        if diag.hint:
            lines.append(f"   = help: {diag.hint}")
        blocks.append("\n".join(lines))
    return "\n".join(blocks)
