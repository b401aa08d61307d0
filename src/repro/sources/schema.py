"""Schemas and record helpers for heterogeneous data sources (§7).

CleanDB queries data "over multiple different types of data sources";
records are plain dictionaries, and a :class:`Schema` describes attribute
names/types for the formats that need them (CSV and the columnar format).
Nested attributes (lists of records, e.g. a publication's author list) are
first-class: flattening to relational form is an explicit, lossy operation
(:func:`flatten_records`) whose cost the Fig. 7 experiment measures.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

from .._records import Record
from ..errors import SchemaError

_CASTS: dict[str, Callable[[Any], Any]] = {
    "int": int,
    "float": float,
    "str": str,
    "bool": lambda v: v in (True, "true", "True", "1", 1),
    "list": lambda v: v if isinstance(v, list) else [v],
}


class Field(Record, frozen=True):
    """One attribute: a name, a scalar type, or ``list`` for nested data."""

    name: str
    type: str = "str"  # int | float | str | bool | list

    def caster(self) -> Callable[[Any], Any]:
        """The cast rule as a callable, so that a reader resolves the type
        once per column instead of once per cell."""
        name, kind, convert = self.name, self.type, _CASTS.get(self.type)

        def cast(raw: Any) -> Any:
            if raw is None or raw == "":
                return None
            if convert is None:
                raise SchemaError(f"unknown field type {kind!r}")
            try:
                return convert(raw)
            except (TypeError, ValueError):
                raise SchemaError(
                    f"cannot cast {raw!r} to {kind} for field {name!r}"
                ) from None

        return cast

    def cast(self, raw: Any) -> Any:
        return self.caster()(raw)


class Schema(Record, frozen=True):
    """An ordered collection of fields."""

    fields: tuple[Field, ...]

    @staticmethod
    def of(**types: str) -> "Schema":
        return Schema(tuple(Field(name, t) for name, t in types.items()))

    @property
    def names(self) -> list[str]:
        return [f.name for f in self.fields]

    def field(self, name: str) -> Field:
        for f in self.fields:
            if f.name == name:
                return f
        raise SchemaError(f"schema has no field {name!r}")

    def casters(self) -> list[Callable[[Any], Any]]:
        """One cast callable per field, in field order (see :meth:`Field.caster`)."""
        return [f.caster() for f in self.fields]


def flatten_records(
    records: Iterable[dict[str, Any]], list_attr: str
) -> list[dict[str, Any]]:
    """Relational flattening: one output row per element of ``list_attr``.

    This is what "common practice followed by relational systems" does to
    nested data (§8.3): a publication with n authors becomes n rows, which is
    why the flat CSV version of DBLP is much larger than the nested one.
    Empty lists keep one row with ``None``.
    """
    out: list[dict[str, Any]] = []
    for record in records:
        items = record.get(list_attr) or [None]
        for item in items:
            flat = dict(record)
            flat[list_attr] = item
            out.append(flat)
    return out
