"""Records without generated code: the ``dataclasses`` subset the compiler uses.

``@dataclass`` exec-compiles four methods per class and imports ``inspect``,
a sixth of a cold ``repro query``.  A :class:`Record` subclass is read once,
in ``__init_subclass__``, and shares plain methods with every record; what
they keep of ``dataclasses`` is listed on :class:`Record`.
"""

from __future__ import annotations

from operator import attrgetter
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # typing has it only from Python 3.11 on
    from typing_extensions import dataclass_transform
else:
    def dataclass_transform(**_):
        return lambda cls: cls

_MISSING: Any = object()


class Field:
    __slots__ = ("name", "default", "default_factory", "init", "repr")

    def __init__(self, default: Any, default_factory: Any, init: bool, repr: bool):
        self.name, self.default, self.default_factory = "", default, default_factory
        self.init, self.repr = init, repr


def field(
    *, default: Any = _MISSING, default_factory: Any = _MISSING, init: bool = True, repr: bool = True,
) -> Any:
    return Field(default, default_factory, init, repr)


def _init(self: Any, *args: Any, **kwargs: Any) -> None:
    cls = type(self)
    if len(args) == cls.__record_arity__ and not kwargs:  # every field, in order
        self.__dict__.update(zip(cls.__record_init__, args))
    else:
        names, state = cls.__record_init__, self.__dict__
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__}() takes {len(names)} arguments, {len(args)} given")
        given = dict(zip(names, args))
        for name, value in kwargs.items():
            if name in given or name not in names:
                raise TypeError(f"{cls.__name__}() got a repeated or unknown argument {name!r}")
            given[name] = value
        for f in cls.__record_fields__:
            if f.name in given:
                state[f.name] = given[f.name]
            elif f.default_factory is not _MISSING:
                state[f.name] = f.default_factory()
            elif f.init and f.default is not _MISSING:
                state[f.name] = f.default
            elif f.init:
                raise TypeError(f"{cls.__name__}() missing argument {f.name!r}")
    if cls.__record_post__:
        self.__post_init__()


def _repr(self: Any) -> str:
    shown = (f"{f.name}={getattr(self, f.name)!r}" for f in self.__record_fields__ if f.repr)
    return f"{type(self).__qualname__}({', '.join(shown)})"


def _eq(self: Any, other: Any) -> Any:
    if other.__class__ is not self.__class__:
        return NotImplemented
    key = self.__class__.__record_key__
    return key(self) == key(other)


def _hash(self: Any) -> int:
    return hash(self.__class__.__record_key__(self))


def _frozen_setattr(self: Any, name: str, value: Any = None) -> None:
    raise AttributeError(f"cannot assign to or delete field {name!r}")


@dataclass_transform(field_specifiers=(field,))
class Record:
    """``class P(Record, frozen=True)`` is ``@dataclass(frozen=True) class P``:
    positional-then-keyword construction with defaults and factories,
    ``init=False`` fields and ``__post_init__``, ``==`` within one exact
    class over every field, a field hash if frozen and none if
    not, the dataclass ``repr``, and ``AttributeError`` on assigning to a
    frozen record.  A method the class body defines is kept."""

    def __init_subclass__(cls, frozen: bool = False, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        fields = {f.name: f for f in getattr(cls, "__record_fields__", ())}
        for name in cls.__dict__.get("__annotations__", {}):
            value = cls.__dict__.get(name, _MISSING)
            if not isinstance(value, Field):
                value = Field(value, _MISSING, True, True)
            elif value.default is _MISSING:
                delattr(cls, name)
            else:
                setattr(cls, name, value.default)
            value.name = name
            fields[name] = value
        cls.__record_fields__ = tuple(fields.values())
        cls.__record_init__ = tuple(f.name for f in fields.values() if f.init)
        # the fast path's argument count: -1 when a field is not an argument
        cls.__record_arity__ = len(fields) if len(cls.__record_init__) == len(fields) else -1
        if len(fields) == 1:  # the key is a tuple, as a dataclass hashes one
            one = attrgetter(*fields)
            cls.__record_key__ = staticmethod(lambda record: (one(record),))
        else:
            cls.__record_key__ = attrgetter(*fields) if fields else staticmethod(lambda _: ())
        cls.__record_post__ = hasattr(cls, "__post_init__")
        own = dict(cls.__dict__)
        if "__hash__" not in own or (own["__hash__"] is None and "__eq__" in own):
            cls.__hash__ = _hash if frozen else None  # type: ignore[assignment]
        for name, method in (("__init__", _init), ("__repr__", _repr), ("__eq__", _eq)):
            if name not in own:
                setattr(cls, name, method)
        if frozen:
            cls.__setattr__ = cls.__delattr__ = _frozen_setattr  # type: ignore[assignment]


def replace(record: Any, /, **changes: Any) -> Any:
    """A copy of ``record`` with ``changes``, built through its constructor
    (factories and ``__post_init__`` run again), as ``dataclasses.replace``."""
    for f in record.__record_fields__:
        if not f.init:
            if f.name in changes:
                raise ValueError(f"field {f.name!r} is init=False; replace() cannot set it")
        elif f.name not in changes:
            changes[f.name] = getattr(record, f.name)
    return type(record)(**changes)
