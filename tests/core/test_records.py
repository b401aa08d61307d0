"""Parity of ``repro._records`` with ``dataclasses``.

Every record class in the package is found by scanning its modules, so a new
record is covered without a line here, and gets a stdlib twin from
``dataclasses.make_dataclass`` with the same fields, field options and
``frozen`` flag (and the methods its body defines, so ``__post_init__``
runs on both).  On drawn field values the two must agree on construction,
``==``, ``hash``, ``repr``, ``replace``, the constructor's ``TypeError``
and the frozen ``AttributeError``, and a record must survive a pickle round
trip.  The test-local records below use the field options no launch record
uses today (``repr=False``, ``init=False`` with a factory), and two
classes with the same field names.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import pickle
import pkgutil
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import _records
from repro._records import Record, field, replace


class Options(Record):
    key: int
    hidden: str = field(default="", repr=False)
    bag: list = field(default_factory=list)
    later: list = field(default_factory=list, init=False)
    fixed: int = field(default=5, init=False)


class FrozenOptions(Record, frozen=True):
    key: int
    tags: tuple = field(default_factory=tuple)
    hidden: str = field(default="", repr=False)


class Pair(Record, frozen=True):
    left: int
    right: int = 0


class OtherPair(Record, frozen=True):
    left: int
    right: int = 0


def _scan() -> list[type]:
    found = {Options, FrozenOptions, Pair, OtherPair}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue
        module = importlib.import_module(info.name)
        found.update(
            value for value in vars(module).values()
            if isinstance(value, type) and issubclass(value, Record) and value is not Record
            and value.__module__ == module.__name__
        )
    return sorted(found, key=lambda cls: (cls.__module__, cls.__qualname__))


RECORDS = _scan()
BY_NAME = {cls.__name__: cls for cls in RECORDS}
_INSTALLED = {_records._init, _records._repr, _records._eq, _records._hash}


def is_frozen(cls: type) -> bool:
    return cls.__setattr__ is _records._frozen_setattr


def annotations(cls: type) -> dict[str, str]:
    out: dict[str, str] = {}
    for klass in reversed(cls.__mro__):
        out.update(vars(klass).get("__annotations__", {}))
    return out


def make_twin(cls: type) -> type:
    notes, specs = annotations(cls), []
    for f in cls.__record_fields__:
        options = {"init": f.init, "repr": f.repr}
        if f.default is not _records._MISSING:
            options["default"] = f.default
        if f.default_factory is not _records._MISSING:
            options["default_factory"] = f.default_factory
        specs.append((f.name, notes[f.name], dataclasses.field(**options)))
    names = {f.name for f in cls.__record_fields__}
    body = {
        name: value for name, value in vars(cls).items()
        if name not in names and not name.startswith("__record_")
        and not any(value is method for method in _INSTALLED)
        and name not in ("__dict__", "__weakref__", "__hash__", "__setattr__", "__delattr__")
    }
    return dataclasses.make_dataclass(cls.__name__, specs, namespace=body, frozen=is_frozen(cls))


TWINS = {cls: make_twin(cls) for cls in RECORDS}

SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.text("ab", max_size=2))
HASHABLE = st.recursive(SCALARS, lambda inner: st.tuples(inner, inner), max_leaves=4)


def values_for(note: str, deep: bool) -> st.SearchStrategy:
    """Values of a field annotated ``note``.  A field's type matters only to a
    ``__post_init__`` (``deep``): there a record-typed field gets records."""
    items = re.fullmatch(r"list\[(\w+)\]", note)
    if items:
        return st.lists(values_for(items[1], deep), max_size=2)
    if deep and note in BY_NAME:
        return arguments(BY_NAME[note]).map(lambda args: BY_NAME[note](*args))
    basic = {
        "int": st.integers(-3, 3), "float": st.floats(-2, 2), "str": st.text("ab", max_size=3),
        "bool": st.booleans(), "list": st.lists(SCALARS, max_size=2),
    }
    return basic.get(note, HASHABLE)


@functools.cache
def arguments(cls: type) -> st.SearchStrategy:
    """Every init field's value, in order."""
    notes = annotations(cls)
    deep = cls.__record_post__
    return st.tuples(*(values_for(notes[name], deep) for name in cls.__record_init__))


def outcome(fn, *args, **kwargs):
    try:
        return "value", fn(*args, **kwargs)
    except AttributeError:  # a twin raises FrozenInstanceError, a subclass
        return "raises", AttributeError
    except Exception as exc:
        return "raises", type(exc)


def state(obj, cls: type) -> dict:
    return {f.name: outcome(getattr, obj, f.name) for f in cls.__record_fields__}


def required(cls: type) -> int:
    return sum(
        f.default is _records._MISSING and f.default_factory is _records._MISSING
        for f in cls.__record_fields__ if f.init
    )


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: f"{cls.__module__}.{cls.__qualname__}")
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_a_record_behaves_as_its_dataclass_twin(cls, data):
    twin, names = TWINS[cls], cls.__record_init__
    args, other, given_count, pick, values = data.draw(st.tuples(
        arguments(cls), arguments(cls), st.integers(required(cls), len(names)),
        st.integers(0, max(len(names) - 1, 0)), st.lists(SCALARS, min_size=8, max_size=8),
    ))
    record, copy, peer = cls(*args), cls(*args), cls(*other)
    mirror, mirror_copy, mirror_peer = twin(*args), twin(*args), twin(*other)
    assert state(record, cls) == state(mirror, cls)
    assert (record == copy, record == peer, record != peer) == (
        mirror == mirror_copy, mirror == mirror_peer, mirror != mirror_peer
    )
    assert outcome(hash, record) == outcome(hash, mirror)
    if outcome(hash, record)[0] == "value":
        assert (hash(record) == hash(copy)) == (hash(mirror) == hash(mirror_copy))
    if "__repr__" not in vars(cls) or vars(cls)["__repr__"] is _records._repr:
        assert repr(record) == repr(mirror)
    by_name = cls(**dict(zip(names, args)))
    assert state(by_name, cls) == state(twin(**dict(zip(names, args))), cls)
    # Defaults and factories: a fresh value per instance, as the twin's.
    short, short_again = cls(*args[:given_count]), cls(*args[:given_count])
    mirror_short, mirror_short_again = twin(*args[:given_count]), twin(*args[:given_count])
    assert state(short, cls) == state(mirror_short, cls)
    for f in cls.__record_fields__:
        if f.default_factory is not _records._MISSING:
            assert (getattr(short, f.name) is getattr(short_again, f.name)) == (
                getattr(mirror_short, f.name) is getattr(mirror_short_again, f.name)
            )
    if names:
        name, value = names[pick], other[pick]
        assert state(replace(record, **{name: value}), cls) == state(
            dataclasses.replace(mirror, **{name: value}), cls
        )
    for f in cls.__record_fields__:
        if not f.init:
            assert outcome(replace, record, **{f.name: 1})[1] is ValueError
    for f, value in zip(cls.__record_fields__, values * 4):
        assert outcome(setattr, record, f.name, value) == outcome(setattr, mirror, f.name, value)
        assert outcome(delattr, copy, f.name)[0] == outcome(delattr, mirror_copy, f.name)[0]


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: f"{cls.__module__}.{cls.__qualname__}")
@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_a_bad_constructor_call_is_a_type_error_for_both(cls, data):
    twin, names = TWINS[cls], cls.__record_init__
    args = data.draw(arguments(cls))
    calls = [((*args, 0), {}), (args, {"no_such_field": 0})]
    if required(cls):
        calls.append((args[: required(cls) - 1], {}))
    if names:
        calls.append((args, {names[0]: args[0]}))
    for positional, keywords in calls:
        assert outcome(cls, *positional, **keywords) == ("raises", TypeError)
        assert outcome(twin, *positional, **keywords) == ("raises", TypeError)


def test_records_of_two_classes_with_equal_field_values_differ():
    """``==`` holds within one exact class only, as a dataclass's does."""
    assert Pair(1, 2) != OtherPair(1, 2) and not Pair(1, 2) == OtherPair(1, 2)
    assert TWINS[Pair](1, 2) != TWINS[OtherPair](1, 2)
    plain = [cls for cls in RECORDS if not cls.__record_post__]
    by_arity: dict[int, list[type]] = {}
    for cls in plain:
        by_arity.setdefault(len(cls.__record_init__), []).append(cls)
    pairs = [(a, b) for group in by_arity.values() for a, b in zip(group, group[1:])]
    assert len(pairs) > 20  # the scan found the package's records
    for a, b in pairs:
        values = tuple(range(len(a.__record_init__)))
        assert a(*values) != b(*values) and not a(*values) == b(*values)
        assert TWINS[a](*values) != TWINS[b](*values)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: f"{cls.__module__}.{cls.__qualname__}")
@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_a_record_survives_a_pickle_round_trip(cls, data):
    record = cls(*data.draw(arguments(cls)))
    back = pickle.loads(pickle.dumps(record))
    assert type(back) is cls and state(back, cls) == state(record, cls)
    if is_frozen(cls):
        with pytest.raises(AttributeError):
            setattr(back, next((f.name for f in cls.__record_fields__), "anything"), 1)


def test_the_wire_records_round_trip():
    from repro.engine.metrics import OpMetrics
    from repro.engine.worker import StoreRef
    from repro.monoid.expressions import BinOp, Const, Proj, Var, compiled

    ref = StoreRef("t", 3, 1, 40)
    assert pickle.loads(pickle.dumps(ref)) == ref and hash(pickle.loads(pickle.dumps(ref))) == hash(ref)
    op = OpMetrics("fd:keyBy", [1.0, 2.5], shuffled_records=3, retries=1)
    assert pickle.loads(pickle.dumps(op)) == op
    expr = BinOp("+", Proj(Var("x"), "a"), Const(1))
    run = compiled(expr)
    assert vars(expr)["_compiled"] is run
    back = pickle.loads(pickle.dumps(expr))
    assert back == expr and hash(back) == hash(expr) and "_compiled" not in vars(back)
    assert compiled(back)({"x": {"a": 2}}) == 3
