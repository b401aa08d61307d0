"""Static shippability probes and labeled broken-blob diagnostics.

The parallel lowering used to prove every input picklable by running
``pickle.dumps`` over the whole table; the static probes here replace
that with an O(sample) type-walk.  The safety net for what sampling can
miss is the labeled ``_BrokenBlob``: when a blob does explode in a
worker, the error must *name* the pin or task function that produced it,
not just a function id.
"""

import pytest

from repro.core.shippable import is_module_level_callable, rows_statically_shippable
from repro.engine import WorkerPool


def _module_func(x):
    return x + 1


class _Plain:
    """Picklable by the normal instance protocol."""

    def __init__(self, v):
        self.v = v


def _explode():
    raise RuntimeError("poisoned payload")


class _Bomb:
    """Pickles fine on the driver; raises when unpickled in a worker."""

    def __reduce__(self):
        return (_explode, ())


class _BombFunc:
    """A callable whose blob explodes on load — a broken task function."""

    def __call__(self, part):
        return part

    def __reduce__(self):
        return (_explode, ())


class TestIsModuleLevelCallable:
    def test_module_function(self):
        assert is_module_level_callable(_module_func)

    def test_lambda(self):
        assert not is_module_level_callable(lambda x: x)

    def test_nested_function(self):
        def inner(x):
            return x

        assert not is_module_level_callable(inner)

    def test_non_callable_attributes(self):
        assert not is_module_level_callable(_Plain(1))


class TestRowsStaticallyShippable:
    def test_scalar_rows(self):
        rows = [{"a": 1, "b": "x", "c": None, "d": 1.5, "e": True}] * 10
        assert rows_statically_shippable(rows)

    def test_nested_containers(self):
        rows = [{"a": [1, (2, 3)], "b": {"k"}, "c": frozenset({4})}]
        assert rows_statically_shippable(rows)

    def test_lambda_value_rejected(self):
        assert not rows_statically_shippable([{"f": lambda: None}])

    def test_exotic_but_picklable_value_accepted(self):
        # Unknown types fall back to a per-value pickle probe.
        assert rows_statically_shippable([{"obj": _Plain(7)}])

    def test_sampling_bounds_the_probe(self):
        rows = [{"a": 1} for _ in range(300)]
        rows.append({"f": lambda: None})  # beyond the 256-row sample
        assert rows_statically_shippable(rows, sample=256)
        assert not rows_statically_shippable(rows, sample=400)


@pytest.fixture
def pool():
    p = WorkerPool(2)
    yield p
    p.shutdown()


class TestPinnedVersions:
    def test_reports_resident_versions(self, pool):
        pool.pin("tbl:t", 1, [[1, 2], [3]])
        assert pool.pinned_versions("tbl:t") == [1]
        pool.pin("tbl:t", 2, [[1], [2]])
        assert 2 in pool.pinned_versions("tbl:t")

    def test_unknown_name_is_empty(self, pool):
        assert pool.pinned_versions("tbl:ghost") == []


class TestBrokenBlobLabels:
    def test_broken_pin_names_the_partition(self, pool):
        refs = pool.pin("tbl:bomb", 3, [[_Bomb()]])
        with pytest.raises(Exception) as exc:
            pool.run(_module_func, [(refs[0],)])
        message = str(exc.value)
        assert "failed to unpickle in the worker" in message
        assert "pinned partition 'tbl:bomb' v3 part 0" in message
        assert "poisoned payload" in message

    def test_broken_task_function_names_the_function(self, pool):
        with pytest.raises(Exception) as exc:
            pool.run(_BombFunc(), [(1,)])
        message = str(exc.value)
        assert "failed to unpickle in the worker" in message
        assert "task function" in message
        assert "poisoned payload" in message
