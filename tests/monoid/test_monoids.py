"""Unit tests for the monoid definitions and law checking."""

import math

import pytest

from repro.errors import MonoidError
from repro.monoid import (
    AllMonoid,
    AnyMonoid,
    AvgMonoid,
    BagMonoid,
    CountMonoid,
    GroupMonoid,
    ListMonoid,
    MaxMonoid,
    MinMonoid,
    MultiGroupMonoid,
    SetMonoid,
    SumMonoid,
    check_monoid_laws,
    get_monoid,
    register_monoid,
)


class TestPrimitiveMonoids:
    def test_sum_fold(self):
        assert SumMonoid().fold([1, 2, 3]) == 6

    def test_count_fold_ignores_values(self):
        assert CountMonoid().fold(["a", "b", None]) == 3

    def test_max_fold(self):
        assert MaxMonoid().fold([3, 9, 1]) == 9

    def test_max_zero_is_identity(self):
        m = MaxMonoid()
        assert m.merge(m.zero(), 5) == 5

    def test_min_fold(self):
        assert MinMonoid().fold([3, 9, 1]) == 1

    def test_min_zero(self):
        assert MinMonoid().zero() == math.inf

    def test_all_monoid(self):
        assert AllMonoid().fold([True, True]) is True
        assert AllMonoid().fold([True, False]) is False
        assert AllMonoid().fold([]) is True

    def test_any_monoid(self):
        assert AnyMonoid().fold([False, True]) is True
        assert AnyMonoid().fold([]) is False


class TestCollectionMonoids:
    def test_list_is_ordered(self):
        m = ListMonoid()
        assert m.fold([1, 2, 3]) == [1, 2, 3]
        assert not m.commutative

    def test_bag_fold(self):
        assert sorted(BagMonoid().fold([2, 1, 2])) == [1, 2, 2]

    def test_set_dedupes(self):
        assert SetMonoid().fold([1, 1, 2]) == frozenset({1, 2})

    def test_set_idempotent_flag(self):
        assert SetMonoid().idempotent

    def test_collection_flag_marks_exactly_the_collection_monoids(self):
        """The one predicate the normalizer and the three executors read."""
        collections = [ListMonoid(), BagMonoid(), SetMonoid(), GroupMonoid(),
                       MultiGroupMonoid(keys_func=lambda x: [x])]
        scalars = [SumMonoid(), CountMonoid(), MaxMonoid(), MinMonoid(), AllMonoid(),
                   AnyMonoid(), AvgMonoid()]
        assert all(m.collection for m in collections)
        assert not any(m.collection for m in scalars)


class TestGroupMonoid:
    def test_groups_by_key(self):
        m = GroupMonoid(key_func=lambda x: x % 2)
        result = m.fold([1, 2, 3, 4])
        assert sorted(result[0]) == [2, 4]
        assert sorted(result[1]) == [1, 3]

    def test_value_func_projects(self):
        m = GroupMonoid(key_func=lambda r: r["k"], value_func=lambda r: r["v"])
        result = m.fold([{"k": "a", "v": 1}, {"k": "a", "v": 2}])
        assert sorted(result["a"]) == [1, 2]

    def test_merge_combines_same_keys(self):
        m = GroupMonoid(key_func=lambda x: "all")
        left = m.unit(1)
        right = m.unit(2)
        assert sorted(m.merge(left, right)["all"]) == [1, 2]


class TestMultiGroupMonoid:
    def test_element_lands_in_every_key(self):
        m = MultiGroupMonoid(keys_func=lambda x: [x, x + 1])
        result = m.fold([5])
        assert set(result) == {5, 6}

    def test_inner_set_semantics(self):
        m = MultiGroupMonoid(keys_func=lambda x: ["k"])
        assert m.fold(["a", "a"])["k"] == frozenset({"a"})


class TestLawChecking:
    def test_laws_hold_for_sum(self):
        check_monoid_laws(SumMonoid(), [1, 2, 3])

    def test_laws_hold_for_bag_with_canonicalization(self):
        check_monoid_laws(BagMonoid(), [1, 2, 3], normalize=sorted)

    def test_laws_catch_broken_monoid(self):
        class Broken(SumMonoid):
            def merge(self, a, b):
                return a - b  # not associative, zero not identity

        with pytest.raises(MonoidError):
            check_monoid_laws(Broken(), [1, 2, 3])


class TestRegistry:
    def test_lookup_known(self):
        assert get_monoid("sum").name == "sum"
        assert get_monoid("bag").name == "bag"

    def test_lookup_unknown(self):
        with pytest.raises(MonoidError):
            get_monoid("median")

    def test_register_extension(self):
        class ProductMonoid(SumMonoid):
            name = "product"

            def zero(self):
                return 1

            def merge(self, a, b):
                return a * b

        register_monoid("product", ProductMonoid)
        assert get_monoid("product").fold([2, 3, 4]) == 24
