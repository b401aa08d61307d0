"""Unit tests for the k-means pruning primitives."""

import pytest

from repro.cleaning import assign_to_centers, reservoir_sample


class TestReservoirSample:
    def test_sample_size(self):
        assert len(reservoir_sample(list(range(100)), 10)) == 10

    def test_small_input_returned_whole(self):
        assert reservoir_sample([1, 2], 10) == [1, 2]

    def test_deterministic_for_seed(self):
        a = reservoir_sample(list(range(1000)), 5, seed=3)
        b = reservoir_sample(list(range(1000)), 5, seed=3)
        assert a == b

    def test_different_seeds_differ(self):
        a = reservoir_sample(list(range(1000)), 5, seed=1)
        b = reservoir_sample(list(range(1000)), 5, seed=2)
        assert a != b

    def test_roughly_uniform(self):
        # Each element should be chosen with probability k/n.
        counts = {i: 0 for i in range(20)}
        for seed in range(300):
            for x in reservoir_sample(list(range(20)), 5, seed=seed):
                counts[x] += 1
        expected = 300 * 5 / 20
        assert all(expected * 0.5 < c < expected * 1.5 for c in counts.values())

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            reservoir_sample([1], 0)


class TestAssignToCenters:
    def test_single_closest(self):
        assert assign_to_centers("aaaa", ["aaab", "zzzz"]) == [0]

    def test_delta_widens_assignment(self):
        indices = assign_to_centers("abcx", ["abcd", "abce"], delta=1.0)
        assert indices == [0, 1]

    def test_no_centers(self):
        with pytest.raises(ValueError):
            assign_to_centers("x", [])
