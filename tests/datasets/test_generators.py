"""Unit tests for the workload generators and noise injection."""

import random

import pytest

from repro.cleaning import levenshtein_similarity
from repro.datasets import (
    author_pool,
    generate_customer,
    generate_dblp,
    generate_lineitem,
    generate_mag,
    inject_value_noise,
    perturb_string,
    rule_phi,
    rule_psi,
    zipf_int,
)


class TestNoise:
    def test_perturb_changes_string(self):
        rng = random.Random(1)
        for word in ("hello", "a", "some longer phrase"):
            assert perturb_string(word, 0.2, rng) != word

    def test_perturb_rate_zero_identity(self):
        rng = random.Random(1)
        assert perturb_string("same", 0.0, rng) == "same"

    def test_perturb_respects_rate_roughly(self):
        rng = random.Random(2)
        word = "abcdefghijklmnopqrst"  # 20 chars
        light = perturb_string(word, 0.1, rng)
        assert levenshtein_similarity(word, light) >= 0.8

    def test_inject_value_noise_uses_domain(self):
        records = [{"k": 10_000 + i} for i in range(100)]
        noisy, edited = inject_value_noise(records, "k", 0.3, [1, 2, 3], seed=5)
        assert len(edited) == 30
        assert all(noisy[i]["k"] in (1, 2, 3) for i in edited)

    def test_zipf_int_bounds(self):
        rng = random.Random(1)
        values = [zipf_int(rng, 1.5, 1, 50) for _ in range(500)]
        assert min(values) >= 1 and max(values) <= 50

    def test_zipf_int_is_skewed(self):
        rng = random.Random(1)
        values = [zipf_int(rng, 1.5, 1, 50) for _ in range(2000)]
        ones = sum(1 for v in values if v == 1)
        assert ones > len(values) * 0.2


class TestLineitem:
    def test_row_count_scales(self):
        assert len(generate_lineitem(30)) == 2 * len(generate_lineitem(15))

    def test_deterministic(self):
        assert generate_lineitem(15) == generate_lineitem(15)

    def test_noise_domain_is_base_sf(self):
        from repro.datasets.tpch import BASE_SF, ROWS_PER_SF

        li = generate_lineitem(70)
        base_orders = BASE_SF * ROWS_PER_SF // 4
        assert all(r["orderkey"] <= 70 * ROWS_PER_SF // 4 + 1 for r in li)
        # noise pushed 10% of keys into the base domain, creating collisions
        small = sum(1 for r in li if r["orderkey"] <= base_orders)
        assert small > len(li) * 0.25

    def test_fd_violations_exist(self):
        from repro.cleaning import check_fd
        from repro.engine import Cluster

        li = generate_lineitem(15)
        lhs, rhs = rule_phi()
        c = Cluster(num_nodes=4)
        violations = check_fd(c.parallelize(li), lhs, rhs).collect()
        assert violations

    def test_discount_noise_column(self):
        li = generate_lineitem(15, noise_column="discount")
        assert all(0 <= r["discount"] <= 0.1 for r in li)

    def test_unknown_noise_column(self):
        with pytest.raises(ValueError):
            generate_lineitem(15, noise_column="suppkey")

    def test_rule_psi_structure(self):
        psi = rule_psi(price_cap=1000.0)
        assert psi.left_filters[0].value == 1000.0
        assert len(psi.predicates) == 2


class TestCustomer:
    def test_duplicates_created_with_ground_truth(self):
        data = generate_customer(num_customers=100, seed=5)
        assert len(data.records) > 100
        assert data.duplicate_pairs
        rids = {r["_rid"] for r in data.records}
        assert all(a in rids and b in rids for a, b in data.duplicate_pairs)

    def test_duplicates_similar_to_originals(self):
        data = generate_customer(num_customers=50, seed=7)
        by_rid = {r["_rid"]: r for r in data.records}
        for a, b in list(data.duplicate_pairs)[:20]:
            sim = levenshtein_similarity(by_rid[a]["name"], by_rid[b]["name"])
            assert sim > 0.5

    def test_max_duplicates_respected(self):
        data = generate_customer(num_customers=50, max_duplicates=3, seed=7)
        from collections import Counter

        counts = Counter()
        for a, b in data.duplicate_pairs:
            counts[a] += 1
        # a cluster of size 1+3 yields at most C(4,2)=6 pairs
        assert all(v <= 6 for v in counts.values())


class TestDBLP:
    def test_nested_authors(self):
        data = generate_dblp(num_publications=50, num_authors=20, seed=2)
        assert all(isinstance(r["authors"], list) for r in data.records)

    def test_dictionary_is_clean_pool(self):
        data = generate_dblp(num_publications=50, num_authors=20, seed=2)
        assert len(data.dictionary) == 20

    def test_dirty_names_ground_truth(self):
        data = generate_dblp(num_publications=200, num_authors=40, seed=2)
        assert data.dirty_names
        for dirty, clean in data.dirty_names.items():
            assert clean in data.dictionary
            assert dirty not in data.dictionary

    def test_noise_rate_controls_similarity(self):
        light = generate_dblp(num_publications=200, noise_rate=0.2, seed=3)
        heavy = generate_dblp(num_publications=200, noise_rate=0.4, seed=3)
        def mean_sim(d):
            sims = [
                levenshtein_similarity(dirty, clean)
                for dirty, clean in d.dirty_names.items()
            ]
            return sum(sims) / len(sims)
        assert mean_sim(heavy) < mean_sim(light)

    def test_duplicates_share_title_and_journal(self):
        data = generate_dblp(num_publications=100, dup_fraction=0.2, seed=4)
        assert data.duplicate_pairs
        for a, b in data.duplicate_pairs:
            assert data.records[a]["title"] == data.records[b]["title"]
            assert data.records[a]["journal"] == data.records[b]["journal"]

    def test_uniform_titles_unique(self):
        data = generate_dblp(num_publications=100, uniform_titles=True, seed=5)
        titles = [r["title"] for r in data.records]
        assert len(set(titles)) == len(titles)

    def test_skewed_titles_repeat(self):
        data = generate_dblp(num_publications=200, uniform_titles=False, seed=5)
        titles = [r["title"] for r in data.records]
        assert len(set(titles)) < len(titles) / 2


class TestMAG:
    def test_duplicates_with_ground_truth(self):
        data = generate_mag(num_papers=200, seed=6)
        assert data.duplicate_pairs
        for a, b in list(data.duplicate_pairs)[:20]:
            assert data.records[a]["year"] == data.records[b]["year"]
            assert data.records[a]["author_id"] == data.records[b]["author_id"]

    def test_missing_fields_injected(self):
        data = generate_mag(num_papers=400, seed=6)
        assert any(
            r["doi"] is None or r["affiliation"] is None or r["rank"] is None
            for r in data.records
        )

    def test_year_subset(self):
        data = generate_mag(num_papers=300, seed=6)
        subset = data.year_subset(2010)
        assert subset.records
        assert all(r["year"] == 2010 for r in subset.records)
        rids = {r["_rid"] for r in subset.records}
        assert all(a in rids and b in rids for a, b in subset.duplicate_pairs)

    def test_author_skew(self):
        from collections import Counter

        data = generate_mag(num_papers=500, seed=6)
        counts = Counter(r["author_id"] for r in data.records)
        top = counts.most_common(1)[0][1]
        assert top > len(data.records) / 25  # far above uniform


class TestAuthorPool:
    def test_distinct(self):
        pool = author_pool(100, seed=1)
        assert len(set(pool)) == 100

    def test_deterministic(self):
        assert author_pool(50, seed=2) == author_pool(50, seed=2)
