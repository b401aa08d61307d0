"""Property-based tests for the driver-side exchange
(`engine.shuffle.exchange`).

Its routing is the contract every wide dependency shares — the resident
exchange the worker pool runs is held to it by ``test_partition_store.py``
and ``test_stage_fusion_props.py``:

* the multiset of records is preserved for any partition count;
* records with equal keys are co-located in one output partition;
* hash and sort (range) strategies agree on *grouped* results;
* two runs produce byte-identical partition contents.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Cluster
from repro.engine.shuffle import exchange

# Homogeneous key pools keep range partitioning well-defined (keys must be
# mutually comparable); records are (key, value) pairs.
int_keyed = st.lists(
    st.tuples(st.integers(0, 12), st.integers(-100, 100)), min_size=0, max_size=80
)
str_keyed = st.lists(
    st.tuples(st.text("abcde", min_size=0, max_size=4), st.integers(-100, 100)),
    min_size=0,
    max_size=80,
)
keyed_records = int_keyed | str_keyed

source_partitions = st.integers(min_value=1, max_value=6)
target_partitions = st.integers(min_value=1, max_value=7)
kinds = st.sampled_from(["hash", "sort", "local"])


def _split(data, parts):
    out = [[] for _ in range(parts)]
    for i, record in enumerate(data):
        out[i % parts].append(record)
    return out


@settings(max_examples=40)
@given(keyed_records, source_partitions, target_partitions, kinds)
def test_exchange_preserves_multiset(data, src, n, kind):
    cluster = Cluster(num_nodes=3)
    out, moved, cost = exchange(cluster, _split(data, src), n, kind=kind)
    assert moved == len(data)
    assert cost >= 0.0
    flat = [record for part in out for record in part]
    assert sorted(map(repr, flat)) == sorted(map(repr, data))


@settings(max_examples=40)
@given(keyed_records, source_partitions, target_partitions, kinds)
def test_exchange_colocates_equal_keys(data, src, n, kind):
    cluster = Cluster(num_nodes=3)
    out, _, _ = exchange(cluster, _split(data, src), n, kind=kind)
    location: dict = {}
    for index, part in enumerate(out):
        for key, _ in part:
            assert location.setdefault(repr(key), index) == index


@settings(max_examples=40)
@given(keyed_records, source_partitions, target_partitions)
def test_hash_and_sort_agree_on_grouped_results(data, src, n):
    cluster = Cluster(num_nodes=3)
    grouped = {}
    for kind in ("hash", "sort"):
        out, _, _ = exchange(cluster, _split(data, src), n, kind=kind)
        groups: dict = {}
        for part in out:
            for key, value in part:
                groups.setdefault(repr(key), []).append(value)
        grouped[kind] = {k: sorted(v) for k, v in groups.items()}
    assert grouped["hash"] == grouped["sort"]


@settings(max_examples=40)
@given(keyed_records, source_partitions, target_partitions)
def test_exchange_is_deterministic_in_order(data, src, n):
    """Two serial runs produce byte-identical partition contents."""
    cluster = Cluster(num_nodes=3)
    first, _, _ = exchange(cluster, _split(data, src), n, kind="hash")
    second, _, _ = exchange(cluster, _split(data, src), n, kind="hash")
    assert repr(first) == repr(second)
