"""Unit tests for the worker-resident partition store.

The load-bearing contracts: data pinned once is referenced by handle ever
after (no row re-shipping), task functions register once per worker instead
of riding in every payload, eviction and version bumps make stale handles
*fail* rather than serve old rows, and a worker death heals in place — the
dead worker's partitions rebuild from lineage onto the replacement and
lost tasks retry, with ``invalidate_store()`` reserved for rebuild failure.
"""

import os

import pytest

from repro.engine import (
    Cluster,
    FaultPlan,
    StaleHandleError,
    StoreRef,
    WorkerPool,
    WorkerTaskError,
)
from repro.engine.shuffle import exchange, exchange_resident


# --------------------------------------------------------------------- #
# Module-level task functions (tasks must be importable in workers).
# --------------------------------------------------------------------- #

def _double(xs):
    return [x * 2 for x in xs]


def _concat(a, b):
    return a + b


def _lookup(index, xs):
    return [index["base"] + x for x in xs]


def _die(_):
    os._exit(17)


def _sum_part(part):
    return sum(part)


@pytest.fixture
def pool():
    p = WorkerPool(2)
    yield p
    p.shutdown()


class TestPinAndHandles:
    def test_pin_returns_counted_handles(self, pool):
        refs = pool.pin("t", 1, [[1, 2, 3], [4, 5], [6]])
        assert [r.part for r in refs] == [0, 1, 2]
        assert [r.count for r in refs] == [3, 2, 1]
        assert pool.pinned("t", 1) == refs

    def test_tasks_resolve_handles_worker_side(self, pool):
        refs = pool.pin("t", 1, [[1, 2], [3]])
        assert pool.run(_double, [(r,) for r in refs]) == [[2, 4], [6]]

    def test_store_as_keeps_results_resident(self, pool):
        refs = pool.pin("t", 1, [[1, 2], [3]])
        out = pool.run(_double, [(r,) for r in refs], store_as=("d", 7))
        assert all(isinstance(r, StoreRef) for r in out)
        assert [r.count for r in out] == [2, 1]
        # Chained stage: handle output feeds handle input, no driver data.
        chained = pool.run(_concat, [(out[0], refs[0])])
        assert chained == [[2, 4, 1, 2]]
        assert pool.fetch(out) == [[2, 4], [6]]

    def test_broadcast_resolves_on_every_worker(self, pool):
        refs = pool.pin("t", 1, [[1], [2], [3], [4]])
        idx = pool.broadcast("idx", 1, {"base": 100})
        assert pool.run(_lookup, [(idx, r) for r in refs]) == [
            [101], [102], [103], [104],
        ]

    def test_handles_ship_instead_of_rows(self, pool):
        big = [
            [{"payload": f"x{p}-{i}" * 100, "i": i} for i in range(50)]
            for p in range(4)
        ]
        refs = pool.pin("big", 1, big)
        pinned_bytes = pool.bytes_shipped_total
        before = pool.bytes_shipped_total
        pool.run(_sum_len, [(r,) for r in refs])
        handle_bytes = pool.bytes_shipped_total - before
        # Dispatching against handles costs a tiny fraction of re-shipping.
        assert handle_bytes < pinned_bytes / 20


def _sum_len(part):
    return len(part)


def _add_const(c, x):
    return c + x


class TestPinPartialFailure:
    def test_failed_pin_strands_nothing(self, pool):
        """A mid-loop serialization failure must evict what already
        shipped: no pin registry entry, no accounted bytes, and the worker
        stores hold nothing under the name."""
        parts = [[1, 2], [3, 4], [lambda: None]]  # tail does not pickle
        with pytest.raises(Exception):
            pool.pin("t", 1, parts)
        assert pool.pinned("t", 1) is None
        assert pool.pinned_nbytes("t") == 0
        # A handle fabricated for the shipped prefix must fail to resolve —
        # the partitions were rolled back worker-side, not just unlisted.
        with pytest.raises(StaleHandleError):
            pool.run(_double, [(StoreRef("t", 1, 0, 2),)])

    def test_name_is_reusable_after_failed_pin(self, pool):
        with pytest.raises(Exception):
            pool.pin("t", 1, [[1], [lambda: None]])
        refs = pool.pin("t", 1, [[5], [6]])
        assert pool.run(_double, [(r,) for r in refs]) == [[10], [12]]

    def test_failed_broadcast_strands_nothing(self, pool):
        with pytest.raises(Exception):
            pool.broadcast("idx", 1, {"cb": lambda: None})
        assert pool.pinned("idx", 1) is None
        assert pool.pinned_nbytes("idx") == 0


class TestTaskFunctions:
    def test_distinct_partials_each_answer_right(self, pool):
        """Every task carries its own pickled function, so a long-lived pool
        keeps nothing per callable: 150 distinct partials each run as
        themselves."""
        from functools import partial

        for i in range(150):
            assert pool.run(partial(_add_const, i), [(1,)]) == [i + 1]


class TestEvictionAndVersions:
    def test_stale_handle_raises_after_evict(self, pool):
        refs = pool.pin("t", 3, [[1], [2]])
        pool.evict("t", 3)
        assert pool.pinned("t", 3) is None
        with pytest.raises(StaleHandleError, match="evicted or invalidated"):
            pool.fetch(refs)

    def test_evict_one_version_keeps_others(self, pool):
        old = pool.pin("t", 1, [[1], [2]])
        new = pool.pin("t", 2, [[10], [20]])
        pool.evict("t", 1)
        with pytest.raises(StaleHandleError):
            pool.fetch(old)
        assert pool.fetch(new) == [[10], [20]]

    def test_derived_cache_is_bounded_lru(self, pool):
        from repro.engine.store import DERIVED_CACHE_LIMIT

        refs = pool.pin("t", 1, [[1], [2]])
        stored = {}
        for i in range(DERIVED_CACHE_LIMIT + 4):
            out = pool.run(_double, [(r,) for r in refs], store_as=("drv", i))
            stored[i] = out
            pool.register_derived(
                ("dc", "t", 1, f"rule{i}"),
                {"entry_refs": out, "store_names": [("drv", i)]},
            )
        # The oldest entries fell off the cap, and their worker-resident
        # partitions were evicted with them.
        assert pool.derived(("dc", "t", 1, "rule0")) is None
        with pytest.raises(StaleHandleError):
            pool.fetch(stored[0])
        # The newest entries survive, data intact.
        last = DERIVED_CACHE_LIMIT + 3
        assert pool.derived(("dc", "t", 1, f"rule{last}")) is not None
        assert pool.fetch(stored[last]) == [[2], [4]]

    def test_evict_name_drops_derived_state(self, pool):
        pool.pin("t", 1, [[1], [2]])
        derived = pool.run(_double, [(r,) for r in pool.pinned("t", 1)],
                           store_as=("t:derived", 9))
        pool.register_derived(
            ("dc", "t", 1, "rule"),
            {"entry_refs": derived, "store_names": [("t:derived", 9)]},
        )
        pool.evict("t", 1)
        assert pool.derived(("dc", "t", 1, "rule")) is None
        with pytest.raises(StaleHandleError):
            pool.fetch(derived)


class TestTaskPayloads:
    def test_a_warm_batch_ships_only_handle_sized_payloads(self, pool):
        refs = pool.pin("t", 1, [[1], [2], [3], [4]])
        pool.run(_double, [(r,) for r in refs])
        before_bytes = pool.bytes_shipped_total
        before_ships = pool.ship_count_total
        pool.run(_double, [(r,) for r in refs])
        # Second batch: 4 task payloads out + 4 replies back, nothing else.
        assert pool.ship_count_total - before_ships == 8
        # And the payloads are handle-sized.
        assert pool.bytes_shipped_total - before_bytes < 2000


def _drop_odd_values(part):
    return [(k, v) for k, v in part if v % 2 == 0]


def _values_plus(part, n):
    return [v + n for _, v in part]


class TestResidentExchange:
    def test_matches_serial_exchange_byte_for_byte(self, pool):
        cluster = Cluster(4)
        data = [
            [(f"k{i % 5}", (i, None if i % 3 else "v")) for i in range(j, 30, 3)]
            for j in range(3)
        ]
        serial, s_moved, s_cost = exchange(cluster, data, 4, kind="local")
        refs = pool.pin("in", 1, data)
        out_refs, moved, cost, mapped, reduced = exchange_resident(
            cluster, pool, refs, 4, kind="local", store_as=("out", 1)
        )
        assert pool.fetch(out_refs) == serial
        assert (moved, cost) == (s_moved, s_cost)
        assert [row[0] for row in mapped] == [len(p) for p in data]
        assert [row[1] for row in reduced] == [len(p) for p in serial]

    def test_chains_on_either_side_run_in_the_same_two_dispatches(self, pool):
        cluster = Cluster(4)
        data = [[(i % 4, i) for i in range(j, 24, 3)] for j in range(3)]
        serial, s_moved, _ = exchange(
            cluster, [_drop_odd_values(p) for p in data], 4, kind="hash"
        )
        refs = pool.pin("in", 1, data)
        before_tasks = pool.tasks_dispatched
        out, moved, _, mapped, reduced = exchange_resident(
            cluster, pool, refs, 4,
            before=[(_drop_odd_values, ())], after=[(_values_plus, (100,))],
        )
        assert pool.tasks_dispatched - before_tasks == 3 + 4  # map + reduce
        assert out == [_values_plus(p, 100) for p in serial]  # values, not handles
        assert moved == s_moved == sum(row[1] for row in mapped)
        assert [row[1:] for row in reduced] == [(len(p), len(p)) for p in serial]

    def test_sort_routing_rejected(self, pool):
        cluster = Cluster(2)
        refs = pool.pin("in", 1, [[("a", 1)]])
        with pytest.raises(ValueError, match="hash"):
            exchange_resident(cluster, pool, refs, 2, kind="sort")


class TestWorkerDeath:
    def test_death_exhausts_retries_but_pins_survive(self, pool):
        """A task that kills its worker on *every* attempt burns the whole
        retry budget — but the store heals each time: pins stay registered
        and fetchable because each replacement worker was rebuilt from
        lineage before the failing retry reached it."""
        refs = pool.pin("t", 1, [[1], [2]])
        with pytest.raises(WorkerTaskError) as info:
            pool.run(_die, [(0,)])
        assert info.value.exc_type == "RetriesExhausted"
        assert pool.pinned("t", 1) == refs
        assert pool.fetch(refs) == [[1], [2]]

    def test_pool_recovers_with_replacement_worker(self, pool):
        with pytest.raises(WorkerTaskError):
            pool.run(_die, [(0,), (1,)])
        # Dead workers were replaced; a fresh pin + run works.
        refs = pool.pin("t", 2, [[5], [6]])
        assert pool.run(_double, [(r,) for r in refs]) == [[10], [12]]

    def test_single_death_is_transparent(self):
        """One crash mid-batch: the batch still returns the right answer,
        the retry counter records the recovery, and pins survive because
        the replacement was rebuilt from lineage — a gen-0-only fault plan
        leaves the replacement healthy."""
        with WorkerPool(2, fault_plan=FaultPlan().kill_before(worker=1, nth=1)) as pool:
            refs = pool.pin("t", 1, [[1, 2], [3, 4]])
            out = pool.run(_double, [(r,) for r in refs])
            assert out == [[2, 4], [6, 8]]
            assert pool.retries_total >= 1
            assert pool.pinned("t", 1) == refs
            assert pool.fetch(refs) == [[1, 2], [3, 4]]
