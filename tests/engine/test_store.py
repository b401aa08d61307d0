"""The store registry, without a process in sight.

What the pool replays onto a replacement worker — and in which order — used
to be reachable only end to end, through the chaos suite.  The registry is
plain data behind a lock, so the contract is checked directly here: pins and
broadcasts before the stages that consume them, only the dead worker's
share, and derived entries evicted with their base.
"""

import pickle

from repro.engine.store import DERIVED_CACHE_LIMIT, StoreRegistry
from repro.engine.worker import StoreRef


def refs_for(name, version, parts):
    return [StoreRef(name, version, p, len(part)) for p, part in enumerate(parts)]


def registry_with_a_pin(workers=2):
    registry = StoreRegistry(workers)
    parts = [["r0"], ["r1"], ["r2"], ["r3"], ["r4"]]
    registry.record_pin("table:t", 1, refs_for("table:t", 1, parts), 50, parts)
    return registry, parts


def replay(registry, worker):
    with registry.lock:
        return list(registry.replay(worker))


def test_replay_is_in_lineage_order_and_only_the_dead_workers_share():
    registry, parts = registry_with_a_pin()
    index = {"built": "from t"}
    registry.record_broadcast(StoreRef("dc:index", 7, -1), 40, index)
    for part in range(4):  # a stage consuming the pin and the broadcast
        registry.record_stage(("tmp:stage", 9), part, b"func", b"args%d" % part)

    for worker in (0, 1):
        commands = replay(registry, worker)
        kinds = [c[0] for c in commands]
        # Pins and broadcasts strictly before the stage that reads them.
        assert kinds == sorted(kinds, key=["pin", "stage"].index)
        pins = [c for c in commands if c[0] == "pin" and c[1] == "table:t"]
        mine = [p for p in range(len(parts)) if p % 2 == worker]
        assert [c[3] for c in pins] == mine
        assert [pickle.loads(c[4]) for c in pins] == [parts[p] for p in mine]
        (broadcast,) = [c for c in commands if c[1] == "dc:index"]
        assert broadcast[2:4] == (7, -1) and pickle.loads(broadcast[4]) == index
        stages = [c for c in commands if c[0] == "stage"]
        assert [(c[1], c[2], c[3]) for c in stages] == [
            ("tmp:stage", 9, p) for p in range(4) if p % 2 == worker
        ]
        assert all(c[4] == b"func" and c[5] == b"args%d" % c[3] for c in stages)


def test_an_evicted_name_is_not_replayed():
    registry, _ = registry_with_a_pin()
    registry.record_stage(("tmp:stage", 9), 0, b"func", b"args")
    assert registry.evict("tmp:stage") == [("tmp:stage", None)]
    assert [c[1] for c in replay(registry, 0)] == ["table:t"] * 3
    assert registry.evict("table:t", 1) == [("table:t", 1)]
    assert replay(registry, 0) == []
    assert registry.pinned("table:t", 1) is None
    assert registry.pinned_nbytes() == 0


def test_stage_recipes_merge_and_a_pin_recipe_wins():
    registry, parts = registry_with_a_pin()
    # Two runs into one store_as (a delta patch): one recipe, both tasks.
    registry.record_stage(("table:t", 2), 0, b"patch", b"a0")
    registry.record_stage(("table:t", 2), 1, b"patch", b"a1")
    assert [c[3] for c in replay(registry, 0) if c[0] == "stage"] == [0]
    assert [c[3] for c in replay(registry, 1) if c[0] == "stage"] == [1]
    # Adopting with driver rows turns the version's lineage into a re-pin.
    new_parts = [["r0", "n"], ["r1"]]
    registry.adopt(
        "table:t", 2, refs_for("table:t", 2, new_parts), partitions=new_parts, base=1, shipped=7
    )
    registry.record_stage(("table:t", 2), 0, b"patch", b"ignored")  # pin recipe stays
    v2 = [c for c in replay(registry, 0) if c[2] == 2]
    assert [(c[0], c[3]) for c in v2] == [("pin", 0)]
    assert pickle.loads(v2[0][4]) == ["r0", "n"]
    assert registry.pinned_versions("table:t") == [1, 2]
    # The adopted version is v1's size plus the patch bytes that reached it.
    assert registry.pinned_nbytes("table:t") == 50 + (50 + 7)


def test_derived_entries_go_with_their_base():
    registry, _ = registry_with_a_pin()
    registry.record_broadcast(StoreRef("dc:index", 7, -1), 40, {"i": 1})
    registry.record_stage(("dc:vectors", 8), 0, b"f", b"a")
    payload = {"store_names": [("dc:index", 7), ("dc:vectors", 8)]}
    assert registry.register_derived(("dc", "table:t", 1, "rule"), payload) == []
    assert registry.derived(("dc", "table:t", 1, "rule")) is payload

    # Another version of the base leaves it alone (and, never held, asks
    # the workers to drop nothing); the base takes it along, owned entries
    # first.
    assert registry.evict("table:t", 2) == []
    assert registry.derived(("dc", "table:t", 1, "rule")) is payload
    assert registry.evict("table:t") == [("dc:index", 7), ("dc:vectors", 8), ("table:t", None)]
    assert registry.derived(("dc", "table:t", 1, "rule")) is None
    assert replay(registry, 0) == replay(registry, 1) == []


def test_only_what_the_registry_held_is_evicted_from_the_workers():
    """The workers store nothing the registry has not recorded, so a name
    it never held needs no ``evict`` command; a recipe or a derived result
    alone is enough to need one."""
    registry, _ = registry_with_a_pin()
    assert registry.evict("table:ghost") == []
    assert registry.evict("table:ghost", 3) == []
    registry.record_stage(("tmp:stage", 9), 0, b"f", b"a")
    assert registry.evict("tmp:stage", 9) == [("tmp:stage", 9)]
    registry.register_derived(("dc", "table:u", 4, "rule"), {"store_names": []})
    assert registry.evict("table:u", 4) == [("table:u", 4)]
    assert registry.evict("table:u", 4) == []


def test_the_derived_cache_is_lru_bounded():
    registry, _ = registry_with_a_pin()
    dropped = []
    for i in range(DERIVED_CACHE_LIMIT + 2):
        registry.record_broadcast(StoreRef(f"idx{i}", i, -1), 1, i)
        if i == DERIVED_CACHE_LIMIT:
            registry.derived(("dc", "table:t", 1, 0))  # touch entry 0: 1 is now oldest
        dropped += registry.register_derived(
            ("dc", "table:t", 1, i), {"store_names": [(f"idx{i}", i)]}
        )
    assert dropped == [("idx1", 1), ("idx2", 2)]
    assert registry.derived(("dc", "table:t", 1, 0)) is not None
    assert registry.derived(("dc", "table:t", 1, 1)) is None
    registry.clear()
    assert replay(registry, 0) == [] and registry.pinned_nbytes() == 0
