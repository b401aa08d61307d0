"""The driver's view of the worker partition store, and how to rebuild it.

:class:`StoreRegistry` is the one owner of what the driver believes is
resident in the workers: pinned/broadcast names and their handles, the bytes
each holds, the derived-result cache the cleaning fast paths use to skip
whole stages on a warm store, and — for **self-healing** — a *lineage
recipe* per resident ``(name, version)``: source partitions for pins, the
object for broadcasts, the producing task for ``store_as`` stage outputs.
When a worker dies only *its* share is rebuilt: :meth:`replay` yields, in
dependency order, the commands that re-create it on the replacement.

The registry never talks to a worker.  Its mutators return the ``(name,
version)`` store entries the workers should drop, and the pool ships the
``evict`` commands; every method takes :attr:`lock`, which the pool also
holds across a whole replay so that no eviction can slip between a recipe
being read and its rebuild command being queued.
"""

from __future__ import annotations

import pickle
import threading
from collections import OrderedDict
from typing import Any, Iterator, Sequence

from .worker import StoreRef

# Most-recently-used derived results (per pool) kept worker-resident.  Each
# entry can hold table-sized state (a DC check's left entries plus a
# per-worker index broadcast, a dedup's merged blocks plus its q-gram bag
# caches), so a session sweeping many distinct checks must not grow worker
# memory without bound: the LRU entry's store partitions go past this cap.
DERIVED_CACHE_LIMIT = 16

Evictions = list[tuple[str, int | None]]


class StoreRegistry:
    """Pins, their sizes, derived results and lineage, under one lock."""

    def __init__(self, workers: int):
        self.workers = workers
        self.lock = threading.RLock()
        self._pins: dict[tuple[str, int], list[StoreRef]] = {}
        self._pin_sizes: dict[tuple[str, int], int] = {}
        self._derived: dict[tuple, dict] = {}
        # Insertion order is dependency order — pins before the stages
        # consuming them — so replaying it satisfies handle dependencies.
        self._lineage: OrderedDict[tuple[str, int], dict] = OrderedDict()

    # -- recording ------------------------------------------------------ #
    def record_pin(
        self, name: str, version: int, refs: list[StoreRef], nbytes: int, partitions: list
    ) -> None:
        """Lineage holds *references* to the caller's partition rows (which
        the facade keeps driver-side anyway), so a dead worker's share of
        this pin can be re-shipped on demand."""
        with self.lock:
            self._pins[(name, version)] = refs
            self._pin_sizes[(name, version)] = nbytes
            self._lineage[(name, version)] = {"kind": "parts", "partitions": partitions}

    def record_broadcast(self, ref: StoreRef, nbytes: int, obj: Any) -> None:
        with self.lock:
            self._pins[(ref.name, ref.version)] = [ref]
            self._pin_sizes[(ref.name, ref.version)] = nbytes
            self._lineage[(ref.name, ref.version)] = {"kind": "broadcast", "obj": obj}

    def record_stage(
        self, store_as: tuple[str, int], part: int, fblob: bytes, args_blob: bytes
    ) -> None:
        """Remember the producing task of one stored stage partition.

        Re-running ``func(*args)`` on a replacement worker regenerates the
        partition (tasks are deterministic; handle args resolve against the
        lineage replayed before it).  Multiple ``run`` calls targeting one
        ``store_as`` merge into one recipe.
        """
        with self.lock:
            entry = self._lineage.setdefault(store_as, {"kind": "stage", "tasks": {}})
            if entry["kind"] == "stage":
                entry["tasks"][part] = (fblob, args_blob)

    def adopt(
        self, name: str, version: int, refs: Sequence[StoreRef], partitions: Sequence[Any],
        base: int, shipped: int,
    ) -> None:
        """Register partitions the workers built in place as a pin — how a
        delta patch of version ``base`` promotes its result to the table's
        new version without the rows ever returning to the driver.
        ``partitions`` are the driver-side rows backing the version, its
        re-pin lineage.  Its bytes are ``base``'s plus the ``shipped`` patch
        bytes: what an append adds, while a replacement overcounts until the
        next full pin measures again, so the eviction governor errs toward
        evicting."""
        with self.lock:
            self._pins[(name, version)] = list(refs)
            self._pin_sizes[(name, version)] = self._pin_sizes.get((name, base), 0) + shipped
            self._lineage[(name, version)] = {"kind": "parts", "partitions": list(partitions)}

    # -- reading -------------------------------------------------------- #
    def pinned(self, name: str, version: int) -> list[StoreRef] | None:
        """Handles of a previously pinned name/version, if still valid."""
        with self.lock:
            return self._pins.get((name, version))

    def pinned_versions(self, name: str) -> list[int]:
        """Every version of ``name`` currently pinned.  The plan verifier's
        handle check: an empty list means cold (fine, pins rebuild on
        demand), while a non-empty list *missing* the driver's expected
        version means driver/store version skew."""
        with self.lock:
            return sorted(v for (n, v) in self._pins if n == name)

    def pinned_nbytes(self, name: str | None = None) -> int:
        """Serialized bytes resident under pinned name(s) — the store-memory
        figure the serving layer's LRU eviction governor budgets against.
        ``name=None`` totals every pin."""
        with self.lock:
            if name is None:
                return sum(self._pin_sizes.values())
            return sum(sz for (n, _v), sz in self._pin_sizes.items() if n == name)

    def derived(self, key: tuple) -> dict | None:
        """Cache payload for a derived result (warm path); an LRU touch."""
        with self.lock:
            payload = self._derived.get(key)
            if payload is not None:
                self._derived[key] = self._derived.pop(key)
            return payload

    # -- forgetting ----------------------------------------------------- #
    def evict(self, name: str, version: int | None = None) -> Evictions:
        """Forget a name (one version or all of them) and every derived
        result cached on top of it.  Returns the store entries the workers
        should drop: what the derived results owned first, then the name —
        only if a pin, a lineage recipe or a derived result was held under
        it, since the workers store nothing the registry has not recorded."""
        def hit(n: str, v: int) -> bool:
            return n == name and (version is None or v == version)

        out: Evictions = []
        with self.lock:
            pins = [k for k in self._pins if hit(*k)]
            recipes = [k for k in self._lineage if hit(*k)]
            derived = [k for k in self._derived if hit(k[1], k[2])]
            for key in pins:
                del self._pins[key]
                self._pin_sizes.pop(key, None)
            for key in recipes:
                del self._lineage[key]
            for key in derived:
                payload = self._derived.pop(key, None) or {}
                for dep in payload.get("store_names", ()):
                    out += self.evict(*dep)
        return [*out, (name, version)] if pins or recipes or derived else out

    def register_derived(self, key: tuple, payload: dict) -> Evictions:
        """Cache a derived result keyed ``(kind, base_name, base_version,
        ...)``.  ``payload["store_names"]`` lists the ``(name, version)``
        store entries it owns; evicting the base evicts them too.  Bounded
        at :data:`DERIVED_CACHE_LIMIT` entries: returns what the
        least-recently-used entries past the cap owned."""
        out: Evictions = []
        with self.lock:
            self._derived[key] = payload
            while len(self._derived) > DERIVED_CACHE_LIMIT:
                oldest = self._derived.pop(next(iter(self._derived)))
                for dep in oldest.get("store_names", ()):
                    out += self.evict(*dep)
        return out

    def clear(self) -> None:
        with self.lock:
            self._pins.clear()
            self._pin_sizes.clear()
            self._derived.clear()
            self._lineage.clear()

    # -- recovery ------------------------------------------------------- #
    def replay(self, worker: int) -> Iterator[tuple]:
        """The commands that rebuild ``worker``'s share of the store on an
        empty replacement, in lineage order.  Caller holds :attr:`lock`.

        Pins and broadcasts come as ready ``("pin", name, version, part,
        blob)`` commands, pickled from driver-held state; a stage partition
        as ``("stage", name, version, part, fblob, args_blob)`` — its
        recorded producing task, for the pool to give a task id and ship.
        """
        for (name, version), recipe in list(self._lineage.items()):
            kind = recipe["kind"]
            if kind == "broadcast":
                yield ("pin", name, version, -1, pickle.dumps(recipe["obj"]))
            elif kind == "parts":
                partitions = recipe["partitions"]
                for p in range(worker, len(partitions), self.workers):
                    yield ("pin", name, version, p, pickle.dumps(partitions[p]))
            else:  # stage
                for p, (fblob, args_blob) in recipe["tasks"].items():
                    if p % self.workers == worker:
                        yield ("stage", name, version, p, fblob, args_blob)
