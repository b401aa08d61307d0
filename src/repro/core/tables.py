"""The table store behind the CleanDB facade.

:class:`TableStore` is the only code that knows a session's rows, formats
and versions, and everything derived from them, in one map with one rule
(:meth:`TableStore.derived`: build, reuse, patch, drop): the ``_rid`` index
``update_rows`` addresses rows through, the inferred schema, the banded DC
index, dedup's q-gram bags, an incremental session's maintained check
states.  For an ``execution="parallel"`` session it also keeps the worker
pool's partition store coherent with those versions.  It owns the pin
identity (``<namespace>/table:<name>`` at the table's version), but residency
is a read cache: only a pool read pins (``parallel_exec.resident_input``);
a whole-table mutation evicts every pinned version, and a delta patches a
resident version in one dispatch or ships nothing.  Nothing outside this
module asks whether the session is parallel in order to touch a table.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Sequence

from ..cleaning.rowid import fill_rids
from ..engine.cluster import Cluster
from ..engine.partitioner import round_robin_split
from ..errors import SchemaError
from .semantics import TableInfo, infer_table, patch_info
from .shippable import is_hashable


class TableStore:
    """Rows, formats and monotonic versions of a session's tables.

    A version is the identity of a table's state: re-registration, repair,
    ``refresh`` and every delta bump it, so anything keyed on it — pinned
    partitions, derived caches, inferred schemas — can never serve
    pre-mutation rows.
    """

    def __init__(
        self, cluster: Cluster, namespace: str = "", parallel: bool = False,
        incremental: bool = False,
    ):
        if "/" in namespace:
            raise ValueError(f"namespace {namespace!r} must not contain '/'")
        self.cluster = cluster
        self.namespace = namespace
        self.parallel = parallel  # a pool read pins its tables in the worker pool
        self.incremental = incremental
        self.rows: dict[str, list[Any]] = {}
        self.formats: dict[str, str] = {}
        self.versions: dict[str, int] = {}
        # ``derived``'s entries: table -> slot -> (stamp, key, state, patch).
        self._derived: dict[str, dict[Any, tuple]] = {}

    # -- Catalog ----------------------------------------------------- #
    def names(self) -> list[str]:
        """Registered table names, in registration order."""
        return list(self.rows)

    def __contains__(self, name: object) -> bool:
        return name in self.rows

    def get(self, name: str) -> list[Any]:
        try:
            return self.rows[name]
        except KeyError:
            raise SchemaError(f"unknown table {name!r}") from None

    def register(self, name: str, records: Sequence[Any], fmt: str = "memory") -> None:
        rows = list(records)
        if rows and isinstance(rows[0], dict):
            rows = fill_rids(rows)
        self.formats[name] = fmt
        self.replace(name, rows)

    def replace(self, name: str, rows: list[Any]) -> None:
        """Swap in a new row list (registration, repair) under a new version."""
        self.rows[name] = rows
        self.refresh(name)

    def refresh(self, name: str) -> None:
        """New version for rows that changed outside the delta methods.
        Everything derived from the old rows is dropped, here and (see
        :meth:`unpin`) in the pool; nothing is re-pinned until a pool task
        reads the table."""
        self.get(name)
        self.versions[name] = self.versions.get(name, 0) + 1
        self.unpin(name)

    def derived(
        self, name: str, key: tuple, build: Callable[[], Any],
        patch: Callable[..., Any] | None = None,
    ) -> Any:
        """State that depends only on a table's rows and ``key``, on every
        kind of session: *built* on first use; *reused* while the table's
        stamp ``(version, row count)`` stands (a same-length in-place edit
        waits for :meth:`refresh`); *patched* and restamped by a delta when
        it has a ``patch`` rule and was current before it — ``patch(state,
        row count before, appended, [(position, replacement)])`` returns the
        state to keep; *dropped* by a delta otherwise (no rule, a stale
        stamp, a patch that raised: broken state is no state) and by
        :meth:`refresh`, :meth:`unpin` and :meth:`release`.  Input-side
        state only — an index, a schema, a fold's partial state: the caller
        still probes or emits, and charges the ledger, on every call.  An
        entry without a patch rule is one per table and ``key[0]`` (the kind
        of question; the latest distinct parameters replace the previous),
        so a session sweeping many constraints holds one cold DC state per
        table; one with a rule is kept per distinct ``key`` (every check an
        incremental session maintains).  An unhashable key may change under
        us: it builds uncached."""
        if not is_hashable(key):
            return build()
        stamp = (self.versions.get(name, 0), len(self.rows.get(name, ())))
        held = self._derived.setdefault(name, {})
        slot = key[0] if patch is None else key
        if held.get(slot, ())[:2] != (stamp, key):
            held.pop(slot, None)  # freed before its successor is built, not after
            held[slot] = (stamp, key, build(), patch)
        return held[slot][2]

    def info(self, name: str) -> TableInfo:
        """Inferred schema of a registered table."""
        rows = self.rows.get(name, [])
        return self.derived(name, ("info",), lambda: infer_table(rows), partial(patch_info, table=rows))

    # -- Deltas ------------------------------------------------------ #
    def append(self, name: str, rows: Sequence[Any]) -> None:
        table = self.get(name)
        rows = list(rows)
        if not rows:
            return
        prepared = fill_rids(rows, len(table))
        table.extend(prepared)
        self._commit_delta(name, appended=prepared)

    def update(self, name: str, rid_to_row: dict) -> None:
        table = self.get(name)
        if not rid_to_row:
            return
        # ``_rid -> [every global position]``, built by the first update.
        index = self.derived(name, ("rids",), lambda: _index_rids({}, 0, table), _index_rids)
        # Validate the whole mapping before touching a row: a call that
        # raises must leave rows, version, pins and derived state as they were.
        for rid, row in rid_to_row.items():
            if not index.get(rid):
                raise SchemaError(f"table {name!r} has no row with _rid {rid!r}")
            if not isinstance(row, dict):
                raise SchemaError("update_rows replacements must be dict rows")
        updates: list[tuple[int, dict]] = []
        for rid, row in rid_to_row.items():
            replacement = {**row, "_rid": rid}
            for g in index[rid]:
                table[g] = replacement
                updates.append((g, replacement))
        self._commit_delta(name, updated=updates)

    def _commit_delta(
        self, name: str, appended: Sequence[Any] = (), updated: Sequence[tuple[int, Any]] = ()
    ) -> None:
        """The shared tail of a delta already applied to the driver rows:
        bump the version, patch or drop the derived state (see
        :meth:`derived`), patch the pins."""
        old_version = self.versions.get(name, 0)
        self.versions[name] = old_version + 1
        base = len(self.rows[name]) - len(appended)
        held = self._derived.get(name, {})
        for slot, (stamp, key, state, patch) in list(held.items()):
            del held[slot]
            if patch is not None and stamp == (old_version, base):
                try:
                    state = patch(state, base, appended, updated)
                except Exception:
                    continue
                held[slot] = ((old_version + 1, base + len(appended)), key, state, patch)
        self._ship_delta(name, old_version, appended, updated)

    def maintained(self, name: str, key: tuple) -> list | None:
        """The check ``key`` — operation (``fd`` / ``dc`` / ``dedup``), then
        its state's arguments — answered from the state an incremental
        session keeps as a :meth:`derived` entry with a patch rule, or None
        to run the cold path: a state that cannot be built or fails mid-emit
        is dropped — falling back is always correct, a stale result never."""
        if not (self.incremental and is_hashable(key)):
            return None
        from ..cleaning.incremental import STATES

        state_of = STATES[key[0]]
        try:
            out = self.derived(
                name, key,
                lambda: state_of(self.get(name), self.cluster.default_parallelism, *key[1:]),
                state_of.patch,
            ).emit()
        except Exception:
            self._derived.get(name, {}).pop(key, None)
            return None
        self.cluster.record_op(f"incremental:{key[0]}:{name}", [0.0] * self.cluster.num_nodes)
        return out

    # -- Worker residency (parallel sessions) ------------------------ #
    def _pin_name(self, name: str) -> str:
        """The worker-store name a table pins under — tenant-qualified when
        the session has a namespace (``tenant/table:<name>``), so tenants
        sharing a pool never alias each other's tables."""
        prefix = f"{self.namespace}/" if self.namespace else ""
        return f"{prefix}table:{name}"

    def pinned_key(self, name: str) -> tuple[str, int] | None:
        """The (store name, version) of a table's pins, for handle-based
        dispatch — None when the session pins nothing."""
        if not self.parallel or name not in self.versions:
            return None
        return (self._pin_name(name), self.versions[name])

    def pinned_map(self) -> dict[str, tuple[str, int]]:
        """Every registered table's pin identity."""
        return {name: self.pinned_key(name) for name in self.versions} if self.parallel else {}

    def pinned_bytes(self, name: str) -> int:
        """Serialized bytes this table's pins hold in the worker store."""
        if not self.cluster.has_pool:
            return 0
        return self.cluster.pool.pinned_nbytes(self._pin_name(name))

    def unpin(self, name: str) -> None:
        """Evict a table's pins (and derived state built on them, here and
        in the pool) without forgetting the table: rows and version stay
        registered, so the next query touching it re-pins it under the same
        identity — residency is a cache, not correctness.  The serving
        layer's memory-pressure lever: its LRU governor unpins cold tenants'
        tables when the shared store passes its byte cap."""
        self._derived.pop(name, None)
        if name in self.versions:
            self._evict(name)

    def _evict(self, name: str) -> None:
        """Evict every pinned version of a table from the pool; a table no
        pool task has pinned ships nothing, and no pool is started."""
        if self.cluster.has_pool:
            self.cluster.pool.evict(self._pin_name(name))

    def release(self) -> None:
        """A departed tenant must not leak memory: drop the derived state
        (the next use rebuilds it) and evict this
        session's pins from a pool somebody else owns (an owned pool dies
        with the session anyway)."""
        self._derived.clear()
        if not self.cluster._owns_pool:
            for name in self.versions:
                self.unpin(name)

    def _ship_delta(
        self, name: str, old_version: int, appended: Sequence[Any],
        updated: Sequence[tuple[int, Any]],
    ) -> None:
        """Patch the pinned partitions from one delta, one way.

        Each partition's share — new rows land at ``global_index % n``,
        replacements at their positions — ships as one ``patch`` command
        (:meth:`WorkerPool.patch`) and no reply is awaited: a touched
        partition becomes a fresh list under the new version, an untouched
        one is re-keyed without moving; the old version's eviction queues
        behind it, so derived caches keyed on it die and stale handles fail
        loudly.  A table no pool task has read since its last whole-table
        change is not resident and gets no command at all.  A resident old
        version whose counts do not match, and a patch that raises, evict
        every version instead: the next pool read re-pins the current rows.
        """
        if not (self.parallel and self.cluster.has_pool):
            return
        from ..engine.transport import ShipLog

        pool = self.cluster.pool
        pin_name = self._pin_name(name)
        n = self.cluster.default_parallelism
        old_count = len(self.rows[name]) - len(appended)
        refs = pool.pinned(pin_name, old_version)
        if refs is None or len(refs) != n or sum(max(r.count, 0) for r in refs) != old_count:
            self._evict(name)
            return
        append_parts: list[list[Any]] = [[] for _ in range(n)]
        for j, row in enumerate(appended):
            append_parts[(old_count + j) % n].append(row)
        update_parts: list[list[tuple[int, Any]]] = [[] for _ in range(n)]
        for g, row in updated:
            update_parts[g % n].append((g // n, row))
        log = ShipLog()
        try:
            # The patched layout is round-robin over the post-delta rows,
            # so the driver rows back the new version as plain re-pin
            # lineage — a worker death after this delta rebuilds from the
            # current rows instead of chasing the evicted old version.
            pool.patch(
                refs, self.versions[name], list(zip(append_parts, update_parts)),
                round_robin_split(self.rows[name], n),
            )
            pool.evict(pin_name, old_version)
        except Exception:
            # A delta that does not pickle, a closed pool: nothing stays
            # resident, and the next pool read pins the current rows.
            self._evict(name)
            return
        self.cluster.record_op(
            f"delta:{name}",
            [0.0] * self.cluster.num_nodes,
            rows_delta=len(appended) + len(updated),
            **log.take(),
        )


def _index_rids(
    index: dict[Any, list[int]], base: int, appended: Sequence[Any],
    updated: Sequence[tuple[int, Any]] = (),
) -> dict:
    """Add ``_rid -> global position`` for rows starting at ``base`` — also
    the index's own patch rule: an update moves no rid."""
    for g, row in enumerate(appended, base):
        if isinstance(row, dict):
            index.setdefault(row.get("_rid"), []).append(g)
    return index
