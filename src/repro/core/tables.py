"""The table store behind the CleanDB facade.

:class:`TableStore` is the only code that knows a session's rows, formats
and versions, and everything derived from them: the lazy ``_rid`` index
``update_rows`` addresses rows through, the incremental mirror holding
maintained check states, and whatever a check or the analyzer builds from
an unchanged table (:meth:`TableStore.derived`: the banded DC index, the
inferred schema).  For an ``execution="parallel"`` session it also keeps the
worker pool's partition store coherent with those versions: it owns the
pin identity (``<namespace>/table:<name>`` at the table's version), re-pins
on whole-table mutations and patches the resident partitions in one
dispatch on deltas.  Nothing outside this module asks whether the session
is parallel in order to touch a table.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from ..cleaning.rowid import fill_rids
from ..engine.cluster import Cluster
from ..errors import SchemaError
from .semantics import TableInfo, infer_table
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
        self.parallel = parallel  # tables are also pinned in the worker pool
        self.incremental = incremental
        self.rows: dict[str, list[Any]] = {}
        self.formats: dict[str, str] = {}
        self.versions: dict[str, int] = {}
        # ``derived``'s entries: table -> kind of question -> (stamp, key, state).
        self._derived: dict[str, dict[Any, tuple]] = {}
        # The per-table mirror holding maintained check states and the lazy
        # ``_rid -> [every global position]`` map (``append`` keeps it current)
        # die with the version on any whole-table mutation.
        self._mirrors: dict[str, Any] = {}
        self._rid_index: dict[str, dict[Any, list[int]]] = {}

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
        Everything derived from the old rows is dropped: the mirror may no
        longer match the table, the rid index its positions, the pins (see
        :meth:`_sync_pin`) its content."""
        self.get(name)
        self.versions[name] = self.versions.get(name, 0) + 1
        self._drop_mirror(name)
        self._rid_index.pop(name, None)
        self._derived.pop(name, None)
        self._sync_pin(name)

    def derived(self, name: str, key: tuple, build: Callable[[], Any]) -> Any:
        """State that depends only on a table's rows and ``key``: built on
        first use, reused while the table's stamp ``(version, row count)``
        stands, dropped with the version (and on :meth:`unpin` /
        :meth:`release`).  For *input-only* state — an index, a schema —
        never a result: the caller still does its probing and charging on
        every call.  One entry per table and ``key[0]`` (the kind of
        question; the latest distinct parameters replace the previous), so
        a session sweeping many constraints holds one DC state per table.
        An unhashable key may change under us: it builds uncached."""
        if not is_hashable(key):
            return build()
        stamp = (self.versions.get(name, 0), len(self.rows.get(name, ())))
        held = self._derived.setdefault(name, {})
        if held.get(key[0], ())[:2] != (stamp, key):
            held.pop(key[0], None)  # freed before its successor is built, not after
            held[key[0]] = (stamp, key, build())
        return held[key[0]][2]

    def info(self, name: str) -> TableInfo:
        """Inferred schema of a registered table."""
        return self.derived(name, ("info",), lambda: infer_table(self.rows.get(name, [])))

    # -- Deltas ------------------------------------------------------ #
    def append(self, name: str, rows: Sequence[Any]) -> None:
        table = self.get(name)
        rows = list(rows)
        if not rows:
            return
        base = len(table)
        prepared = fill_rids(rows, base)
        table.extend(prepared)
        if name in self._rid_index:
            _index_rids(self._rid_index[name], prepared, base)
        self._commit_delta(name, appended=prepared)

    def update(self, name: str, rid_to_row: dict) -> None:
        table = self.get(name)
        if not rid_to_row:
            return
        if name not in self._rid_index:
            self._rid_index[name] = _index_rids({}, table)
        index = self._rid_index[name]
        # Validate the whole mapping before touching a row: a call that
        # raises must leave rows, version, pins and mirror as they were.
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
        bump the version, fold the delta into the incremental mirror, patch
        the pins."""
        old_version = self.versions.get(name, 0)
        self.versions[name] = old_version + 1
        self._derived.pop(name, None)
        mirror = self._mirrors.get(name)
        if mirror is not None:
            try:
                if appended:
                    mirror.append(appended)
                if updated:
                    mirror.update(updated)
            except Exception:
                # The mirror can no longer be trusted; drop it wholesale.
                self._drop_mirror(name)
        self._ship_delta(name, old_version, appended, updated)

    # -- Maintained check results (``incremental`` sessions) --------- #
    def _mirror(self, name: str) -> Any:
        """The table's partition mirror, created lazily — None when the
        session is not incremental or the table is out of scope (too small
        for the layout arithmetic, or rows without stable rids)."""
        if not self.incremental:
            return None
        mirror = self._mirrors.get(name)
        if mirror is None:
            from ..cleaning.incremental import IncrementalTable, UnsupportedDelta

            try:
                mirror = IncrementalTable(self.get(name), self.cluster.default_parallelism)
            except UnsupportedDelta:
                return None
            self._mirrors[name] = mirror
        return mirror

    def _drop_mirror(self, name: str) -> None:
        """Forget a table's mirror, unhooking the states that point back at
        it: the pair is freed here, not at some later cycle collection."""
        if name in self._mirrors:
            self._mirrors.pop(name).states.clear()

    def maintained(self, name: str, key: tuple, args: tuple) -> list | None:
        """A maintained check result, or None to run the cold path.

        ``key[0]`` names the operation (``fd`` / ``dc`` / ``dedup``); its
        state is constructed from ``args`` on first use.  A state that
        cannot be built (unsupported arguments/table) or that fails
        mid-emit is dropped so the cold path answers — falling back is
        always correct, serving a stale result never is.
        """
        mirror = self._mirror(name)
        if mirror is None:
            return None
        try:
            state = mirror.states.get(key)
            if state is None:
                from ..cleaning.incremental import STATES

                state = mirror.states[key] = STATES[key[0]](mirror, *args)
        except Exception:
            return None
        try:
            out = state.emit()
        except Exception:
            mirror.states.pop(key, None)
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
        if name in self.versions and self.cluster.has_pool:
            self.cluster.pool.evict(self._pin_name(name))

    def release(self) -> None:
        """A departed tenant must not leak memory: drop the mirrors and the
        derived state (the next check rebuilds either) and evict this
        session's pins from a pool somebody else owns (an owned pool dies
        with the session anyway)."""
        self._derived.clear()
        for name in list(self._mirrors):
            self._drop_mirror(name)
        if not self.cluster._owns_pool:
            for name in self.versions:
                self.unpin(name)

    def _sync_pin(self, name: str) -> None:
        """Make the worker store reflect the table's current version: evict
        every older pinned version (plus derived caches keyed on them) and
        pin the current rows.  Tables too exotic to pickle stay unpinned —
        the fast paths fall back to serial for those anyway."""
        if not self.parallel:
            return
        from ..engine.transport import ShipLog
        from ..sources.columnar import round_robin_split

        pool = self.cluster.pool
        pin_name = self._pin_name(name)
        pool.evict(pin_name)
        log = ShipLog(pool)
        parts = round_robin_split(self.rows[name], self.cluster.default_parallelism)
        try:
            # Pinning doubles as the picklability probe — a separate
            # is_picklable(rows) pass would serialize the whole table a
            # second time just to answer yes/no.
            pool.pin(pin_name, self.versions[name], parts)
        except Exception:
            pool.evict(pin_name)  # drop any partially pinned partitions
            return
        self.cluster.record_op(f"pin:{name}", [0.0] * self.cluster.num_nodes, **log.take())

    def _ship_delta(
        self, name: str, old_version: int, appended: Sequence[Any],
        updated: Sequence[tuple[int, Any]],
    ) -> None:
        """Patch the pinned partitions from one delta, in one dispatch.

        Each touched partition is extended with its share of the new rows
        and has its replacements applied under the new version; untouched
        partitions are re-keyed without moving; the old version is evicted,
        so derived caches keyed on it die and stale handles fail loudly.
        Requires the old version to be fully resident with matching counts;
        anything short of that — cold pins, a restarted pool, a worker
        death mid-patch — falls back to :meth:`_sync_pin`, which re-pins
        the whole table under the new version (correct, just not
        incremental).
        """
        if not self.parallel:
            return
        from ..engine.transport import ShipLog
        from ..physical.parallel_exec import _patch_task
        from ..sources.columnar import round_robin_split

        pool = self.cluster.pool
        pin_name = self._pin_name(name)
        n = self.cluster.default_parallelism
        old_count = len(self.rows[name]) - len(appended)
        refs = pool.pinned(pin_name, old_version)
        if refs is None or len(refs) != n or sum(max(r.count, 0) for r in refs) != old_count:
            self._sync_pin(name)
            return
        # One task per partition, whatever the delta holds for it: appends
        # land at ``global_index % n``, updates in place, and a partition
        # the delta misses is aliased under the new version without moving.
        append_parts: list[list[Any]] = [[] for _ in range(n)]
        for j, row in enumerate(appended):
            append_parts[(old_count + j) % n].append(row)
        update_parts: list[list[tuple[int, Any]]] = [[] for _ in range(n)]
        for g, row in updated:
            update_parts[g % n].append((g // n, row))
        log = ShipLog(pool)
        new_version = self.versions[name]
        try:
            new_refs = pool.run(
                _patch_task,
                list(zip(refs, append_parts, update_parts)),
                store_as=(pin_name, new_version),
            )
            # The patched layout is round-robin over the post-delta rows,
            # so the driver rows back the adopted version as plain re-pin
            # lineage — a worker death after this delta rebuilds from the
            # current rows instead of chasing the evicted old version.
            pool.adopt(
                pin_name, new_version, new_refs, partitions=round_robin_split(self.rows[name], n)
            )
            pool.evict(pin_name, old_version)
        except Exception:
            # Worker death (store already invalidated) or any transport
            # failure: full re-pin under the new version.
            self._sync_pin(name)
            return
        self.cluster.record_op(
            f"delta:{name}",
            [0.0] * self.cluster.num_nodes,
            rows_delta=len(appended) + len(updated),
            **log.take(),
        )


def _index_rids(index: dict[Any, list[int]], rows: Sequence[Any], base: int = 0) -> dict:
    """Add ``_rid -> global position`` for rows starting at ``base``."""
    for g, row in enumerate(rows, base):
        if isinstance(row, dict):
            index.setdefault(row.get("_rid"), []).append(g)
    return index
