"""Incremental maintenance of cleaning results under row deltas.

``CleanDB.append_rows`` / ``update_rows`` bump the table version and ship
only the delta to the worker pool's partition store; on the driver side,
this module keeps per-table *incremental states* — one per (operation,
argument) signature — that are patched in place by probing the new or
changed rows against maintained indexes instead of rescanning the table.

The correctness contract is strict: every ``emit()`` must be
**byte-identical** (same objects, same order) to a cold re-run of the same
check on the post-delta table.  The cold paths are deterministic functions
of the partition layout, so each state reproduces that layout exactly:

* rows live at ``(partition, position) = (g % n, g // n)`` for global row
  index ``g`` and ``n = cluster.default_parallelism`` — the round-robin
  layout every backend derives from the driver's table list;
* FD output order is the merge-side arrival order of combiners
  (input-partition-major, first-seen key order) bucketed by
  ``stable_hash(key) % n``;
* DC output order is the banded scan's order — left entries
  partition-major, candidates in band-sorted rank order within the probed
  equality group;
* dedup output order is block first-arrival order bucketed by
  ``stable_hash(key) % n`` with ``join_members``'s rid-ordered pair
  orientation.

States that cannot guarantee parity raise :class:`UnsupportedDelta` (at
construction) or any exception (mid-patch): the owner drops the state and
the next check falls back to the cold path, which is always correct.

Scope gates (all enforced here, not by callers):

* tables smaller than ``num_partitions`` never get incremental state —
  below that size the engines clamp partition counts and the layout
  arithmetic above does not hold;
* every row (including delta rows) must be a dict carrying a non-``None``
  ``_rid`` — the states address rows by it;
* dedup additionally requires globally unique rids (its pair-dedupe
  semantics key on rid) and a non-callable blocking spec;
* DC requires a hashable constraint (the same bound as the parallel
  backend's derived cache).

Cost notes: FD and dedup patches are O(delta).  DC patches probe the delta
both ways — delta-as-left against the full maintained index, and the old
rows against a delta-only index — so a patch is O(table) in cheap
dictionary lookups but avoids the cold path's extraction, group sort, and
full banded scan.  Constraints with more than one ordered predicate
re-plan against the full entry set on every patch (band selection is
data-dependent) and rebuild outright when the chosen plan changes;
single-ordered constraints skip re-planning entirely because
:func:`~repro.cleaning.dc_kernel.plan_dc_entries` ignores the entries for
them.
"""

from __future__ import annotations

from bisect import insort
from typing import Any, Callable, Sequence

from ..engine.partitioner import stable_hash
from ..sources.columnar import round_robin_split
from .dc_kernel import (
    DCRecord,
    DCStats,
    DenialConstraint,
    ORDERED_OPS,
    band_sorted,
    build_dc_index,
    dc_group_key,
    extract_partition,
    left_filter,
    plan_dc_entries,
    record_extractor,
    scan_partition,
)
from .dedup import DuplicatePair, _to_pair, block_key_func
from .denial import FDViolation, _key_func, fd_merge
from .rowid import RID
from .simjoin import SimJoin

__all__ = [
    "IncrementalTable",
    "IncrementalFD",
    "IncrementalDC",
    "IncrementalDedup",
    "STATES",
    "UnsupportedDelta",
]


class UnsupportedDelta(Exception):
    """The table or arguments fall outside an incremental state's parity
    guarantee; the caller must use the cold path."""


Placement = tuple[int, int]


class IncrementalTable:
    """Driver-side partition mirror plus the incremental states built on it.

    Holds the same row dicts as the owning ``CleanDB`` table, laid out in
    the round-robin partition shape every backend derives, and fans
    mutations out to the registered states.  A state that raises while
    patching is dropped on the spot — the next check rebuilds it (or runs
    cold), so a failed patch can never serve stale results.
    """

    def __init__(self, rows: list, num_partitions: int):
        if num_partitions <= 0:
            raise ValueError("num_partitions must be positive")
        if len(rows) < num_partitions:
            raise UnsupportedDelta(
                "table smaller than the partition count: engines clamp the "
                "layout below this size"
            )
        for row in rows:
            if not isinstance(row, dict) or row.get(RID) is None:
                raise UnsupportedDelta("rows must be dicts with a non-None _rid")
        self.num_partitions = num_partitions
        self.size = len(rows)
        self.parts: list[list[dict]] = round_robin_split(rows, num_partitions)
        self.states: dict[Any, Any] = {}

    def placement(self, g: int) -> Placement:
        """Where global row index ``g`` lives: ``(g % n, g // n)``."""
        return (g % self.num_partitions, g // self.num_partitions)

    def append(self, rows: Sequence[dict]) -> list[Placement]:
        placements: list[Placement] = []
        for row in rows:
            if not isinstance(row, dict) or row.get(RID) is None:
                self.states.clear()
                raise UnsupportedDelta(
                    "appended rows must be dicts with a non-None _rid"
                )
            p, pos = self.placement(self.size)
            assert pos == len(self.parts[p])
            self.parts[p].append(row)
            placements.append((p, pos))
            self.size += 1
        self._notify("on_append", placements)
        return placements

    def update(self, updates: Sequence[tuple[int, dict]]) -> list[Placement]:
        placements: list[Placement] = []
        for g, row in updates:
            p, pos = self.placement(g)
            self.parts[p][pos] = row
            placements.append((p, pos))
        self._notify("on_update", placements)
        return placements

    def _notify(self, method: str, placements: list[Placement]) -> None:
        for key in list(self.states):
            state = self.states[key]
            try:
                getattr(state, method)(placements)
            except Exception:
                # Broken state == no state: the next check rebuilds or
                # falls back cold, both of which are correct.
                del self.states[key]


# ---------------------------------------------------------------------- #
# Functional dependencies
# ---------------------------------------------------------------------- #

class IncrementalFD:
    """Maintained FD group index, patched in O(delta · log) per mutation.

    The cold aggregate path's per-partition combiner — ``key -> (rhs
    first-seen dict, witness position list)`` — is a pure function of the
    partition's ``(key, rhs, position)`` triples: keys arrive in
    min-position order, each key's distinct rhs values arrive in *their*
    min-position order, and the witnesses are exactly those min positions.
    So the maintained truth is ``positions[p][key][rhs] = sorted position
    list``; mutations patch single positions, and a touched partition's
    combiner view is regenerated lazily in O(distinct keys · rhs) — never
    by rescanning rows."""

    def __init__(
        self,
        table: IncrementalTable,
        lhs: Sequence[str],
        rhs: Sequence[str],
        keep_records: bool,
    ):
        specs = [*lhs, *rhs]
        if not specs or not all(isinstance(a, str) for a in specs):
            raise UnsupportedDelta("incremental FD needs plain attribute names")
        self.table = table
        self.lhs_func: Callable[[dict], Any] = _key_func(list(lhs))
        self.rhs_func: Callable[[dict], Any] = _key_func(list(rhs))
        self.keep_records = bool(keep_records)
        # rowkeys[p][pos] = (key, rhs): O(1) old-value lookup on update.
        self.rowkeys: list[list[tuple[Any, Any]]] = [[] for _ in table.parts]
        # positions[p][key][rhs] = ascending positions bearing that pair.
        self.positions: list[dict[Any, dict[Any, list[int]]]] = [
            {} for _ in table.parts
        ]
        # local[p] is the combiner view, regenerated lazily per partition.
        self.local: list[dict[Any, tuple[dict, list[int]]]] = [
            {} for _ in table.parts
        ]
        for p, part in enumerate(table.parts):
            for pos, row in enumerate(part):
                key, rhs_value = self.lhs_func(row), self.rhs_func(row)
                self.rowkeys[p].append((key, rhs_value))
                self._attach(p, pos, key, rhs_value)
        self._stale = set(range(len(table.parts)))
        self._dirty = True
        self._cached: list[FDViolation] = []

    def _attach(self, p: int, pos: int, key: Any, rhs_value: Any) -> None:
        insort(
            self.positions[p].setdefault(key, {}).setdefault(rhs_value, []),
            pos,
        )

    def _detach(self, p: int, pos: int, key: Any, rhs_value: Any) -> None:
        group = self.positions[p][key]
        occupied = group[rhs_value]
        occupied.remove(pos)
        if not occupied:
            del group[rhs_value]
            if not group:
                del self.positions[p][key]

    def _view(self, p: int) -> dict[Any, tuple[dict, list[int]]]:
        """The partition's combiner exactly as the cold absorb loop builds
        it: keys in min-position order, rhs in min-position order within
        the key, witnesses = those min positions."""
        if p in self._stale:
            keyed = sorted(
                (
                    sorted((occupied[0], rhs_value) for rhs_value, occupied in group.items()),
                    key,
                )
                for key, group in self.positions[p].items()
            )
            self.local[p] = {
                key: (
                    {rhs_value: None for _, rhs_value in rhs_items},
                    [pos for pos, _ in rhs_items],
                )
                for rhs_items, key in keyed
            }
            self._stale.discard(p)
        return self.local[p]

    def on_append(self, placements: list[Placement]) -> None:
        for p, pos in placements:
            row = self.table.parts[p][pos]
            key, rhs_value = self.lhs_func(row), self.rhs_func(row)
            self.rowkeys[p].append((key, rhs_value))
            self._attach(p, pos, key, rhs_value)
            self._stale.add(p)
        self._dirty = True

    def on_update(self, placements: list[Placement]) -> None:
        for p, pos in placements:
            old_key, old_rhs = self.rowkeys[p][pos]
            row = self.table.parts[p][pos]
            key, rhs_value = self.lhs_func(row), self.rhs_func(row)
            self.rowkeys[p][pos] = (key, rhs_value)
            self._detach(p, pos, old_key, old_rhs)
            self._attach(p, pos, key, rhs_value)
            self._stale.add(p)
        self._dirty = True

    def emit(self) -> list[FDViolation]:
        if not self._dirty:
            return list(self._cached)
        # The kernel's own merge-and-emit over the combiners in
        # input-partition order (what every cold bucket sees), witnesses as
        # ``(partition, position)`` references.  A key lives in one bucket,
        # so bucketing the violations afterwards reproduces the cold output
        # order while ``stable_hash`` runs on the few, not on every key.
        keep = self.keep_records
        combiners = (
            (key, (rhs_seen, [(p, i) for i in positions] if keep else []))
            for p in range(len(self.local))
            for key, (rhs_seen, positions) in self._view(p).items()
        )
        n = self.table.num_partitions
        parts = self.table.parts
        buckets: list[list[FDViolation]] = [[] for _ in range(n)]
        for v in fd_merge(combiners, keep):
            rows = tuple(parts[p][i] for p, i in v.records)
            buckets[stable_hash(v.key) % n].append(FDViolation(v.key, v.rhs_values, rows))
        out = [v for bucket in buckets for v in bucket]
        self._cached = out
        self._dirty = False
        return list(out)


# ---------------------------------------------------------------------- #
# Denial constraints
# ---------------------------------------------------------------------- #

class IncrementalDC:
    """Maintained banded DC state: extracted entries, equality groups, and
    the violating-pair set, patched by probing deltas both ways.

    A patch probes (1) the delta rows as left tuples against the full
    maintained index and (2) the untouched rows against a delta-only index
    — the two scans partition the violating pairs that touch the delta, so
    their union with the surviving old pairs equals the cold pair set,
    including the kernel's exactly-once orientation rule for symmetric
    pairs.  Emission replays the banded scan's order from the maintained
    group ranks without rescanning.
    """

    def __init__(self, table: IncrementalTable, constraint: DenialConstraint):
        try:
            hash(constraint)
        except TypeError as exc:
            raise UnsupportedDelta("constraint is not hashable") from exc
        self.table = table
        self.constraint = constraint
        ordered = [
            i
            for i, p in enumerate(constraint.predicates)
            if p.op in ORDERED_OPS
        ]
        # plan_dc_entries ignores the entries for <= 1 ordered predicate:
        # the plan is static and patches skip re-planning entirely.
        self._static_plan = len(ordered) <= 1
        self._extract = record_extractor(constraint)
        self._passes = left_filter(constraint)
        self.entries: list[list[DCRecord]] = [
            extract_partition(part, constraint, part_idx=p)
            for p, part in enumerate(table.parts)
        ]
        self.plan = plan_dc_entries(constraint, self._flat())
        self.groups: dict[tuple, list[DCRecord]] = {}
        self.group_of: dict[Placement, tuple] = {}
        # key -> (band values | None, rank-ordered members, payload -> rank)
        self._frag: dict[tuple, tuple[list | None, list[DCRecord], dict]] = {}
        self.viols: dict[Placement, set[Placement]] = {}
        self.rev: dict[Placement, set[Placement]] = {}
        self._rebuild_pairs()
        self._dirty = True
        self._cached: list[tuple[dict, dict]] = []

    # -- group maintenance --------------------------------------------- #

    def _flat(self) -> list[DCRecord]:
        return [e for part in self.entries for e in part]

    def _enter(self, entry: DCRecord) -> None:
        key = dc_group_key(entry, self.plan)
        if key is None:
            return
        # Keep members in (partition, position) order — exactly the
        # insertion order the cold partition-major index build sees.
        insort(self.groups.setdefault(key, []), entry, key=lambda e: e.payload)
        self.group_of[entry.payload] = key
        self._frag.pop(key, None)

    def _leave(self, payload: Placement) -> None:
        key = self.group_of.pop(payload, None)
        if key is None:
            return
        members = self.groups[key]
        for i, entry in enumerate(members):
            if entry.payload == payload:
                del members[i]
                break
        if not members:
            del self.groups[key]
        self._frag.pop(key, None)

    def _fragment(self, key: tuple) -> tuple[list | None, list[DCRecord], dict]:
        frag = self._frag.get(key)
        if frag is None:
            # A copy: the group list is patched in place, a fragment is not.
            values, ordered = band_sorted(list(self.groups[key]), self.plan.band_idx)
            frag = (
                values,
                ordered,
                {e.payload: i for i, e in enumerate(ordered)},
            )
            self._frag[key] = frag
        return frag

    def _kernel_index(self) -> dict:
        """The maintained groups in ``build_dc_index`` output form."""
        return {key: self._fragment(key)[:2] for key in self.groups}

    # -- pair maintenance ---------------------------------------------- #

    def _add_pair(self, t1: Placement, t2: Placement) -> None:
        self.viols.setdefault(t1, set()).add(t2)
        self.rev.setdefault(t2, set()).add(t1)

    def _drop_pairs_touching(self, payloads: set) -> None:
        for pos in payloads:
            for t2 in self.viols.pop(pos, ()):
                peers = self.rev.get(t2)
                if peers is not None:
                    peers.discard(pos)
                    if not peers:
                        del self.rev[t2]
            for t1 in self.rev.pop(pos, ()):
                peers = self.viols.get(t1)
                if peers is not None:
                    peers.discard(pos)
                    if not peers:
                        del self.viols[t1]

    def _rebuild_pairs(self) -> None:
        self.groups = {}
        self.group_of = {}
        self._frag = {}
        for part in self.entries:
            for entry in part:
                self._enter(entry)
        self.viols = {}
        self.rev = {}
        lefts = [e for part in self.entries for e in filter(self._passes, part)]
        for t1, t2 in scan_partition(
            lefts, self._kernel_index(), self.plan, DCStats()
        ):
            self._add_pair(t1.payload, t2.payload)

    def _refresh_plan(self) -> bool:
        """Re-plan from the current entries; full rebuild when the band
        choice changed.  Returns True if a rebuild happened."""
        if self._static_plan:
            return False
        plan = plan_dc_entries(self.constraint, self._flat())
        if plan == self.plan:
            return False
        self.plan = plan
        self._rebuild_pairs()
        return True

    def _probe(self, delta: list[DCRecord]) -> None:
        passes, plan = self._passes, self.plan
        delta = sorted(delta, key=lambda e: e.payload)
        # Delta as left against everything (covers delta x delta once).
        delta_lefts = list(filter(passes, delta))
        for t1, t2 in scan_partition(
            delta_lefts, self._kernel_index(), plan, DCStats()
        ):
            self._add_pair(t1.payload, t2.payload)
        # Everything else as left against the delta only.
        delta_set = {e.payload for e in delta}
        delta_index = build_dc_index(delta, plan)
        old_lefts = [
            e
            for part in self.entries
            for e in part
            if e.payload not in delta_set and passes(e)
        ]
        for t1, t2 in scan_partition(
            old_lefts, delta_index, plan, DCStats()
        ):
            self._add_pair(t1.payload, t2.payload)

    # -- mutation hooks ------------------------------------------------ #

    def on_append(self, placements: list[Placement]) -> None:
        fresh: list[DCRecord] = []
        for p, pos in placements:
            row = self.table.parts[p][pos]
            entry = self._extract(row[RID], row, (p, pos))
            part = self.entries[p]
            if pos != len(part):
                raise UnsupportedDelta("misaligned append")
            part.append(entry)
            fresh.append(entry)
        if not self._refresh_plan():
            for entry in fresh:
                self._enter(entry)
            self._probe(fresh)
        self._dirty = True

    def on_update(self, placements: list[Placement]) -> None:
        order: list[Placement] = []
        seen: set[Placement] = set()
        for placement in placements:
            if placement not in seen:
                seen.add(placement)
                order.append(placement)
        for p, pos in order:
            self._leave((p, pos))
            row = self.table.parts[p][pos]
            self.entries[p][pos] = self._extract(row[RID], row, (p, pos))
        if not self._refresh_plan():
            self._drop_pairs_touching(seen)
            fresh = [self.entries[p][pos] for p, pos in order]
            for entry in fresh:
                self._enter(entry)
            self._probe(fresh)
        self._dirty = True

    # -- emission ------------------------------------------------------ #

    def emit(self) -> list[tuple[dict, dict]]:
        if not self._dirty:
            return list(self._cached)
        parts = self.table.parts
        eq_idx = self.plan.eq_idx
        out: list[tuple[dict, dict]] = []
        for t1pos in sorted(self.viols):
            p1, i1 = t1pos
            entry = self.entries[p1][i1]
            # The probe key the scan used for t1: left values of the
            # equality prefix.  Every surviving t2 is still a member of
            # that group, whose rank order is the scan's emission order.
            key = tuple(entry.lvals[i] for i in eq_idx)
            rank = self._fragment(key)[2]
            t1_row = parts[p1][i1]
            for t2pos in sorted(self.viols[t1pos], key=rank.__getitem__):
                out.append((t1_row, parts[t2pos[0]][t2pos[1]]))
        self._cached = out
        self._dirty = False
        return list(out)


# ---------------------------------------------------------------------- #
# Deduplication
# ---------------------------------------------------------------------- #

class IncrementalDedup:
    """Maintained blocking index plus memoized pair verification.

    Blocks map key -> member placements in (partition, position) order —
    the arrival order of the cold aggregate grouping.  Each placement
    carries a *stamp* bumped on update; prepared records and verification
    verdicts are memoized against (placement, stamp) pairs, so a patch
    re-verifies only pairs involving changed rows, and a block's cached
    pair list self-invalidates when its member signature drifts.  Stale
    verify-cache entries are only dropped with their rows' stamps, which
    bounds the leak at one generation per updated row.
    """

    def __init__(
        self,
        table: IncrementalTable,
        attributes: Sequence[str],
        metric: str,
        theta: float,
        block_on: Any,
        filters: Any,
    ):
        if callable(block_on):
            raise UnsupportedDelta("callable blocking keys are opaque")
        self.table = table
        self.attributes = list(attributes)
        self.join = SimJoin(
            self.attributes, metric=metric, theta=float(theta), filters=filters
        )
        self.key_func = block_key_func(block_on, self.attributes)
        self.blocks: dict[Any, list[Placement]] = {}
        self.key_of: dict[Placement, Any] = {}
        self.stamps: dict[Placement, int] = {}
        self.preps: dict[tuple[Placement, int], Any] = {}
        # (member sig, member sig) -> the pair when it verified, else False
        self.verify_cache: dict[tuple, DuplicatePair | bool] = {}
        # key -> (member (placement, stamp) signature, emitted pairs)
        self.block_cache: dict[Any, tuple[tuple, list[DuplicatePair]]] = {}
        self._rids: set = set()
        for p, part in enumerate(table.parts):
            for pos, row in enumerate(part):
                self._add((p, pos), row)
        self._dirty = True
        self._cached: list[DuplicatePair] = []

    def _add(self, placement: Placement, row: dict) -> None:
        rid = row[RID]
        if rid in self._rids:
            raise UnsupportedDelta(
                "duplicate _rid: pair dedupe keys on rid, parity needs them "
                "unique"
            )
        self._rids.add(rid)
        stamp = self.stamps.setdefault(placement, 0)
        self.preps[(placement, stamp)] = self.join.prepare(rid, row)
        key = self.key_func(row)
        self.key_of[placement] = key
        insort(self.blocks.setdefault(key, []), placement)

    def on_append(self, placements: list[Placement]) -> None:
        for placement in placements:
            p, pos = placement
            self._add(placement, self.table.parts[p][pos])
        self._dirty = True

    def on_update(self, placements: list[Placement]) -> None:
        seen: set[Placement] = set()
        for placement in placements:
            if placement in seen:
                continue
            seen.add(placement)
            p, pos = placement
            row = self.table.parts[p][pos]
            old_stamp = self.stamps[placement]
            self.preps.pop((placement, old_stamp), None)
            self.stamps[placement] = stamp = old_stamp + 1
            self.preps[(placement, stamp)] = self.join.prepare(row[RID], row)
            old_key = self.key_of[placement]
            new_key = self.key_func(row)
            if new_key != old_key:
                members = self.blocks[old_key]
                members.remove(placement)
                if not members:
                    del self.blocks[old_key]
                    self.block_cache.pop(old_key, None)
                self.key_of[placement] = new_key
                insort(self.blocks.setdefault(new_key, []), placement)
        self._dirty = True

    def _block_pairs(self, key: Any) -> list[DuplicatePair]:
        """One block's duplicate pairs.  A pair is built once, when it is
        verified, and cached against both members' (placement, stamp) — an
        update bumps the row's stamp, so a cached pair never holds a
        replaced row — and an unchanged block returns its cached list."""
        members = self.blocks[key]
        signature = tuple((pl, self.stamps[pl]) for pl in members)
        cached = self.block_cache.get(key)
        if cached is not None and cached[0] == signature:
            return cached[1]
        preps = [self.preps[sig] for sig in signature]
        sig_of = {id(prep): sig for prep, sig in zip(preps, signature)}
        pairs: list[DuplicatePair] = []
        # join_members with its verdicts memoized: the kernel's own (i, j)
        # visit order and rid-ordered output orientation.
        for a, b in self.join.block_pairs(preps):
            ckey = (sig_of[id(a)], sig_of[id(b)])
            pair = self.verify_cache.get(ckey)
            if pair is None:
                pair = self.verify_cache[ckey] = self.join.verify(a, b) and (
                    _to_pair(a, b) if a.rid <= b.rid else _to_pair(b, a)
                )
            if pair:
                pairs.append(pair)
        self.block_cache[key] = (signature, pairs)
        return pairs

    def emit(self) -> list[DuplicatePair]:
        if not self._dirty:
            return list(self._cached)
        n = self.table.num_partitions
        buckets: list[list[DuplicatePair]] = [[] for _ in range(n)]
        # First-arrival block order == sorted by earliest member placement.
        for key in sorted(self.blocks, key=lambda k: self.blocks[k][0]):
            buckets[stable_hash(key) % n].extend(self._block_pairs(key))
        out = [pair for bucket in buckets for pair in bucket]
        self._cached = out
        self._dirty = False
        return list(out)


#: State class per operation tag — the first element of the key the facade
#: files a maintained result under.
STATES: dict[str, type] = {"fd": IncrementalFD, "dc": IncrementalDC, "dedup": IncrementalDedup}
