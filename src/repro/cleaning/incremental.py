"""Incremental maintenance of cleaning results under row deltas.

``CleanDB.append_rows`` / ``update_rows`` bump the table version and ship
only the delta to the worker pool's partition store; on the driver side,
this module keeps *incremental states* — one per table and (operation,
argument) signature, each an entry of ``TableStore.derived`` whose patch
rule is :meth:`_Maintained.patch` — patched in place by probing the new or
changed rows against indexes over what the cold kernels compute, instead
of rescanning the table.  A state holds the store's own row list, not a
copy, and addresses a row only by its global row index ``g`` (the
parallel driver's reply form).

The correctness contract is strict: every ``emit()`` must be
**byte-identical** (same objects, same order) to a cold re-run of the same
check on the post-delta table.  The cold paths are deterministic functions
of the round-robin layout, row ``g`` in partition ``g % n`` for ``n =
cluster.default_parallelism``, so each item's place is read off ``g``:

* FD: the merge-side arrival order of combiners (input-partition-major,
  first-seen key order) bucketed by ``stable_hash(key) % n``;
* DC: the banded scan's order — left entries partition-major, candidates
  in band-sorted rank order within the probed equality group;
* dedup: block first-arrival order bucketed the same way, each block's
  pairs in :func:`~repro.cleaning.dedup.block_pairs`'s order and
  orientation.

A state that cannot guarantee parity raises :class:`UnsupportedDelta` (at
construction) or any exception (mid-patch): the store drops it and the
next check rebuilds it or runs the cold path, which is always correct.
The gates, all enforced here:

* a table smaller than ``num_partitions`` (the engines clamp the layout
  below it), and a row that is not a dict with a non-``None`` ``_rid`` —
  :func:`in_scope`, at build and on every patch;
* dedup: duplicate rids (pair dedupe keys on rid) and a callable blocking
  spec;
* a check whose arguments do not hash has no key to be kept under — the
  same bound as the parallel backend's derived cache.

Cost: a patch and the ``emit`` after it cost O(delta x group), never
O(table); only producing the output list is proportional to its length.
FD patches one sorted row-index list per changed row; ``emit`` re-merges
the touched keys (one first row per partition and rhs value each) and
re-sorts the cached violations, already nearly in order.  Dedup re-derives
each touched block and concatenates the rest's cached pairs; in a touched
block only the pairs with a changed row are verified, O(delta x block)
verifications, and the others are looked up in the block's cached pairs.
Nothing per record outlives an emit: each verifies under its own join,
preparing (q-gram bags included) every member of a touched block again.
DC bisects each changed entry into or out of the cold builder's own index,
then probes the delta both ways: delta-as-left against the groups it
reaches, and each reached group's maintained lefts (``lefts``), sorted once
(O(G log G)), from the delta's side (O(log G + band range) per entry).
A constraint with more than one ordered predicate re-plans against all
entries on every patch (band selection is data-dependent) and rebuilds through
:func:`~repro.cleaning.denial.build_dc_state` when the plan changes; a
single-ordered one never re-plans
(:func:`~repro.cleaning.dc_kernel.plan_dc_entries` ignores its entries).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from operator import itemgetter
from typing import Any, Callable, Iterable, Sequence

from ..engine.partitioner import round_robin_split, stable_hash
from .dc_kernel import (
    DCRecord,
    DCStats,
    DenialConstraint,
    ORDERED_OPS,
    band_sorted,
    build_dc_index,
    dc_group_key,
    left_filter,
    plan_dc_entries,
    record_extractor,
    scan_partition,
    scan_right_anchored,
)
from .dedup import DuplicatePair, _to_pair, block_key_func
from .denial import DCState, FDViolation, _key_func, build_dc_state
from .rowid import RID
from .simjoin import SimJoin

__all__ = [
    "IncrementalFD",
    "IncrementalDC",
    "IncrementalDedup",
    "STATES",
    "UnsupportedDelta",
]


class UnsupportedDelta(Exception):
    """The table or arguments fall outside an incremental state's parity
    guarantee; the caller must use the cold path."""


def _unlink(links: dict[Any, dict], key: Any, member: Any) -> None:
    """Drop ``member`` from ``links[key]``, and the key once it holds nothing."""
    held = links.get(key)
    if held is not None:
        held.pop(member, None)
        if not held:
            del links[key]


def in_scope(rows: Sequence[Any], num_partitions: int = 0) -> Sequence[Any]:
    """The scope gate, for a table at build (``num_partitions`` given) and
    for the appended rows of every patch."""
    if len(rows) < num_partitions:
        raise UnsupportedDelta(
            "table smaller than the partition count: engines clamp the "
            "layout below this size"
        )
    for row in rows:
        if not isinstance(row, dict) or row.get(RID) is None:
            raise UnsupportedDelta("rows must be dicts with a non-None _rid")
    return rows


class _Maintained:
    """What the three states share: the store's row list, addressed by
    global row index, the patch rule, and the keyed re-fold behind every
    ``emit``."""

    def __init__(self, rows: list, num_partitions: int):
        self.rows = in_scope(rows, num_partitions)
        self.num_partitions = num_partitions
        self._touched: set = set()
        self._cached: list = []

    def _arrival(self, g: int) -> tuple[int, int]:
        """Row ``g``'s rank in a cold kernel's partition-major pass."""
        return g % self.num_partitions, g

    def patch(self, base: int, appended: Sequence[dict], updated: Sequence[tuple[int, dict]]):
        """``TableStore.derived``'s patch rule: fold one delta, already
        applied to the rows (``updated`` names a position once), into the
        state, by global row index.  Raising drops the state."""
        if appended:
            self._append(range(base, base + len(appended)), in_scope(appended))
        if updated:
            self._update([g for g, _ in updated])
        return self

    def _refold(self, kept: dict, fold: Callable[[Any], tuple | None]) -> list:
        """A check is a fold per key and the monoid is associative (§4): re-
        fold the keys touched since the last emit, keep every other key's
        ``(place in the cold output, items)``, emit sorted by place.  A fold
        may read its key's entry as of the last emit."""
        if self._touched:
            for key in self._touched:
                if (entry := fold(key)) is None:
                    kept.pop(key, None)
                else:
                    kept[key] = entry
            self._touched.clear()
            self._cached = [
                item for _, items in sorted(kept.values(), key=itemgetter(0)) for item in items
            ]
        return list(self._cached)


# ---------------------------------------------------------------------- #
# Functional dependencies
# ---------------------------------------------------------------------- #

class IncrementalFD(_Maintained):
    """Maintained FD occupancy, patched in O(log) per changed row and
    re-merged per touched key.

    The cold aggregate path's answer for one key is a pure function of
    where each ``(partition, rhs)`` pair first occurs: a partition's
    combiner lists the key's distinct rhs values in first-row order with
    exactly those rows as witnesses, and the merge side folds the
    combiners input-partition-major.  So the maintained truth is
    ``groups[key][(g % n, rhs)] = ascending row indices``; sorting one
    key's ``(partition, first row)`` pairs yields its rhs order, its
    witnesses and its arrival rank.  A mutation marks its old and new key
    touched; ``emit`` re-merges only those and keeps every other key's
    violation."""

    def __init__(
        self,
        rows: list,
        num_partitions: int,
        lhs: Sequence[str],
        rhs: Sequence[str],
        keep_records: bool,
    ):
        specs = [*lhs, *rhs]
        if not specs or not all(isinstance(a, str) for a in specs):
            raise UnsupportedDelta("incremental FD needs plain attribute names")
        super().__init__(rows, num_partitions)
        self.lhs_func: Callable[[dict], Any] = _key_func(list(lhs))
        self.rhs_func: Callable[[dict], Any] = _key_func(list(rhs))
        self.keep_records = bool(keep_records)
        # keys[g] = (key, rhs) as row g spells them: what an update detaches.
        self.keys: list[tuple[Any, Any]] = []
        self.groups: dict[Any, dict[tuple[int, Any], list[int]]] = {}
        # Violating key -> (its place in the cold output, (the violation,)):
        # the place is (merge bucket, first arrival of the key).
        self.violations: dict[Any, tuple[tuple[int, int, int], tuple[FDViolation]]] = {}
        self._append(range(len(rows)), rows)

    def _attach(self, g: int) -> None:
        key, rhs_value = self.keys[g]
        slot = (g % self.num_partitions, rhs_value)
        insort(self.groups.setdefault(key, {}).setdefault(slot, []), g)
        self._touched.add(key)

    def _detach(self, g: int) -> None:
        key, rhs_value = self.keys[g]
        group, slot = self.groups[key], (g % self.num_partitions, rhs_value)
        group[slot].remove(g)
        if not group[slot]:
            del group[slot]
            if not group:
                del self.groups[key]
        self._touched.add(key)

    def _append(self, changed: Sequence[int], rows: Sequence[dict]) -> None:
        for g, row in zip(changed, rows):
            self.keys.append((self.lhs_func(row), self.rhs_func(row)))
            self._attach(g)

    def _update(self, changed: Sequence[int]) -> None:
        for g in changed:
            self._detach(g)
            row = self.rows[g]
            self.keys[g] = (self.lhs_func(row), self.rhs_func(row))
            self._attach(g)

    def _merge(self, key: Any) -> tuple | None:
        """Re-derive one key's violation, as the cold merge of its
        per-partition combiners would: one witness per combiner entry —
        the first bearer of each ``(partition, rhs)`` — in arrival order,
        with the rhs values as those rows spell them (``True`` and ``1``
        are one rhs value, but not one ``repr``)."""
        group = self.groups.get(key, {})
        firsts = sorted(self._arrival(occupied[0]) for occupied in group.values())
        spelled = [self.keys[g] for _, g in firsts]
        rhs_values = tuple(dict.fromkeys(rhs_value for _, rhs_value in spelled))
        if len(rhs_values) <= 1:
            return None
        rows = tuple(self.rows[g] for _, g in firsts) if self.keep_records else ()
        place = (stable_hash(key) % self.num_partitions, *firsts[0])
        return place, (FDViolation(spelled[0][0], rhs_values, rows),)

    def emit(self) -> list[FDViolation]:
        return self._refold(self.violations, self._merge)


# ---------------------------------------------------------------------- #
# Denial constraints
# ---------------------------------------------------------------------- #

class IncrementalDC(_Maintained):
    """:func:`~repro.cleaning.denial.build_dc_state`'s plan, entries and
    index, patched in place, plus the violating pairs, patched by probing
    each delta both ways (:meth:`_settle`).  The cold build stable-sorts a
    group in placement order, so a band-sorted group is ordered by ``(band
    value, placement)`` and any other by placement: an entry enters and
    leaves its group by bisection on that rank.  An entry's payload, and
    every key below, is its global row index ``g`` (the parallel driver's
    reply form).  ``emit`` is the keyed re-fold, placed by t1's placement,
    its partners in group rank order."""

    def __init__(self, rows: list, num_partitions: int, constraint: DenialConstraint):
        super().__init__(rows, num_partitions)
        self.constraint = constraint
        # plan_dc_entries ignores the entries for <= 1 ordered predicate:
        # the plan is static and patches skip re-planning entirely.
        self._static_plan = sum(p.op in ORDERED_OPS for p in constraint.predicates) <= 1
        self._extract = record_extractor(constraint)
        self._passes = left_filter(constraint)
        self._load(build_dc_state(constraint, round_robin_split(rows, num_partitions), refs=True))

    def _load(self, state: DCState) -> None:
        """Adopt a built state's plan, entries and index; the left-probe map
        and the pair set come from one scan of its left parts."""
        self.plan, self.entries, self.index = state.plan, state.entries, state.index
        lefts = [e for part in state.left_parts for e in part]
        # probe key -> the entries passing the left filter that probe it
        self.lefts: dict[tuple, dict[int, DCRecord]] = {}
        for entry in lefts:
            self.lefts.setdefault(self._left_key(entry), {})[entry.payload] = entry
        # t1 -> its partners, t2 -> the entries it is a partner of, by row
        # index (dicts as sets, so one ``_unlink`` serves these and ``lefts``)
        self.viols: dict[int, dict[int, None]] = {}
        self.rev: dict[int, dict[int, None]] = {}
        # t1 -> (its place, its pairs) as of the last emit
        self.kept: dict[int, tuple[tuple[int, int], list]] = {}
        self._cached = []  # void the last answer: the scan touches every t1 it pairs
        self._add_pairs(scan_partition(lefts, self.index, self.plan, DCStats()))

    # -- index maintenance --------------------------------------------- #

    def _entry(self, g: int) -> DCRecord:
        return self.entries[g % self.num_partitions][g // self.num_partitions]

    def _place(self, entry: DCRecord) -> tuple[int, int]:
        """Where an entry sits in the cold, partition-major entry stream."""
        return self._arrival(entry.payload)

    def _left_key(self, entry: DCRecord) -> tuple:
        """The group ``entry`` probes as t1: the left values of the
        equality prefix (the scan's own probe key)."""
        return tuple([entry.lvals[i] for i in self.plan.eq_idx])

    def _rank(self, values: list | None) -> Callable[[DCRecord], Any]:
        """The member order of an index group with band ``values``."""
        if values is None:
            return self._place
        band = self.plan.band_idx
        return lambda e: (e.rvals[band], self._place(e))

    def _reform(self, key: tuple, members: list[DCRecord]) -> None:
        """Re-sort a group from placement order, as the cold build does:
        bisection cannot place a band value the group cannot order, and
        the member that could not be ordered may have left.  Its order may
        change, so the entries that probe it re-emit."""
        self.index[key] = band_sorted(members, self.plan.band_idx)
        self._touched.update(self.lefts.get(key, ()))

    def _enter(self, entry: DCRecord) -> None:
        if self._passes(entry):
            self.lefts.setdefault(self._left_key(entry), {})[entry.payload] = entry
        key = dc_group_key(entry, self.plan)
        if key is None:
            return
        if key not in self.index:
            self.index[key] = band_sorted([], self.plan.band_idx)
        values, members = self.index[key]
        rank = self._rank(values)
        try:
            at = bisect_left(members, rank(entry), key=rank)
        except TypeError:
            return self._reform(key, sorted([*members, entry], key=self._place))
        members.insert(at, entry)
        if values is not None:
            values.insert(at, entry.rvals[self.plan.band_idx])

    def _leave(self, entry: DCRecord) -> None:
        _unlink(self.lefts, self._left_key(entry), entry.payload)
        key = dc_group_key(entry, self.plan)
        if key is None:
            return
        values, members = self.index[key]
        rank = self._rank(values)
        at = bisect_left(members, rank(entry), key=rank)
        del members[at]
        if values is not None:
            del values[at]
        if not members:
            del self.index[key]
        elif values is None and self.plan.band_idx is not None:
            self._reform(key, members)

    # -- pair maintenance ---------------------------------------------- #

    def _add_pairs(self, pairs: Iterable[tuple[DCRecord, DCRecord]]) -> None:
        for t1, t2 in pairs:
            self.viols.setdefault(t1.payload, {})[t2.payload] = None
            self.rev.setdefault(t2.payload, {})[t1.payload] = None
            self._touched.add(t1.payload)

    def _drop_pairs_touching(self, changed: Iterable[int]) -> None:
        for g in changed:
            self._touched.add(g)
            for t2 in self.viols.pop(g, ()):
                _unlink(self.rev, t2, g)
            for t1 in self.rev.pop(g, ()):
                self._touched.add(t1)
                _unlink(self.viols, t1, g)

    # -- the patch rule ------------------------------------------------ #

    def _append(self, changed: Sequence[int], rows: Sequence[dict]) -> None:
        for g, row in zip(changed, rows):
            self.entries[g % self.num_partitions].append(self._extract(row[RID], row, g))
        self._settle(changed)

    def _update(self, changed: Sequence[int]) -> None:
        n = self.num_partitions
        for g in changed:
            self._leave(self._entry(g))
            self.entries[g % n][g // n] = self._extract(self.rows[g][RID], self.rows[g], g)
        self._settle(changed)

    def _settle(self, changed: Sequence[int]) -> None:
        """Index the changed entries and probe them both ways — or, when
        the data now picks another band, rebuild through the builder.  The
        two scans partition the violating pairs that touch the delta, so
        their union with the surviving pairs is the cold pair set, the
        kernel's exactly-once orientation rule included."""
        if not self._static_plan:
            flat = [e for part in self.entries for e in part]
            if plan_dc_entries(self.constraint, flat) != self.plan:
                return self._load(build_dc_state(self.constraint, entries=self.entries))
        self._drop_pairs_touching(changed)
        delta = list(map(self._entry, changed))
        for entry in delta:
            self._enter(entry)
        # Delta as left against the index (covers delta x delta once) ...
        delta_lefts = list(filter(self._passes, delta))
        self._add_pairs(scan_partition(delta_lefts, self.index, self.plan, DCStats()))
        # ... and the other lefts that reach a delta entry's group, probed
        # from the delta's side: one sort of a group's lefts per write.
        skip = set(changed)
        for key, group in build_dc_index(delta, self.plan).items():
            if old_lefts := [e for g, e in self.lefts.get(key, {}).items() if g not in skip]:
                self._add_pairs(scan_right_anchored(old_lefts, group, self.plan))

    # -- emission ------------------------------------------------------ #

    def _pairs(self, t1: int) -> tuple | None:
        """One left tuple's violations: its partners are all still members
        of the group the scan probed for it, emitted in that group's rank."""
        if not (peers := self.viols.get(t1)):
            return None
        entry, rows = self._entry(t1), self.rows
        rank = self._rank(self.index[self._left_key(entry)][0])
        partners = sorted(map(self._entry, peers), key=rank)
        return self._place(entry), [(rows[t1], rows[e.payload]) for e in partners]

    def emit(self) -> list[tuple[dict, dict]]:
        return self._refold(self.kept, self._pairs)


# ---------------------------------------------------------------------- #
# Deduplication
# ---------------------------------------------------------------------- #

class IncrementalDedup(_Maintained):
    """A maintained blocking index over the cold drivers' pair derivation.

    ``blocks[key]`` holds a block's row indices in partition-major order —
    the arrival order of the cold grouping — and ``keys[g]`` row ``g``'s
    block key.  A mutation marks the blocks it leaves and enters touched,
    and the row changed; ``emit`` re-derives only the touched blocks
    (:meth:`_block_pairs`) and keeps every other block's pairs.  A row
    leaves or enters a block only by changing, so a block's unchanged
    members were all in it when its cached pairs were derived: those
    pairs are their verdicts."""

    def __init__(
        self,
        rows: list,
        num_partitions: int,
        attributes: Sequence[str],
        metric: str,
        theta: float,
        block_on: Any,
        filters: Any,
    ):
        if callable(block_on):
            raise UnsupportedDelta("callable blocking keys are opaque")
        super().__init__(rows, num_partitions)
        self.join_args = (list(attributes), metric, float(theta), filters)
        self.key_func = block_key_func(block_on, attributes)
        self.blocks: dict[Any, list[int]] = {}
        self.keys: list = []
        # key -> (the block's place in the cold output, its pairs), for
        # every block that had pairs at the last emit; the place is (merge
        # bucket, first arrival = earliest member).
        self.block_cache: dict[Any, tuple[tuple, list[DuplicatePair]]] = {}
        self._rids: set = set()
        self._changed: set = set()  # rids appended or updated since the last emit
        self._join: SimJoin | None = None  # set for the length of one emit
        self._append(range(len(rows)), rows)

    def _enter(self, g: int) -> None:
        key = self.keys[g]
        insort(self.blocks.setdefault(key, []), g, key=self._arrival)
        self._touched.add(key)
        self._changed.add(self.rows[g][RID])

    def _leave(self, g: int) -> None:
        key = self.keys[g]
        members = self.blocks[key]
        members.remove(g)
        if not members:
            del self.blocks[key]
        self._touched.add(key)

    def _append(self, changed: Sequence[int], rows: Sequence[dict]) -> None:
        for g, row in zip(changed, rows):
            if row[RID] in self._rids:
                raise UnsupportedDelta(
                    "duplicate _rid: pair dedupe keys on rid, parity needs them "
                    "unique"
                )
            self._rids.add(row[RID])
            self.keys.append(self.key_func(row))
            self._enter(g)

    def _update(self, changed: Sequence[int]) -> None:
        for g in changed:
            self._leave(g)
            self.keys[g] = self.key_func(self.rows[g])
            self._enter(g)

    def _block_pairs(self, members: list[int]) -> list[DuplicatePair]:
        """One block's pairs as :func:`~repro.cleaning.dedup.block_pairs`
        derives them — the kernel's visit order, each pair rid-ordered —
        but only a pair with a changed member is verified; a pair of two
        unchanged members is one of the block's cached pairs or none."""
        rows, join, changed = self.rows, self._join, self._changed
        _, cached = self.block_cache.get(self.keys[members[0]], ((), ()))
        held = {(pair.left_id, pair.right_id): pair for pair in cached}
        out = []
        for a, b in join.block_pairs([join.prepare(rows[g][RID], rows[g]) for g in members]):
            left, right = (a, b) if a.rid <= b.rid else (b, a)
            if a.rid in changed or b.rid in changed:
                if join.verify(a, b):
                    out.append(_to_pair(left, right))
            elif pair := held.get((left.rid, right.rid)):
                out.append(pair)
        return out

    def _block(self, key: Any) -> tuple | None:
        members = self.blocks.get(key)
        if members and (pairs := self._block_pairs(members)):
            return (stable_hash(key) % self.num_partitions, *self._arrival(members[0])), pairs
        return None

    def emit(self) -> list[DuplicatePair]:
        """The touched blocks re-derive under one fresh join, as every cold
        driver's call constructs one; it dies with the emit, its gram pool
        and prepared records with it."""
        self._join = SimJoin(*self.join_args)
        try:
            return self._refold(self.block_cache, self._block)
        finally:
            self._join = None
            self._changed.clear()


#: State class per operation tag — the first element of the key the facade
#: files a maintained result under.
STATES: dict[str, type] = {"fd": IncrementalFD, "dc": IncrementalDC, "dedup": IncrementalDedup}
