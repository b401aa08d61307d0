"""Incremental maintenance of cleaning results under row deltas.

``CleanDB.append_rows`` / ``update_rows`` bump the table version and ship
only the delta to the worker pool's partition store; on the driver side,
this module keeps *incremental states* — one per table and (operation,
argument) signature, each an entry of ``TableStore.derived`` whose patch
rule is :meth:`_Maintained.patch` — that are patched in place by probing
the new or changed rows against maintained indexes instead of rescanning
the table.  A state holds the store's own row list, not a copy: the row at
``(partition, position)`` is ``rows[position * n + partition]``.

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
construction) or any exception (mid-patch): the store drops the state and
the next check rebuilds it or falls back to the cold path, which is always
correct.

Scope gates (all enforced here, not by callers; the first two by
:func:`in_scope`, at build and on every patch):

* tables smaller than ``num_partitions`` never get incremental state —
  below that size the engines clamp partition counts and the layout
  arithmetic above does not hold;
* every row (including delta rows) must be a dict carrying a non-``None``
  ``_rid`` — the states address rows by it;
* dedup additionally requires globally unique rids (its pair-dedupe
  semantics key on rid) and a non-callable blocking spec;
* a check whose arguments do not hash (a DC over unhashable constants)
  has no key to be kept under — the same bound as the parallel backend's
  derived cache.

Cost notes: a patch and the ``emit`` after it cost O(delta x group), never
O(table); only producing the output list is proportional to its length.
FD patches one sorted position list per changed row, and ``emit``
re-merges the keys touched since the last one (a key's merge reads one
first position per partition and rhs value) and re-sorts the cached
violations, which are already nearly in order.  Dedup re-derives the
blocks whose membership or stamps changed — verdicts between unchanged
members come from the verdict cache — and concatenates the cached pair
lists of the rest.  DC bisects each changed entry into or out of the
cold builder's own index, then probes the delta both ways: delta-as-left
against the groups it reaches, and the maintained left tuples whose
equality key reaches a delta entry's group (``lefts``) against a
delta-only index — one equality group's worth of probes per distinct delta
key, in place of the cold path's extraction, group sort and full banded
scan.  Constraints with more than one ordered predicate are the
exception: they re-plan against the full entry set on every patch (band
selection is data-dependent) and rebuild through
:func:`~repro.cleaning.denial.build_dc_state` when the chosen plan
changes; single-ordered constraints never re-plan, because
:func:`~repro.cleaning.dc_kernel.plan_dc_entries` ignores the entries for
them.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from operator import itemgetter
from typing import Any, Callable, Iterable, Sequence

from ..engine.partitioner import stable_hash
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


Placement = tuple[int, int]


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
    """What the three states share: the store's row list read in the
    round-robin layout every backend derives from it, the patch rule, and
    the keyed re-fold behind every ``emit``."""

    def __init__(self, rows: list, num_partitions: int):
        self.rows = in_scope(rows, num_partitions)
        self.num_partitions = num_partitions
        self._touched: set = set()
        self._cached: list = []

    def _row(self, placement: Placement) -> dict:
        return self.rows[placement[1] * self.num_partitions + placement[0]]

    def _placements(self, globals_: Iterable[int]) -> list[Placement]:
        """Where global row index ``g`` lives: ``(g % n, g // n)``."""
        n = self.num_partitions
        return [(g % n, g // n) for g in globals_]

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
        ``(place in the cold output, items)``, emit sorted by place."""
        if self._touched:
            for key in self._touched:
                kept.pop(key, None)
                if (entry := fold(key)) is not None:
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
    combiner lists the key's distinct rhs values in min-position order
    with exactly those rows as witnesses, and the merge side folds the
    combiners input-partition-major.  So the maintained truth is
    ``groups[key][(p, rhs)] = ascending positions``; sorting one key's
    ``(p, min position)`` pairs yields its rhs order, its witnesses and
    its arrival rank.  A mutation marks its old and new key touched;
    ``emit`` re-merges only those and keeps every other key's violation."""

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
        # rowkeys[p][pos] = (key, rhs): O(1) old-value lookup on update.
        self.rowkeys: list[list[tuple[Any, Any]]] = [[] for _ in range(num_partitions)]
        self.groups: dict[Any, dict[tuple[int, Any], list[int]]] = {}
        # Violating key -> (its place in the cold output, (the violation,)):
        # the place is (merge bucket, first arrival = the lowest partition
        # holding the key and the key's minimum position there).
        self.violations: dict[Any, tuple[tuple[int, int, int], tuple[FDViolation]]] = {}
        self._append(range(len(rows)), rows)

    def _attach(self, p: int, pos: int, key: Any, rhs_value: Any) -> None:
        insort(self.groups.setdefault(key, {}).setdefault((p, rhs_value), []), pos)
        self._touched.add(key)

    def _detach(self, p: int, pos: int, key: Any, rhs_value: Any) -> None:
        group = self.groups[key]
        occupied = group[(p, rhs_value)]
        occupied.remove(pos)
        if not occupied:
            del group[(p, rhs_value)]
            if not group:
                del self.groups[key]
        self._touched.add(key)

    def _append(self, changed: Sequence[int], rows: Sequence[dict]) -> None:
        for (p, pos), row in zip(self._placements(changed), rows):
            key, rhs_value = self.lhs_func(row), self.rhs_func(row)
            self.rowkeys[p].append((key, rhs_value))
            self._attach(p, pos, key, rhs_value)

    def _update(self, changed: Sequence[int]) -> None:
        for p, pos in self._placements(changed):
            row = self._row((p, pos))
            key, rhs_value = self.lhs_func(row), self.rhs_func(row)
            self._detach(p, pos, *self.rowkeys[p][pos])
            self.rowkeys[p][pos] = (key, rhs_value)
            self._attach(p, pos, key, rhs_value)

    def _merge(self, key: Any) -> tuple | None:
        """Re-derive one key's violation, as the cold merge of its
        per-partition combiners would: one witness per combiner entry —
        the first bearer of each ``(partition, rhs)`` — in arrival order,
        with the key and rhs values as those rows spell them (``True``
        and ``1`` are one key, but not one ``repr``)."""
        group = self.groups.get(key, {})
        firsts = sorted((p, occupied[0]) for (p, _), occupied in group.items())
        spelled = [self.rowkeys[p][i] for p, i in firsts]
        rhs_values = tuple(dict.fromkeys(rhs_value for _, rhs_value in spelled))
        if len(rhs_values) <= 1:
            return None
        rows = tuple(map(self._row, firsts)) if self.keep_records else ()
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
        n = num_partitions
        self._load(build_dc_state(constraint, [rows[p::n] for p in range(n)], refs=True))

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
        self.kept: dict[int, tuple[Placement, list]] = {}
        self._cached = []  # void the last answer: the scan touches every t1 it pairs
        for t1, t2 in scan_partition(lefts, self.index, self.plan, DCStats()):
            self._add_pair(t1.payload, t2.payload)

    # -- index maintenance --------------------------------------------- #

    def _entry(self, g: int) -> DCRecord:
        return self.entries[g % self.num_partitions][g // self.num_partitions]

    def _place(self, entry: DCRecord) -> Placement:
        """Where an entry sits in the cold, partition-major entry stream."""
        return entry.payload % self.num_partitions, entry.payload

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

    def _add_pair(self, t1: int, t2: int) -> None:
        self.viols.setdefault(t1, {})[t2] = None
        self.rev.setdefault(t2, {})[t1] = None
        self._touched.add(t1)

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
        for (p, pos), g in zip(self._placements(changed), changed):
            self._leave(self.entries[p][pos])
            self.entries[p][pos] = self._extract(self.rows[g][RID], self.rows[g], g)
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
        for t1, t2 in scan_partition(delta_lefts, self.index, self.plan, DCStats()):
            self._add_pair(t1.payload, t2.payload)
        # ... and the other lefts that reach a delta entry's group, against
        # the delta only.
        delta_index = build_dc_index(delta, self.plan)
        skip = set(changed)
        old_lefts = [
            e for key in delta_index for g, e in self.lefts.get(key, {}).items() if g not in skip
        ]
        for t1, t2 in scan_partition(old_lefts, delta_index, self.plan, DCStats()):
            self._add_pair(t1.payload, t2.payload)

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
    """Maintained blocking index plus memoized pair verification.

    Blocks map key -> member placements in (partition, position) order —
    the arrival order of the cold aggregate grouping.  Each placement
    carries a *stamp* bumped on update; prepared records and verification
    verdicts are memoized against (placement, stamp) pairs, so a patch
    re-verifies only pairs involving changed rows.  A mutation marks the
    blocks it changes touched; ``emit`` re-derives only those.  An update retires the replaced row's prepared
    record and every verdict keyed on it, so all three caches are bounded
    by the live table, however long the update stream.
    """

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
        # key -> (the block's place in the cold output, its pairs), for
        # every block that had pairs at the last emit; the place is (merge
        # bucket, first arrival = earliest member placement).
        self.block_cache: dict[Any, tuple[tuple, list[DuplicatePair]]] = {}
        self._rids: set = set()
        self._append(range(len(rows)), rows)

    def _append(self, changed: Sequence[int], rows: Sequence[dict]) -> None:
        for placement, row in zip(self._placements(changed), rows):
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
            self._touched.add(key)

    def _update(self, changed: Sequence[int]) -> None:
        for placement in self._placements(changed):
            row = self._row(placement)
            old_key = self.key_of[placement]
            members = self.blocks[old_key]
            # Retire the replaced row: its prepared record and its verdicts.
            # A verdict is only ever recorded between two members of one
            # block at their current stamps, so the row's block mates name
            # every verdict that mentions it.
            retired = (placement, self.stamps[placement])
            self.preps.pop(retired, None)
            for mate in members:
                other = (mate, self.stamps[mate])
                self.verify_cache.pop((retired, other), None)
                self.verify_cache.pop((other, retired), None)
            self.stamps[placement] = stamp = retired[1] + 1
            self.preps[(placement, stamp)] = self.join.prepare(row[RID], row)
            new_key = self.key_func(row)
            self._touched.add(old_key)
            if new_key != old_key:
                members.remove(placement)
                if not members:
                    del self.blocks[old_key]
                self.key_of[placement] = new_key
                insort(self.blocks.setdefault(new_key, []), placement)
                self._touched.add(new_key)

    def _block_pairs(self, members: list[Placement]) -> list[DuplicatePair]:
        """One block's duplicate pairs.  A pair is built once, when it is
        verified, and cached against both members' (placement, stamp) — an
        update bumps the row's stamp, so a cached pair never holds a
        replaced row."""
        signature = [(pl, self.stamps[pl]) for pl in members]
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
        return pairs

    def _block(self, key: Any) -> tuple | None:
        members = self.blocks.get(key)
        if members and (pairs := self._block_pairs(members)):
            return (stable_hash(key) % self.num_partitions, members[0]), pairs
        return None

    def emit(self) -> list[DuplicatePair]:
        return self._refold(self.block_cache, self._block)


#: State class per operation tag — the first element of the key the facade
#: files a maintained result under.
STATES: dict[str, type] = {"fd": IncrementalFD, "dc": IncrementalDC, "dedup": IncrementalDedup}
