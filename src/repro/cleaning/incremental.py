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
lists of the rest.  DC probes the delta both ways: delta-as-left against
the maintained groups it reaches, and the maintained left tuples whose
equality key reaches a delta entry's group (``lefts``) against a
delta-only index — one equality group's worth of probes per distinct delta
key, in place of the cold path's extraction, group sort and full banded
scan.  Constraints with more than one ordered predicate are the
exception: they re-plan against the full entry set on every patch (band
selection is data-dependent) and rebuild outright when the chosen plan
changes; single-ordered constraints skip re-planning entirely because
:func:`~repro.cleaning.dc_kernel.plan_dc_entries` ignores the entries for
them.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from operator import attrgetter, itemgetter
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
    extract_partition,
    left_filter,
    plan_dc_entries,
    record_extractor,
    scan_partition,
)
from .dedup import DuplicatePair, _to_pair, block_key_func
from .denial import FDViolation, _key_func
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


_payload = attrgetter("payload")


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
    the re-fold ``emit`` of the two keyed states."""

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
        state.  Raising drops the state."""
        if appended:
            placements = self._placements(range(base, base + len(appended)))
            self._append(placements, in_scope(appended))
        if updated:
            self._update(self._placements(g for g, _ in updated))
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
        self._append(self._placements(range(len(rows))), rows)

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

    def _append(self, placements: list[Placement], rows: Sequence[dict]) -> None:
        for (p, pos), row in zip(placements, rows):
            key, rhs_value = self.lhs_func(row), self.rhs_func(row)
            self.rowkeys[p].append((key, rhs_value))
            self._attach(p, pos, key, rhs_value)

    def _update(self, placements: list[Placement]) -> None:
        for p, pos in placements:
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
    """Maintained banded DC state: extracted entries, equality groups, and
    the violating-pair set, patched by probing deltas both ways.

    A patch probes (1) the delta rows as left tuples against the
    maintained groups they reach and (2) the untouched left tuples whose
    equality key reaches a delta row's group (``lefts``) against a
    delta-only index — the two scans partition the violating pairs that
    touch the delta, so their union with the surviving old pairs equals
    the cold pair set, including the kernel's exactly-once orientation
    rule for symmetric pairs.  Emission replays the banded scan's order
    from the maintained group ranks without rescanning.
    """

    def __init__(self, rows: list, num_partitions: int, constraint: DenialConstraint):
        super().__init__(rows, num_partitions)
        self.constraint = constraint
        # plan_dc_entries ignores the entries for <= 1 ordered predicate:
        # the plan is static and patches skip re-planning entirely.
        self._static_plan = sum(p.op in ORDERED_OPS for p in constraint.predicates) <= 1
        self._extract = record_extractor(constraint)
        self._passes = left_filter(constraint)
        self.entries: list[list[DCRecord]] = [
            extract_partition(rows[p::num_partitions], constraint, part_idx=p)
            for p in range(num_partitions)
        ]
        self.plan = plan_dc_entries(constraint, self._flat())
        self.groups: dict[tuple, list[DCRecord]] = {}
        self.group_of: dict[Placement, tuple] = {}
        # probe key -> the entries passing the left filter that probe it
        self.lefts: dict[tuple, dict[Placement, DCRecord]] = {}
        # key -> (band values | None, rank-ordered members, payload -> rank)
        self._frag: dict[tuple, tuple[list | None, list[DCRecord], dict]] = {}
        self.viols: dict[Placement, set[Placement]] = {}
        self.rev: dict[Placement, set[Placement]] = {}
        self._rebuild_pairs()
        self._dirty = True

    # -- group maintenance --------------------------------------------- #

    def _flat(self) -> list[DCRecord]:
        return [e for part in self.entries for e in part]

    def _left_key(self, entry: DCRecord) -> tuple:
        """The group ``entry`` probes as t1: the left values of the
        equality prefix (the scan's own probe key)."""
        return tuple([entry.lvals[i] for i in self.plan.eq_idx])

    def _enter(self, entry: DCRecord) -> None:
        if self._passes(entry):
            self.lefts.setdefault(self._left_key(entry), {})[entry.payload] = entry
        key = dc_group_key(entry, self.plan)
        if key is None:
            return
        # Keep members in (partition, position) order — exactly the
        # insertion order the cold partition-major index build sees.
        insort(self.groups.setdefault(key, []), entry, key=_payload)
        self.group_of[entry.payload] = key
        self._frag.pop(key, None)

    def _leave(self, entry: DCRecord) -> None:
        payload = entry.payload
        left_key = self._left_key(entry)
        probing = self.lefts.get(left_key)
        if probing is not None:
            probing.pop(payload, None)
            if not probing:
                del self.lefts[left_key]
        key = self.group_of.pop(payload, None)
        if key is None:
            return
        members = self.groups[key]
        del members[bisect_left(members, payload, key=_payload)]
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

    def _kernel_index(self, keys: Iterable[tuple]) -> dict:
        """The maintained groups among ``keys`` in ``build_dc_index``
        output form."""
        return {key: self._fragment(key)[:2] for key in keys if key in self.groups}

    # -- pair maintenance ---------------------------------------------- #

    def _add_pair(self, t1: Placement, t2: Placement) -> None:
        self.viols.setdefault(t1, set()).add(t2)
        self.rev.setdefault(t2, set()).add(t1)

    def _drop_pairs_touching(self, payloads: Iterable[Placement]) -> None:
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
        self.lefts = {}
        self._frag = {}
        for part in self.entries:
            for entry in part:
                self._enter(entry)
        self.viols = {}
        self.rev = {}
        lefts = [e for part in self.entries for e in filter(self._passes, part)]
        for t1, t2 in scan_partition(
            lefts, self._kernel_index(self.groups), self.plan, DCStats()
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
        plan = self.plan
        delta = sorted(delta, key=_payload)
        # Delta as left against the groups it reaches (covers delta x
        # delta once).
        delta_lefts = list(filter(self._passes, delta))
        index = self._kernel_index(map(self._left_key, delta_lefts))
        for t1, t2 in scan_partition(delta_lefts, index, plan, DCStats()):
            self._add_pair(t1.payload, t2.payload)
        # The other lefts that reach a delta entry's group, against the
        # delta only.
        delta_set = {e.payload for e in delta}
        delta_index = build_dc_index(delta, plan)
        old_lefts = [
            e
            for key in delta_index
            for payload, e in self.lefts.get(key, {}).items()
            if payload not in delta_set
        ]
        for t1, t2 in scan_partition(old_lefts, delta_index, plan, DCStats()):
            self._add_pair(t1.payload, t2.payload)

    # -- mutation hooks ------------------------------------------------ #

    def _append(self, placements: list[Placement], rows: Sequence[dict]) -> None:
        fresh: list[DCRecord] = []
        for (p, pos), row in zip(placements, rows):
            entry = self._extract(row[RID], row, (p, pos))
            self.entries[p].append(entry)
            fresh.append(entry)
        if not self._refresh_plan():
            for entry in fresh:
                self._enter(entry)
            self._probe(fresh)
        self._dirty = True

    def _update(self, placements: list[Placement]) -> None:
        for p, pos in placements:
            self._leave(self.entries[p][pos])
            row = self._row((p, pos))
            self.entries[p][pos] = self._extract(row[RID], row, (p, pos))
        if not self._refresh_plan():
            self._drop_pairs_touching(placements)
            fresh = [self.entries[p][pos] for p, pos in placements]
            for entry in fresh:
                self._enter(entry)
            self._probe(fresh)
        self._dirty = True

    # -- emission ------------------------------------------------------ #

    def emit(self) -> list[tuple[dict, dict]]:
        if not self._dirty:
            return list(self._cached)
        out: list[tuple[dict, dict]] = []
        for t1pos in sorted(self.viols):
            p1, i1 = t1pos
            entry = self.entries[p1][i1]
            # The probe key the scan used for t1: left values of the
            # equality prefix.  Every surviving t2 is still a member of
            # that group, whose rank order is the scan's emission order.
            rank = self._fragment(self._left_key(entry))[2]
            t1_row = self._row(t1pos)
            for t2pos in sorted(self.viols[t1pos], key=rank.__getitem__):
                out.append((t1_row, self._row(t2pos)))
        self._cached = out
        self._dirty = False
        return list(out)


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
        self._append(self._placements(range(len(rows))), rows)

    def _append(self, placements: list[Placement], rows: Sequence[dict]) -> None:
        for placement, row in zip(placements, rows):
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

    def _update(self, placements: list[Placement]) -> None:
        for placement in placements:
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
