"""Fault injection and self-healing: every fault kind must be survivable.

The contract under test is the tentpole of the self-healing pool: a worker
lost mid-batch (killed, hung, dropping replies, or corrupting them) is
replaced, its partitions are rebuilt from lineage, and the lost tasks are
re-dispatched — the caller sees correct results, never ``WorkerDied``, and
*other* partitions' pins stay resident throughout.  ``invalidate_store``
must not fire on this happy recovery path; only an exhausted retry budget
surfaces, as ``WorkerTaskError(exc_type="RetriesExhausted")``.

Faults come from the deterministic :class:`FaultPlan` harness, so every
test here replays the same failure schedule on every run.
"""

import os
import pickle

import pytest

from fixtures import nully_fd_rows
from repro import CleanDB
from repro.engine import FaultPlan, FaultSpec, WorkerPool, WorkerTaskError


# --------------------------------------------------------------------- #
# Module-level task functions (tasks must be importable in workers).
# --------------------------------------------------------------------- #

def _double(x):
    return x * 2


def _sum_part(part):
    return sum(part)


def _raise_value_error(x):
    raise ValueError(f"boom on {x}")


def _keep_even(part):
    return [x for x in part if x % 2 == 0]


def _die_once(part, marker):
    """Chain step that takes its worker down the first time it runs
    (``marker`` is a path: absent = not yet died), then passes through."""
    if not os.path.exists(marker):
        open(marker, "w").close()
        os._exit(13)
    return part


def _forbid_invalidate(pool):
    """Turn ``invalidate_store`` into an assertion failure for this pool."""

    def _fail():  # pragma: no cover - only runs when the contract breaks
        raise AssertionError("invalidate_store() fired on the recovery path")

    pool.invalidate_store = _fail


class TestFaultPlan:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec(worker=0, kind="explode", nth=1)

    def test_nth_is_one_based(self):
        with pytest.raises(ValueError, match="1-based"):
            FaultSpec(worker=0, kind="drop", nth=0)

    def test_negative_worker_and_delay_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec(worker=-1, kind="drop", nth=1)
        with pytest.raises(ValueError):
            FaultSpec(worker=0, kind="delay", nth=1, seconds=-0.1)

    def test_builders_are_immutable(self):
        base = FaultPlan()
        grown = base.kill_before(worker=0, nth=1).delay(worker=1, nth=2, seconds=1.0)
        assert not base
        assert len(grown.specs) == 2
        assert grown.specs[0].kind == "kill_before"

    def test_for_worker_filters_by_worker_and_gen(self):
        plan = (
            FaultPlan()
            .kill_before(worker=0, nth=1)
            .drop(worker=1, nth=3)
            .corrupt(worker=0, nth=2, gen=1)
        )
        assert set(plan.for_worker(0, gen=0)) == {1}
        assert set(plan.for_worker(0, gen=1)) == {2}
        assert set(plan.for_worker(1, gen=0)) == {3}
        assert plan.for_worker(2, gen=0) == {}

    def test_first_spec_wins_on_duplicate_ordinal(self):
        plan = FaultPlan().drop(worker=0, nth=1).corrupt(worker=0, nth=1)
        assert plan.for_worker(0, gen=0)[1].kind == "drop"

    def test_plan_pickles(self):
        plan = FaultPlan().kill_after(worker=1, nth=4)
        assert pickle.loads(pickle.dumps(plan)) == plan


class TestKillRecovery:
    def test_kill_before_is_transparent(self):
        plan = FaultPlan().kill_before(worker=1, nth=1)
        with WorkerPool(2, fault_plan=plan) as pool:
            _forbid_invalidate(pool)
            refs = pool.pin("t", 1, [[1, 2], [3, 4]])
            assert pool.run(_double, [(i,) for i in range(6)]) == [
                i * 2 for i in range(6)
            ]
            assert pool.retries_total >= 1
            # Lineage rebuilt the dead worker's pins onto the replacement.
            assert pool.pinned("t", 1) == refs
            assert pool.fetch(refs) == [[1, 2], [3, 4]]

    def test_kill_after_rebuilds_stored_stage(self):
        # The worker dies after computing but before replying, taking its
        # store_as partition with it; the stage lineage re-runs the task.
        plan = FaultPlan().kill_after(worker=0, nth=1)
        with WorkerPool(2, fault_plan=plan) as pool:
            _forbid_invalidate(pool)
            refs = pool.run(
                _sum_part, [([1, 2],), ([3, 4],)], store_as=("stage", 7)
            )
            assert pool.fetch(refs) == [3, 7]

    def test_only_dead_workers_partitions_rebuild(self):
        plan = FaultPlan().kill_before(worker=1, nth=1)
        with WorkerPool(2, fault_plan=plan) as pool:
            refs = pool.pin("t", 1, [[10], [20], [30], [40]])
            pool.run(_double, [(1,)], parts=[1])  # trips the fault on worker 1
            # Worker 0's partitions (parts 0 and 2) were never reshipped:
            # the same refs still resolve, and fetch round-trips everything.
            assert pool.pinned("t", 1) == refs
            assert pool.fetch(refs) == [[10], [20], [30], [40]]

    def test_retries_exhausted_when_every_generation_dies(self):
        plan = FaultPlan()
        for gen in range(4):  # initial process + every retry's replacement
            plan = plan.kill_before(worker=0, nth=1, gen=gen)
        with WorkerPool(2, fault_plan=plan, retry_backoff=0.0) as pool:
            with pytest.raises(WorkerTaskError, match="still lost") as info:
                pool.run(_double, [(1,)], parts=[0])
            assert info.value.exc_type == "RetriesExhausted"
            # The pool survives its own retry exhaustion.
            assert pool.run(_double, [(5,)], parts=[0]) == [10]


class TestReplyFaultRecovery:
    def test_corrupt_reply_is_retried(self):
        plan = FaultPlan().corrupt(worker=0, nth=1)
        with WorkerPool(2, fault_plan=plan) as pool:
            _forbid_invalidate(pool)
            assert pool.run(_double, [(3,)], parts=[0]) == [6]
            assert pool.retries_total == 1

    def test_dropped_reply_trips_watchdog(self):
        plan = FaultPlan().drop(worker=1, nth=1)
        with WorkerPool(2, fault_plan=plan, task_deadline=0.3) as pool:
            _forbid_invalidate(pool)
            refs = pool.pin("t", 1, [[1], [2]])
            assert pool.run(_double, [(4,)], parts=[1]) == [8]
            assert pool.retries_total >= 1
            assert pool.fetch(refs) == [[1], [2]]

    def test_hung_worker_is_replaced(self):
        plan = FaultPlan().delay(worker=0, nth=1, seconds=30.0)
        with WorkerPool(2, fault_plan=plan, task_deadline=0.3) as pool:
            _forbid_invalidate(pool)
            assert pool.run(_double, [(2,)], parts=[0]) == [4]
            assert pool.retries_total >= 1

    def test_deterministic_error_is_never_retried(self):
        with WorkerPool(2) as pool:
            with pytest.raises(ValueError, match="boom on 9"):
                pool.run(_raise_value_error, [(9,)])
            assert pool.retries_total == 0


class TestFaultsInsideABatch:
    """A worker runs all of a call's tasks for it as one batch and replies
    once: a crash mid-batch loses every unsent reply of that batch, while a
    corrupt or dropped reply costs only its own task."""

    PARTS = [[i, i + 1] for i in range(10)]  # 5 partitions on each worker

    def _run(self, plan, **pool_args):
        shipped = []
        with WorkerPool(2, fault_plan=plan, **pool_args) as pool:
            _forbid_invalidate(pool)
            refs = pool.pin("t", 1, self.PARTS)
            real_ship = pool._ship

            def ship(worker, command, nbytes, call):
                shipped.append((worker, command[0]))
                real_ship(worker, command, nbytes, call)

            pool._ship = ship
            out = pool.run(_sum_part, [(ref,) for ref in refs])
            pool._ship = real_ship
            assert pool.pinned("t", 1) == refs
            assert pool.fetch(refs) == self.PARTS
            return out, pool.retries_total, list(pool._worker_gen), shipped

    @pytest.mark.parametrize("kind", ["kill_before", "kill_after"])
    def test_a_crash_mid_batch_retries_the_whole_batch(self, kind):
        clean, retries, _, _ = self._run(FaultPlan())
        assert retries == 0
        plan = getattr(FaultPlan(), kind)(worker=1, nth=3)
        out, retries, gens, shipped = self._run(plan)
        assert out == clean
        assert gens == [0, 1]  # only the crashed worker was replaced
        assert retries == 5  # its whole batch, once: within max_task_retries
        # Lineage rebuilt worker 1's pins; worker 0's were never reshipped.
        assert "pin" in {command for w, command in shipped if w == 1}
        assert "pin" not in {command for w, command in shipped if w == 0}

    def test_a_corrupt_reply_retries_only_its_task(self):
        clean, _, _, _ = self._run(FaultPlan())
        out, retries, gens, _ = self._run(FaultPlan().corrupt(worker=0, nth=3))
        assert out == clean
        assert retries == 1
        assert gens == [0, 0]

    def test_a_dropped_reply_trips_the_watchdog_for_its_task_only(self):
        clean, _, _, _ = self._run(FaultPlan())
        out, retries, gens, _ = self._run(FaultPlan().drop(worker=1, nth=2), task_deadline=0.3)
        assert out == clean
        assert retries == 1
        assert gens == [0, 1]


class TestLineageKinds:
    def test_broadcast_survives_worker_death(self):
        plan = FaultPlan().kill_before(worker=1, nth=1)
        with WorkerPool(2, fault_plan=plan) as pool:
            _forbid_invalidate(pool)
            ref = pool.broadcast("side", 1, {"k": 99})
            assert pool.run(_double, [(1,)], parts=[1]) == [2]
            # The broadcast object is resident on the replacement too.
            assert pool.fetch([ref]) == [{"k": 99}]

    def test_eviction_removes_lineage(self):
        # An evicted pin must not be resurrected by recovery.
        plan = FaultPlan().kill_before(worker=1, nth=1)
        with WorkerPool(2, fault_plan=plan) as pool:
            pool.pin("gone", 1, [[1], [2]])
            pool.evict("gone", 1)
            keep = pool.pin("keep", 1, [[5], [6]])
            pool.run(_double, [(1,)], parts=[1])
            assert pool.pinned("gone", 1) is None
            assert pool.fetch(keep) == [[5], [6]]


class TestFusedStageRecovery:
    """A stage is one task: a worker lost anywhere inside it — or between
    the two dispatches of a fused exchange — costs a re-run of that task,
    never a different answer or a different ledger."""

    def test_kill_mid_chain_reruns_the_whole_chain(self, tmp_path):
        steps = [
            (_keep_even, ()),
            (_die_once, (str(tmp_path / "died"),)),
            (_double, ()),
        ]
        with WorkerPool(2) as pool:
            _forbid_invalidate(pool)
            refs = pool.pin("t", 1, [[1, 2, 3, 4], [5, 6, 7, 8]])
            out, counts = pool.run_stage(steps, refs, store_as=("stage", 1))
            assert pool.retries_total >= 1
            # The stored stage output and the reported per-step counts are
            # the fault-free ones; the dead worker's pin was rebuilt.
            assert pool.fetch(out) == [[2, 4, 2, 4], [6, 8, 6, 8]]
            assert counts == [(4, 2, 2, 4), (4, 2, 2, 4)]
            assert pool.fetch(refs) == [[1, 2, 3, 4], [5, 6, 7, 8]]

    @staticmethod
    def _fd_run(plan):
        with WorkerPool(2, fault_plan=plan) as pool:
            _forbid_invalidate(pool)
            db = CleanDB(num_nodes=4, execution="parallel", pool=pool)
            db.register_table("t", nully_fd_rows())
            marker = len(db.cluster.metrics.ops)
            found = repr(db.check_fd("t", ["addr"], ["nation"]))
            ledger = [
                (op.name, op.per_node_work, op.shuffled_records, op.shuffle_cost)
                for op in db.cluster.metrics.ops[marker:]
            ]
            return found, ledger, pool.retries_total, db.cluster.metrics.degraded_ops

    @pytest.mark.parametrize("kind", ["kill_before", "kill_after"])
    def test_kill_between_map_and_reduce_dispatch_is_invisible(self, kind):
        # 4 partitions on 2 workers: worker 0 runs map tasks 1-2 (combine +
        # route, parts 0 and 2), then reduce tasks 3-4 (merge + fd_merge).
        # Losing it at task 3 loses its pinned partitions after the blobs
        # were routed and before (or just after) they were merged.
        clean, clean_ledger, retries, _ = self._fd_run(FaultPlan())
        assert retries == 0
        plan = getattr(FaultPlan(), kind)(worker=0, nth=3)
        found, ledger, retries, degraded = self._fd_run(plan)
        assert retries >= 1 and degraded == 0  # recovered, not fallen back
        assert found == clean
        assert ledger == clean_ledger

    def test_kill_during_map_side_of_fused_exchange_is_invisible(self):
        clean, clean_ledger, _, _ = self._fd_run(FaultPlan())
        found, ledger, retries, degraded = self._fd_run(
            FaultPlan().kill_after(worker=1, nth=1)
        )
        assert retries >= 1 and degraded == 0
        assert (found, ledger) == (clean, clean_ledger)

    @pytest.mark.parametrize("nth", [1, 3])  # in the map-side / reduce-side chain
    def test_kill_inside_a_query_stage_is_invisible(self, nth):
        sql = "SELECT t.addr, count(t.phone) AS n FROM t t WHERE t.nation > 0 GROUP BY t.addr"

        def run(plan):
            with WorkerPool(2, fault_plan=plan) as pool:
                _forbid_invalidate(pool)
                db = CleanDB(num_nodes=4, execution="parallel", pool=pool)
                db.register_table("t", nully_fd_rows())
                result = db.execute(sql)
                names = [op.name for op in db.cluster.metrics.ops]
                assert "nest:parMerge" in names  # the pool ran it
                return (
                    repr(result.branches["query"]),
                    result.metrics["simulated_time"],
                    pool.retries_total,
                    db.cluster.metrics.degraded_ops,
                )

        clean, clean_time, retries, _ = run(FaultPlan())
        assert retries == 0
        found, sim_time, retries, degraded = run(FaultPlan().kill_before(worker=0, nth=nth))
        assert retries >= 1 and degraded == 0
        assert (found, sim_time) == (clean, clean_time)
