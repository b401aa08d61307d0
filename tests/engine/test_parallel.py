"""Unit tests for the real worker pool: ordering, errors, clean aborts.

The error-path tests are the load-bearing ones: a worker raising mid-task
must surface the *original* exception on the driver (never a pickling
error), and a budget blow-up must abort only the offending query — the
pool and everything pinned on it stay resident for other callers, and the
owning session's close() is what releases the processes.
"""

import os
import signal
import sys
import threading
import time

import pytest

from repro.baselines import CleanDBSystem
from repro.engine import Cluster, ShipLog, WorkerPool, WorkerTaskError
from repro.engine import parallel
from repro.engine.parallel import ABANDONED_LIMIT
from repro.errors import BudgetExceededError, ReproError


# --------------------------------------------------------------------- #
# Module-level task functions (tasks must be importable in workers).
# --------------------------------------------------------------------- #

def _square(x):
    return x * x


def _sum_part(part):
    return sum(part)


class _CustomError(ReproError):
    pass


def _raise_value_error(x):
    raise ValueError(f"boom on {x}")


def _square_unless_five(x):
    if x == 5:
        raise ValueError(f"boom on {x}")
    return x * x


def _raise_custom(x):
    raise _CustomError(f"custom boom on {x}")


class _UnpicklableError(Exception):
    """An exception that cannot cross the process boundary."""

    def __init__(self, message):
        super().__init__(message)
        self.callback = lambda: None  # lambdas do not pickle


def _raise_unpicklable(x):
    raise _UnpicklableError(f"opaque boom on {x}")


@pytest.fixture
def pool():
    p = WorkerPool(2)
    yield p
    p.shutdown()


class TestWorkerPool:
    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            WorkerPool(0)

    def test_results_in_submission_order(self, pool):
        results = pool.run(_square, [(i,) for i in range(20)])
        assert results == [i * i for i in range(20)]

    def test_partition_tasks(self, pool):
        parts = [[1, 2, 3], [], [10, 20]]
        assert pool.run(_sum_part, [(p,) for p in parts]) == [6, 0, 30]

    def test_original_exception_surfaces(self, pool):
        with pytest.raises(ValueError, match="boom on 3") as info:
            pool.run(_raise_value_error, [(3,)])
        # The worker traceback travels along for diagnosis.
        assert "_raise_value_error" in info.value.worker_traceback

    def test_library_exception_surfaces_as_itself(self, pool):
        with pytest.raises(_CustomError, match="custom boom"):
            pool.run(_raise_custom, [(1,)])

    def test_unpicklable_exception_degrades_to_worker_task_error(self, pool):
        with pytest.raises(WorkerTaskError, match="opaque boom on 7") as info:
            pool.run(_raise_unpicklable, [(7,)])
        assert info.value.exc_type == "_UnpicklableError"
        assert "_raise_unpicklable" in info.value.worker_traceback

    def test_mixed_batch_surfaces_the_failing_task(self, pool):
        # One run() whose batch mixes succeeding and failing tasks: the
        # failing task's own error surfaces, not a misattributed one.
        with pytest.raises(ValueError, match="boom on 5"):
            pool.run(_square_unless_five, [(i,) for i in range(8)])

    def test_pool_survives_task_failure(self, pool):
        with pytest.raises(ValueError):
            pool.run(_raise_value_error, [(1,)])
        assert pool.run(_square, [(4,)]) == [16]

    def test_shutdown_idempotent_and_closes(self, pool):
        pool.shutdown()
        pool.shutdown()
        assert pool.closed
        with pytest.raises(RuntimeError):
            pool.run(_square, [(1,)])

    def test_context_manager_shuts_down(self):
        with WorkerPool(2) as p:
            assert p.run(_square, [(3,)]) == [9]
        assert p.closed

    def test_wall_clock_observed(self, pool):
        pool.run(_square, [(i,) for i in range(4)])
        assert pool.wall_seconds_total > 0.0
        assert pool.tasks_dispatched == 4


class TestClusterPoolLifecycle:
    def test_pool_is_lazy(self):
        cluster = Cluster(num_nodes=4, workers=2)
        assert not cluster.has_pool
        cluster.pool.run(_square, [(2,)])
        assert cluster.has_pool
        cluster.shutdown()
        assert not cluster.has_pool

    def test_budget_exceeded_keeps_pool_resident(self):
        """A budget blow-up is query-scoped: the error surfaces but the pool
        (and everything pinned on it) survives for the next query — on a
        shared serving pool a teardown would destroy every other tenant's
        state.  Explicit shutdown still releases the processes."""
        cluster = Cluster(num_nodes=2, workers=2, budget=10.0)
        assert cluster.pool.run(_square, [(3,)]) == [9]
        refs = cluster.pool.pin("table:t", 1, [[1, 2], [3]])
        with pytest.raises(BudgetExceededError):
            cluster.record_op("big", [100.0, 0.0])
        assert cluster.has_pool
        assert cluster.pool.pinned("table:t", 1) == refs
        assert cluster.pool.run(_square, [(4,)]) == [16]
        cluster.shutdown()
        assert not cluster.has_pool

    def test_cluster_context_manager(self):
        with Cluster(num_nodes=2, workers=2) as cluster:
            cluster.pool.run(_square, [(1,)])
        assert not cluster.has_pool


class TestShutdownHygiene:
    def test_shutdown_reaps_worker_processes(self):
        """shutdown() must leave no zombies: every worker pid is joined
        (reaped), so signalling it afterwards says "no such process"."""
        pool = WorkerPool(2)
        pool.run(_square, [(1,)])
        pids = [proc.pid for proc in pool._procs]
        pool.shutdown()
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_repeated_cycles_leak_no_fds(self):
        """Create/shutdown cycles must not accumulate queue pipe fds."""

        def fd_count():
            return len(os.listdir("/proc/self/fd"))

        # One warm-up cycle absorbs import-time and allocator one-offs.
        with WorkerPool(2) as p:
            p.run(_square, [(1,)])
        before = fd_count()
        for _ in range(5):
            with WorkerPool(2) as p:
                p.run(_square, [(1,)])
        assert fd_count() <= before + 4

    def test_a_worker_replaced_with_a_full_inbox_leaks_no_thread_or_fd(self):
        """Worker 0 is stopped and a helper thread writes 1 MiB to its inbox,
        past the pipe's capacity, so the write blocks; then the worker is
        killed and replaced, four times.  Once no process holds that pipe's
        read end the blocked write fails with ``BrokenPipeError`` and the
        helper ends; while the driver or a sibling held one, the write
        blocked for good and each round leaked a thread and fds until exit."""

        def fd_count():
            return len(os.listdir("/proc/self/fd"))

        with WorkerPool(2) as pool:
            assert pool.run(_square, [(1,), (2,)]) == [1, 4]
            threads, fds = threading.active_count(), fd_count()
            for _ in range(4):
                proc, inbox, failed = pool._procs[0], pool._inboxes[0], []

                def write():
                    try:
                        inbox.send_bytes(b"x" * (1 << 20))
                    except BrokenPipeError as exc:
                        failed.append(exc)

                os.kill(proc.pid, signal.SIGSTOP)
                helper = threading.Thread(target=write, daemon=True)
                helper.start()
                time.sleep(0.1)
                assert helper.is_alive()  # blocked on the full pipe
                proc.kill()
                helper.join(timeout=10.0)
                assert not helper.is_alive() and len(failed) == 1
                assert pool.run(_square, [(1,), (2,)]) == [1, 4]  # replaces worker 0
            del proc, inbox  # the last killed process's handle and inbox
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline and (
                threading.active_count() > threads or fd_count() > fds
            ):
                time.sleep(0.05)
            assert threading.active_count() <= threads
            assert fd_count() <= fds
            assert pool.run(_square, [(3,), (4,)]) == [9, 16]


class TestAbortHygiene:
    def test_mid_dispatch_abort_leaves_pool_clean(self, pool):
        """An abort between dispatch and reply (Ctrl-C mid-batch) abandons
        the in-flight tasks; their late replies are dropped by the router
        and the next caller on the same pool gets only its own replies."""
        real_ship = pool._ship
        shipped = {"n": 0}

        def flaky_ship(worker, command, nbytes, call):
            shipped["n"] += 1
            if shipped["n"] == 2:  # one worker's batch already in flight
                raise KeyboardInterrupt
            real_ship(worker, command, nbytes, call)

        pool._ship = flaky_ship
        try:
            with pytest.raises(KeyboardInterrupt):
                pool.run(_square, [(i,) for i in range(8)])
        finally:
            pool._ship = real_ship
        # The interrupted call's replies were routed to the abandoned set,
        # not buffered: fresh runs see clean, correctly-attributed replies.
        for _ in range(3):
            assert pool.run(_square, [(i,) for i in range(8)]) == [
                i * i for i in range(8)
            ]
        assert not pool._reply_buffers

    def test_abandoned_set_is_bounded(self, pool):
        """The abandoned-task set is an LRU with a hard cap — a long-lived
        serving pool cannot grow it without bound however many queries
        abort mid-flight."""
        with pool._reply_cond:
            for task_id in range(10 ** 6, 10 ** 6 + 3 * ABANDONED_LIMIT):
                pool._abandon_locked(task_id)
            assert len(pool._abandoned) == ABANDONED_LIMIT
        assert pool.run(_square, [(3,)]) == [9]


class TestBatchProtocol:
    """A dispatch is one message each way per worker: one ``tasks`` command
    carrying all of the call's tasks for that worker, and one reply message
    carrying every task's reply tail."""

    @staticmethod
    def _spy(pool, monkeypatch):
        sent, received = [], []
        real_ship, real_recv = pool._ship, parallel.recv_any

        def ship(worker, command, nbytes, call):
            sent.append((worker, command))
            real_ship(worker, command, nbytes, call)

        def recv(readers, ended, timeout):
            got = real_recv(readers, ended, timeout)
            if got is not None:
                received.append(got[1])  # (reply pipe end, message)
            return got

        monkeypatch.setattr(pool, "_ship", ship)
        monkeypatch.setattr(parallel, "recv_any", recv)
        return sent, received

    def test_ten_parts_on_two_workers_ship_one_message_each_way_per_worker(
        self, pool, monkeypatch
    ):
        sent, received = self._spy(pool, monkeypatch)
        assert pool.run(_square, [(i,) for i in range(10)]) == [i * i for i in range(10)]
        assert sorted(worker for worker, _ in sent) == [0, 1]
        assert all(command[0] == "tasks" for _, command in sent)
        assert {worker: len(command[1]) for worker, command in sent} == {0: 5, 1: 5}
        assert [len(message) for message in received] == [5, 5]

    def test_results_come_back_in_submission_order(self, pool, monkeypatch):
        sent, received = self._spy(pool, monkeypatch)
        parts = [7, 2, 9, 0, 5, 4, 1, 8, 3, 6]
        assert pool.run(_square, [(p,) for p in parts], parts=parts) == [p * p for p in parts]
        assert (len(sent), len(received)) == (2, 2)

    def test_a_one_task_run_is_a_batch_of_one(self, pool, monkeypatch):
        sent, received = self._spy(pool, monkeypatch)
        assert pool.run(_square, [(7,)]) == [49]
        assert [(worker, command[0], len(command[1])) for worker, command in sent] == [
            (0, "tasks", 1)
        ]
        assert [len(message) for message in received] == [1]

    def test_batches_route_to_their_callers_under_contention(self):
        """More workers than cores, four callers and a short switch
        interval: every batch's tails reach their own caller, in order,
        and nothing is left parked in the router."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with WorkerPool(3) as pool:
                out, errors = {}, []

                def drive(base):
                    try:
                        out[base] = [
                            pool.run(_square, [(base + i,) for i in range(10)]) for _ in range(10)
                        ]
                    except Exception as exc:  # pragma: no cover - diagnostic path
                        errors.append(exc)

                threads = [threading.Thread(target=drive, args=(b,)) for b in (0, 100, 200, 300)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads) and not errors
                for base, runs in out.items():
                    assert runs == [[(base + i) ** 2 for i in range(10)]] * 10
                assert len(out) == 4 and not pool._reply_buffers
        finally:
            sys.setswitchinterval(interval)


class TestConcurrentCallers:
    def test_threads_interleave_with_correct_results(self, pool):
        """Two driver threads share one pool; every run returns its own
        results in submission order despite interleaved dispatch."""
        results = {}
        errors = []

        def drive(tag, base):
            try:
                out = [
                    pool.run(_square, [(base + i,) for i in range(8)])
                    for _ in range(5)
                ]
                results[tag] = out
            except Exception as exc:  # pragma: no cover - diagnostic path
                errors.append(exc)

        threads = [
            threading.Thread(target=drive, args=(tag, base))
            for tag, base in (("a", 0), ("b", 100))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert results["a"] == [[i * i for i in range(8)]] * 5
        assert results["b"] == [[(100 + i) ** 2 for i in range(8)]] * 5

    def test_transport_scopes_are_per_caller(self, pool):
        """Interleaved callers each read only their own transport: a
        ShipLog window covers the caller's ships and replies, nothing from
        the sibling thread hammering the same pool — from a cold pool, as
        no call ships anything on another's behalf."""
        barrier = threading.Barrier(2)
        taken = {}

        def drive(tag):
            log = ShipLog(pool)
            barrier.wait()
            pool.run(_square, [(i,) for i in range(10)])
            taken[tag] = log.take()

        threads = [
            threading.Thread(target=drive, args=(tag,)) for tag in ("a", "b")
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # 10 handle-sized payloads out + 10 replies back, per caller —
        # exactly what a solo run ships, with zero cross-attribution.
        assert taken["a"]["ship_count"] == taken["b"]["ship_count"] == 20
        assert taken["a"]["bytes_shipped"] > 0
        assert taken["a"]["bytes_shipped"] == taken["b"]["bytes_shipped"]

    def test_error_in_one_thread_leaves_other_unharmed(self, pool):
        barrier = threading.Barrier(2)
        outcome = {}

        def good():
            barrier.wait()
            outcome["good"] = pool.run(_square, [(i,) for i in range(20)])

        def bad():
            barrier.wait()
            try:
                pool.run(_raise_value_error, [(i,) for i in range(20)])
            except ValueError as exc:
                outcome["bad"] = str(exc)

        threads = [threading.Thread(target=good), threading.Thread(target=bad)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert outcome["good"] == [i * i for i in range(20)]
        assert "boom on" in outcome["bad"]
        # The pool is still healthy for the next caller.
        assert pool.run(_square, [(6,)]) == [36]


class TestSystemBudgetAbort:
    def test_parallel_fd_budget_exceeded_aborts_cleanly(self):
        """A parallel System run that blows the budget reports the same
        status as a serial one and leaves no worker processes behind."""
        records = [
            {"addr": f"a{i % 5}", "nation": i % 3, "_rid": i} for i in range(400)
        ]
        system = CleanDBSystem(num_nodes=4, budget=1.0, execution="parallel", workers=2)
        result = system.check_fd(records, ["addr"], ["nation"])
        assert result.status == "budget_exceeded"
        assert result.output_count == 0

    def test_parallel_matches_row_status_when_ok(self):
        records = [
            {"addr": f"a{i % 5}", "nation": i % 3, "_rid": i} for i in range(60)
        ]
        row = CleanDBSystem(num_nodes=4).check_fd(records, ["addr"], ["nation"])
        par = CleanDBSystem(num_nodes=4, execution="parallel", workers=2).check_fd(
            records, ["addr"], ["nation"]
        )
        assert row.status == par.status == "ok"
        assert row.output_count == par.output_count
