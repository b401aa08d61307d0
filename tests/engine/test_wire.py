"""The pool's wire: each worker's inbox and its reply path are one pipe
each, written by one side only (docs/ARCHITECTURE.md, "Scheduling").

The thread holding the dispatch lock writes an inbox itself, and a write
blocks while the pipe is full.  These tests pin what keeps such a write
from blocking for good: a reply that no caller will claim is read before
the next write to its worker, a dead worker's inbox refuses writes, and a
worker whose driver is gone reads end-of-file and exits.  They also pin
what the wire costs: no driver thread, a few fds per worker, and one write
per command, made when the command is, with nothing held back.
"""

import os
import pickle
import signal
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.engine import FaultPlan, WorkerPool, parallel
from repro.engine.worker import Staged
from repro.errors import StaleHandleError

SRC = str(Path(repro.__file__).resolve().parents[1])

#: Past a pipe's 64 KiB capacity, so that a write of this size blocks until
#: the other side reads.
BIG = 1 << 18


def _staged_report(part):
    """Keep ``part`` worker-resident; ship back a 256 KiB report."""
    return Staged(part, b"r" * BIG)


def _size(blob):
    return len(blob)


def _blob(n):
    return b"x" * n


def _sum_part(part):
    return sum(part)


def _heartbeats(pool):
    return list(pool._heartbeat)


def _fd_count():
    return len(os.listdir("/proc/self/fd"))


def _finish(target, seconds=30.0):
    """``target()`` on a helper thread: a deadlock fails here, in seconds,
    instead of at the suite's per-test limit."""
    out, errors = [], []

    def body():
        try:
            out.append(target())
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)

    helper = threading.Thread(target=body, daemon=True)
    helper.start()
    helper.join(seconds)
    assert not helper.is_alive(), f"still blocked after {seconds} s"
    if errors:
        raise errors[0]
    return out[0]


def _running(pid):
    """Whether ``pid`` is a live process (an unreaped zombie is not)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


class TestNoDeadlock:
    def test_an_unclaimed_rebuild_reply_is_read_before_the_next_batch(self):
        """Worker 0 dies holding a ``store_as`` stage whose report is 256
        KiB; the next call sends it a 256 KiB batch.  The replacement first
        rebuilds the stage, and nobody claims that rebuild's reply: written
        straight after it, the batch would block on a worker that is itself
        blocked writing the reply."""
        with WorkerPool(2) as pool:
            refs = pool.pin("t", 1, [[1, 2], [3]])
            staged = pool.run(_staged_report, [(ref,) for ref in refs], store_as=("s", 2))
            assert [report for _, report in staged] == [b"r" * BIG] * 2
            pool._procs[0].kill()
            pool._procs[0].join(timeout=5.0)
            assert _finish(lambda: pool.run(_size, [(b"y" * BIG,)], parts=[0])) == [BIG]
            assert pool.retries_total == 1
            assert pool.fetch([ref for ref, _ in staged]) == [[1, 2], [3]]

    @pytest.mark.parametrize("follow_up", ["pin", "evict"])
    def test_an_aborted_calls_reply_is_read_before_the_next_command(self, follow_up):
        """A call is interrupted after worker 0's batch went out, and that
        batch's 256 KiB reply belongs to no caller.  The next command is
        written at once whatever its size — a 256 KiB pin, or an evict of a
        few bytes — and its write first reads that reply, so neither hangs
        and nothing stays owed."""
        with WorkerPool(2) as pool:
            small = pool.pin("s", 1, [b"s0", b"s1"])
            real_ship, shipped = pool._ship, []

            def flaky_ship(worker, command, nbytes, call):
                shipped.append(worker)
                if len(shipped) == 2:  # worker 0's batch is already in flight
                    raise KeyboardInterrupt
                real_ship(worker, command, nbytes, call)

            pool._ship = flaky_ship
            try:
                with pytest.raises(KeyboardInterrupt):
                    pool.run(_blob, [(BIG,), (BIG,)])
            finally:
                pool._ship = real_ship
            if follow_up == "pin":
                refs = _finish(lambda: pool.pin("t", 1, [b"z" * BIG, b"w"]))
                assert pool.fetch(refs) == [b"z" * BIG, b"w"]
            else:
                _finish(lambda: pool.evict("s"))
                with pytest.raises(StaleHandleError):
                    pool.fetch(small)
            assert pool._owed == [0, 0]
            assert pool.retries_total == 0
            assert not pool._reply_buffers


def _kind(message):
    """The kind of the one command an inbox message holds."""
    return pickle.loads(message)[0]


class TestMessages:
    def test_each_command_is_written_in_order_when_its_call_returns(self):
        """Pins and evictions are written, each as its own message, before
        their calls return and before any task batch; the next batch, one
        more message per worker, sees the pins."""
        with WorkerPool(2) as pool:
            written, real_write = [], pool._write

            def write(worker, message, tasks):
                written.append((worker, _kind(message)))
                real_write(worker, message, tasks)

            pool._write = write
            refs = pool.pin("t", 1, [[1, 2], [3]])
            pool.pin("old", 1, [[9], [9]])
            pool.evict("old")
            for worker in (0, 1):
                assert [k for w, k in written if w == worker] == ["pin", "pin", "evict"]
            written.clear()
            assert pool.run(_sum_part, [(ref,) for ref in refs]) == [3, 3]
            assert sorted(written) == [(0, "tasks"), (1, "tasks")]

    def test_an_eviction_reaches_an_idle_pool(self):
        """An ``evict`` with no task batch after it still reaches every
        worker: the memory it frees does not wait for the next dispatch."""
        with WorkerPool(2) as pool:
            refs = pool.pin("t", 1, [[1, 2], [3]])
            assert pool.run(_sum_part, [(ref,) for ref in refs]) == [3, 3]
            before = _heartbeats(pool)  # every command so far has run
            pool.evict("t")
            deadline = time.monotonic() + 2.0
            while time.monotonic() < deadline and not all(
                now > then for now, then in zip(_heartbeats(pool), before)
            ):
                time.sleep(0.01)
            assert all(now > then for now, then in zip(_heartbeats(pool), before))

    def test_a_call_ships_the_same_on_a_fresh_pool_as_after_it(self):
        """No call pays for setting up the next: two identical calls on a
        fresh pool ship the same payload bytes and the same count."""
        with WorkerPool(2) as pool:
            shipped = []
            for _ in range(2):
                bytes_before, ships_before = pool.bytes_shipped_total, pool.ship_count_total
                assert pool.run(_sum_part, [([1, 2],), ([3],), ([4],)]) == [3, 3, 4]
                shipped.append(
                    (pool.bytes_shipped_total - bytes_before, pool.ship_count_total - ships_before)
                )
            assert shipped[0] == shipped[1]
            assert shipped[0][1] == 6  # three payloads out, three reply tails back

    def test_an_interrupted_write_loses_no_other_workers_commands(self):
        """A Ctrl-C while worker 0's message is written kills worker 0 (its
        pipe may hold half a message); worker 1, which the interrupted call
        never reached, keeps its pin and answers the next call."""
        with WorkerPool(2) as pool:
            refs = pool.pin("t", 1, [[1, 2], [3]])

            def interrupted(message):
                raise KeyboardInterrupt

            pool._inboxes[0].send_bytes = interrupted
            with pytest.raises(KeyboardInterrupt):
                pool.run(_sum_part, [(ref,) for ref in refs])
            assert pool.run(_sum_part, [(refs[1],)]) == [3]
            assert pool.fetch(refs) == [[1, 2], [3]]
            assert pool._worker_gen == [1, 0]
            assert pool.retries_total == 0


class TestLifecycle:
    def test_a_warm_pool_runs_no_driver_thread_and_holds_few_fds(self):
        """Per worker the driver holds its inbox's write end, its reply
        pipe's read end and the process's two handles; nothing else."""
        with WorkerPool(1):  # the heartbeats' shared-heap arena, one a process
            pass
        threads, fds = threading.active_count(), _fd_count()
        with WorkerPool(2) as pool:
            refs = pool.pin("t", 1, [[1], [2]])
            assert pool.run(_sum_part, [(ref,) for ref in refs]) == [1, 2]
            pool.evict("t")
            assert threading.active_count() == threads
            assert _fd_count() - fds <= 4 * 2
        assert _fd_count() <= fds

    def test_a_killed_driver_leaves_no_worker_behind(self):
        """A forked worker holds no copy of any inbox's write end, its own
        included, so its inbox reads end-of-file once the driver is gone."""
        script = textwrap.dedent(
            """
            import os, signal
            from repro.engine import WorkerPool
            pool = WorkerPool(2)
            assert pool.run(sum, [([1],), ([2],)]) == [1, 2]
            print(*(proc.pid for proc in pool._procs), flush=True)
            os.kill(os.getpid(), signal.SIGKILL)
            """
        )
        driver = subprocess.Popen(
            [sys.executable, "-c", script], stdout=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": SRC},
        )
        pids = [int(pid) for pid in driver.stdout.readline().split()]
        try:
            assert driver.wait(timeout=30) == -signal.SIGKILL
            assert len(pids) == 2
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline and any(map(_running, pids)):
                time.sleep(0.05)
            assert not any(map(_running, pids))
        finally:
            driver.stdout.close()
            for pid in filter(_running, pids):
                os.kill(pid, signal.SIGKILL)

    def test_a_spawn_pool_pins_runs_recovers_and_leaks_no_fd(self):
        """The start method macOS defaults to: the pipe ends cross into the
        child as ``Process`` arguments, and nothing is inherited."""
        with WorkerPool(2, start_method="spawn") as pool:
            # One-offs a first spawn pool opens for the process: the
            # resource tracker's pipe and the shared heap's arena.
            pool.run(sum, [([1],)])
        fds = _fd_count()
        plan = FaultPlan().kill_after(worker=0, nth=1)
        with WorkerPool(2, start_method="spawn", fault_plan=plan) as pool:
            assert pool.start_method == "spawn"
            refs = pool.pin("t", 1, [[1, 2], [3, 4]])
            assert pool.run(sum, [(ref,) for ref in refs]) == [3, 7]
            assert pool.retries_total == 1
            assert pool.fetch(refs) == [[1, 2], [3, 4]]
        assert _fd_count() <= fds


def test_four_threads_dispatch_while_workers_die_again_and_again():
    """Four threads pin, run, fetch and evict on one pool while every one
    of the first eight generations of each worker dies after its third
    task.  Nothing hangs, every answer is the one computed locally, and
    the pool's threads and fds come back to what they were."""
    plan = FaultPlan()
    for gen in range(8):
        for worker in (0, 1):
            plan = plan.kill_after(worker=worker, nth=3, gen=gen)
    with WorkerPool(2, fault_plan=plan, max_task_retries=20, retry_backoff=0.0) as pool:
        assert pool.run(_sum_part, [([1],), ([2],)]) == [1, 2]
        threads, fds = threading.active_count(), _fd_count()
        results, errors = {}, []

        def drive(t):
            try:
                out = []
                for i in range(10):
                    parts = [[t, i, k] for k in range(4)]
                    refs = pool.pin(f"t{t}", i, parts)
                    out.append(pool.run(_sum_part, [(ref,) for ref in refs]))
                    out.append(pool.fetch(refs))
                    pool.evict(f"t{t}", i)
                results[t] = out
            except BaseException as exc:  # noqa: BLE001 - asserted below
                errors.append(exc)

        drivers = [threading.Thread(target=drive, args=(t,), daemon=True) for t in range(4)]
        for thread in drivers:
            thread.start()
        for thread in drivers:
            thread.join(timeout=60.0)
        assert not any(thread.is_alive() for thread in drivers)
        assert errors == []
        for t in range(4):
            expected = []
            for i in range(10):
                parts = [[t, i, k] for k in range(4)]
                expected += [[sum(part) for part in parts], parts]
            assert results[t] == expected
        assert pool.retries_total > 0
        assert pool._worker_gen == [8, 8]
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline and _fd_count() > fds:
            time.sleep(0.05)
        assert threading.active_count() == threads
        assert _fd_count() <= fds
