"""The pool's wire: each worker's inbox and its reply path are one pipe
each, written by one side only (docs/ARCHITECTURE.md, "Scheduling").

The thread holding the dispatch lock writes an inbox itself, and a write
blocks while the pipe is full.  These tests pin what keeps such a write
from blocking for good: a reply that no caller will claim is read before
the next write to its worker, a dead worker's inbox refuses writes, and a
worker whose driver is gone reads end-of-file and exits.  They also pin
what the wire costs: no driver thread, a few fds per worker, and one write
per task batch, which carries the one-way commands queued before it.
"""

import io
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
from repro.engine.parallel import MESSAGE_BYTES
from repro.engine.worker import Staged

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

    def test_an_aborted_calls_reply_is_read_before_the_next_pin(self):
        """A call is interrupted after worker 0's batch went out, and that
        batch's 256 KiB reply belongs to no caller; the next pin is large
        enough to be written at once, and worker 0 reads it only once that
        reply is read."""
        with WorkerPool(2) as pool:
            pool.run(_blob, [(1,), (1,)])  # register the function on both workers
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
            refs = _finish(lambda: pool.pin("t", 1, [b"z" * BIG, b"w"]))
            assert pool.fetch(refs) == [b"z" * BIG, b"w"]
            assert pool.retries_total == 0
            assert not pool._reply_buffers


def _kinds(message):
    """The kind of each command in one inbox message."""
    stream, kinds = io.BytesIO(message), []
    while stream.tell() < len(message):
        kinds.append(pickle.load(stream)[0])
    return kinds


class TestMessages:
    def test_one_way_commands_ride_with_the_next_task_batch(self):
        """Pins and evictions alone write nothing: they ride, in order, with
        the next task batch to their worker, one message per worker.  A
        command that fills the message to ``MESSAGE_BYTES`` writes at once,
        and evictions wait for the worker's next task batch."""
        with WorkerPool(2) as pool:
            written, real_write = [], pool._write

            def write(worker, last, tasks):
                written.append((worker, _kinds(bytes(pool._outgoing[worker]) + last)))
                real_write(worker, last, tasks)

            pool._write = write
            refs = pool.pin("t", 1, [[1, 2], [3]])
            pool.pin("old", 1, [[9], [9]])
            pool.evict("old")
            assert written == []
            assert pool.run(_sum_part, [(ref,) for ref in refs]) == [3, 3]
            kinds = ["pin", "pin", "evict", "func", "tasks"]
            assert written == [(0, kinds), (1, kinds)]
            written.clear()
            pool.pin("big", 1, [b"x" * MESSAGE_BYTES])
            pool.evict("big")
            assert written == [(0, ["pin"])]
            assert _kinds(pool._outgoing[0]) == _kinds(pool._outgoing[1]) == ["evict"]

    def test_an_interrupted_write_loses_no_other_workers_commands(self):
        """A Ctrl-C while worker 0's message is written kills worker 0 (its
        pipe may hold half a message) and keeps every command queued for
        worker 1 — a pin and a function registration of calls that have
        returned or are aborting — for worker 1's next message."""
        with WorkerPool(2) as pool:
            refs = pool.pin("t", 1, [[1, 2], [3]])

            def interrupted(message):
                raise KeyboardInterrupt

            pool._inboxes[0].send_bytes = interrupted
            with pytest.raises(KeyboardInterrupt):
                pool.run(_sum_part, [(ref,) for ref in refs])
            assert _kinds(pool._outgoing[1]) == ["pin", "func"]
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
