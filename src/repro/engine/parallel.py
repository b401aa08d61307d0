"""Real multi-process execution: the pool of stateful worker processes.

The simulated :class:`~repro.engine.cluster.Cluster` models the paper's
10-node Spark deployment but runs every plan on one Python process.  This
module supplies the missing half: a :class:`WorkerPool` of real OS
processes.  Unlike a throwaway ``multiprocessing.Pool``, the workers are
*addressable and stateful* — each one reads its own inbox pipe and keeps a
**partition store** of named, versioned partitions.  Data ships to a
worker once (a ``pin``), and later stages reference it by handle; stage
outputs stay worker-resident until the driver materializes the result, as
RDD partitions stay in Spark executors' memory across the stages of a
unified cleaning query (§7).

Its neighbours: :mod:`~repro.engine.worker` is the wire protocol (the
child's command loop, handles, reply tags, error envelopes),
:mod:`~repro.engine.store` the driver's registry of what is resident and
the lineage to rebuild it, :mod:`~repro.engine.transport` the ledger of
what each call shipped.  The pool ships what the registry tells it and
owns everything with a clock or a dispatch turn in it:

* **Determinism** — ``run()`` returns results in task-submission order, and
  the task for logical partition ``p`` always runs on worker ``p % workers``,
  which holds that partition: handles resolve locally, and a parallel stage
  mirroring a serial stage's per-partition logic is byte-identical to it.
* **Self-healing** — when a worker process dies — or hangs past the pool's
  ``task_deadline``, detected by a shared-memory heartbeat — only that
  worker is replaced and only *its* partitions are rebuilt from the
  registry's lineage (``invalidate_store()`` is the last resort, taken
  only when a rebuild itself fails).  A death mid-batch loses all of that
  batch's unsent replies, and every one of its tasks is re-dispatched
  under a bounded retry budget with linear backoff; only an exhausted
  budget surfaces, as :class:`~repro.errors.WorkerTaskError`
  (``exc_type="RetriesExhausted"``).  A :class:`~repro.engine.faults.
  FaultPlan` injected at construction makes recovery deterministic enough
  for the chaos suites to assert byte-identical results.
* **Concurrent callers** — the serving layer drives one pool from many
  threads.  Dispatch is serialized by a FIFO ticket lock, whose holder
  writes the inboxes and forks every replacement.  Every command is one
  message, written when it is made; a dispatch is one ``tasks`` batch to
  each worker, each task carrying its pickled function, and one reply
  back.  Reply collection runs *outside* the lock: one caller at a time
  pumps the reply pipes and routes other callers' reply tails by task id.
  Each call's transport is credited to its calling thread, counted per
  task argument payload and per reply tail, not per message.
* **Query-scoped aborts** — a failing or aborted call leaves the pool and
  every other caller's pinned state intact; ``shutdown()`` terminates
  outstanding work immediately rather than waiting for queued partitions.

Task functions must be importable module-level callables and all task
arguments picklable — the executors' `supports` checks enforce this
(:mod:`repro.core.shippable`) before a plan is claimed.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import pickle
import sys
import threading
import time
import weakref
from collections import OrderedDict
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Sequence

from ..errors import WorkerTaskError
from .store import StoreRegistry
from .transport import _CallRecord
from .worker import (
    _MISSING, StoreRef, _count, _fetch_task, decode_reply, is_failure, raise_failure,
    recv_any, run_chain, start_worker,
)

if TYPE_CHECKING:
    from .faults import FaultPlan

# Workers a pool gets when the caller enabled parallel execution without
# choosing a count.  Deliberately small: the test/CI machines have few cores
# and the point of the default is "really concurrent", not "fully loaded".
DEFAULT_WORKERS = 2

# How long one wait on the reply pipes lasts before the caller checks its
# workers for death or a hang (a dead worker's pipe ends the wait at once).
_POLL_SECONDS = 0.05

# Default retry budget for tasks lost to a dead/hung worker, and the linear
# backoff step between attempts.  One transient death needs one retry; the
# budget of 2 tolerates a replacement dying too before the caller degrades.
DEFAULT_TASK_RETRIES = 2
DEFAULT_RETRY_BACKOFF = 0.05

# Aborted-task ids kept so the reply router can drop their late replies.
# Bounded: an id whose reply never arrives (its worker died) must not pin
# driver memory forever on a long-lived serving pool.
ABANDONED_LIMIT = 1024

# Routed replies parked for a caller that has not yet drained them.  Far
# above any realistic in-flight task count; the bound only exists so a
# reply whose owner vanished can never accumulate without limit.
REPLY_BUFFER_LIMIT = 4096


class _FairLock:
    """FIFO ticket lock, reentrant: dispatch turns are granted in arrival
    order, so one hot query thread cannot starve the others (a plain
    ``threading.Lock`` makes no fairness promise)."""

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._next_ticket = 0
        self._serving = 0
        self._owner: int | None = None
        self._depth = 0

    def acquire(self) -> None:
        me = threading.get_ident()
        with self._cond:
            if self._owner == me:
                self._depth += 1
                return
            ticket = self._next_ticket
            self._next_ticket += 1
            while ticket != self._serving:
                self._cond.wait()
            self._owner = me
            self._depth = 1

    def release(self) -> None:
        with self._cond:
            self._depth -= 1
            if self._depth == 0:
                self._owner = None
                self._serving += 1
                self._cond.notify_all()

    def __enter__(self) -> "_FairLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.release()


class WorkerPool:
    """Addressable, stateful worker processes with a partition store.

    Parameters
    ----------
    workers:
        Number of worker processes (>= 1).
    start_method:
        ``multiprocessing`` start method; defaults to ``"fork"`` on Linux
        (cheap, inherits loaded modules) and to the platform's own default
        elsewhere — macOS deliberately defaults to ``"spawn"`` because
        forked children crash inside Apple system frameworks.
    fault_plan:
        Optional :class:`~repro.engine.faults.FaultPlan` shipped to every
        worker at spawn — the deterministic chaos-testing hook.  Production
        pools leave it ``None``.
    task_deadline:
        Seconds without heartbeat progress before a worker with outstanding
        tasks is declared *hung* and treated as dead.  Must exceed the
        longest legitimate task; ``None`` (the default) disables the
        watchdog so only real process death triggers recovery.
    max_task_retries:
        How many times a task lost to a dead/hung worker is re-dispatched
        before the call fails with ``exc_type="RetriesExhausted"``.
    retry_backoff:
        Linear backoff step between retry rounds (attempt *n* sleeps
        ``retry_backoff * n`` seconds).
    """

    def __init__(
        self,
        workers: int,
        start_method: str | None = None,
        fault_plan: FaultPlan | None = None,
        task_deadline: float | None = None,
        max_task_retries: int = DEFAULT_TASK_RETRIES,
        retry_backoff: float = DEFAULT_RETRY_BACKOFF,
    ):
        if workers < 1:
            raise ValueError("workers must be positive")
        if start_method is None and sys.platform == "linux":
            start_method = "fork"
        self.workers = workers
        self.fault_plan = fault_plan
        self.task_deadline = task_deadline
        self.max_task_retries = max_task_retries
        self.retry_backoff = retry_backoff
        self._ctx = multiprocessing.get_context(start_method)
        self.start_method = self._ctx.get_start_method()
        # Dispatch serialization (FIFO across caller threads) and the small
        # guards for shared driver-side state: ``_reply_cond`` the reply
        # router, ``_store.lock`` the registry, ``_stats_lock`` the counters.
        # Lock order, outermost first: dispatch -> store -> reply.  Every
        # fork, and every open, write and close of an inbox, holds dispatch.
        self._dispatch_lock = _FairLock()
        self._store = StoreRegistry(workers)
        self._stats_lock = threading.Lock()
        self._reply_cond = threading.Condition()
        # Per worker: the driver's ends of its inbox and reply pipes, and its
        # process.  ``_ended`` holds reply ends whose worker has died, weakly:
        # a replaced worker's closes with its last reference.
        self._inboxes: list[Any] = [None] * workers
        self._replies: list[Any] = [None] * workers
        self._ended: weakref.WeakSet = weakref.WeakSet()
        self._procs: list[Any] = [None] * workers
        # ``tasks`` batches written to worker ``w`` whose reply the pump has
        # not read, and how many replies it must read before the next write
        # to ``w`` (see ``_write``): set to the first when a batch in flight
        # is unclaimed — aborted, or a rebuild.  Under ``_reply_cond``.
        self._inflight: list[int] = [0] * workers
        self._owed: list[int] = [0] * workers
        # Bumped when worker ``w`` dies; a caller whose tasks were queued
        # against an older generation knows they are lost.
        self._worker_gen: list[int] = [0] * workers
        # Generation replaced and rebuilt from lineage; lagging behind
        # ``_worker_gen``, the next dispatch to it runs ``_ensure_recovered``.
        self._recovered_gen: list[int] = [0] * workers
        # Liveness: each worker ticks its slot on every command; the driver
        # keeps the last value seen and when it last changed (see ``_hung``).
        self._heartbeat = self._ctx.RawArray("Q", workers)
        self._hb_last: list[int] = [0] * workers
        self._hb_ts: list[float] = [time.monotonic()] * workers
        for w in range(workers):
            self._spawn_worker(w)
        self._closed = False
        # task_id -> reply tail, parked until its caller drains it.
        self._reply_buffers: OrderedDict[int, tuple] = OrderedDict()
        # Aborted/lost task ids whose late replies must be dropped.
        self._abandoned: OrderedDict[int, None] = OrderedDict()
        self._pump_busy = False  # one thread at a time reads the reply pipes
        self._task_counter = 0
        self._version_counter = 0
        # Lifetime totals: wall time waiting on results, tasks, transport.
        # Per-op metrics come from the context ledger (ShipLog), not these.
        self.wall_seconds_total = 0.0
        self.tasks_dispatched = 0
        self.bytes_shipped_total = 0
        self.ship_count_total = 0
        self.retries_total = 0

    def _spawn_worker(self, worker: int) -> None:
        """Start worker ``worker`` with an empty store, closing a dead
        predecessor's inbox; ``__init__`` or dispatch-locked."""
        if self._inboxes[worker] is not None:
            self._inboxes[worker].close()
        proc, inbox, replies = start_worker(
            self._ctx, worker, self._worker_gen[worker], self.fault_plan, self._heartbeat
        )
        with self._reply_cond:
            self._inboxes[worker], self._replies[worker] = inbox, replies
            self._procs[worker] = proc
            self._inflight[worker] = self._owed[worker] = 0
            self._hb_last[worker] = self._heartbeat[worker]
            self._hb_ts[worker] = time.monotonic()

    @property
    def closed(self) -> bool:
        return self._closed

    def next_version(self) -> int:
        """A pool-unique version number for ad-hoc pins and stage outputs."""
        with self._stats_lock:
            self._version_counter += 1
            return self._version_counter

    def _ship(self, worker: int, command: tuple, nbytes: int, call: _CallRecord) -> None:
        """Write one command to ``worker`` as one message (dispatch-locked),
        crediting ``nbytes`` of payload to ``call``."""
        tasks = command[0] == "tasks"
        call.bytes += nbytes
        call.ships += len(command[1]) if tasks else 1  # payloads, not messages
        self._write(worker, pickle.dumps(command), tasks)

    def _write(self, worker: int, message: bytes, tasks: bool) -> None:
        """Write one message to ``worker``'s inbox (dispatch-locked).  A
        write blocks while the pipe is full, which a worker blocked writing
        a reply no caller reads never empties; so the replies it owes
        (``_owed``) are pumped out first, until it dies or hangs.  A dead
        worker refuses the write, which is dropped (its tasks are retried,
        its state replayed); one cut short (Ctrl-C) leaves half a message,
        so that worker is killed and replaced."""
        with self._reply_cond:  # a fresh deadline window: idling is no hang
            self._hb_ts[worker] = max(self._hb_ts[worker], time.monotonic())
        while self._owed[worker] and not self._closed and self._procs[worker].is_alive():
            self._poll_replies(set())
            with self._reply_cond:
                if self._hung(worker):
                    self._procs[worker].terminate()
        if self._closed:  # shutdown closes the inboxes once it holds the lock
            return
        with self._reply_cond:
            self._inflight[worker] += tasks
        try:
            self._inboxes[worker].send_bytes(message)
        except BrokenPipeError:
            pass
        except BaseException:
            self._procs[worker].kill()
            with self._reply_cond:
                self._worker_gen[worker] += 1
            raise

    def _tell_all(self, *command: Any) -> None:
        """Send an uncounted housekeeping command to every worker."""
        with self._dispatch_lock:
            for w in range(self.workers):
                self._ship(w, command, 0, _CallRecord())

    def _finish_call(self, call: _CallRecord) -> None:
        """Fold one finished call into the pool totals and the calling
        thread's transport ledger."""
        with self._stats_lock:
            self.bytes_shipped_total += call.bytes
            self.ship_count_total += call.ships
            self.retries_total += call.retries
            if call.wall is not None:
                self.wall_seconds_total += call.wall
                self.tasks_dispatched += call.tasks
        call.credit_context()

    # -- partition store ------------------------------------------------ #
    @contextlib.contextmanager
    def _shipping(self, name: str, version: int) -> Iterator[_CallRecord]:
        """One pin's worth of dispatch: a partial shipment is evicted
        before its error propagates — it must never strand unreferenced
        partitions in worker stores."""
        if self._closed:
            raise RuntimeError("worker pool is closed")
        call = _CallRecord()
        try:
            with self._dispatch_lock:
                try:
                    yield call
                except Exception:
                    self._tell_all("evict", name, version)
                    raise
        finally:
            self._finish_call(call)

    def pin(self, name: str, version: int, partitions: Sequence[Any]) -> list[StoreRef]:
        """Ship partitions to their owning workers once; return handles.

        Partition ``p`` goes to worker ``p % workers``, written to its
        inbox before ``pin`` returns; a worker runs its inbox's commands in
        order, so a task dispatched after that sees the stored partition.
        """
        refs: list[StoreRef] = []
        parts_list = list(partitions)
        with self._shipping(name, version) as call:
            for p, part in enumerate(parts_list):
                blob = pickle.dumps(part)
                self._ship(p % self.workers, ("pin", name, version, p, blob), len(blob), call)
                refs.append(StoreRef(name, version, p, _count(part)))
        self._store.record_pin(name, version, refs, call.bytes, parts_list)
        return refs

    def broadcast(self, name: str, version: int, obj: Any) -> StoreRef:
        """Ship one object to *every* worker; the handle resolves locally."""
        blob = pickle.dumps(obj)
        with self._shipping(name, version) as call:
            for w in range(self.workers):
                self._ship(w, ("pin", name, version, -1, blob), len(blob), call)
        ref = StoreRef(name, version, -1, -1)
        self._store.record_broadcast(ref, call.bytes, obj)
        return ref

    # Reads of the registry (:class:`~repro.engine.store.StoreRegistry` has
    # the contracts); nothing ships for them.
    def pinned(self, name: str, version: int) -> list[StoreRef] | None:
        return self._store.pinned(name, version)

    def pinned_versions(self, name: str) -> list[int]:
        return self._store.pinned_versions(name)

    def pinned_nbytes(self, name: str | None = None) -> int:
        return self._store.pinned_nbytes(name)

    def derived(self, key: tuple) -> dict | None:
        return self._store.derived(key)

    def patch(
        self, refs: Sequence[StoreRef], version: int,
        deltas: Sequence[tuple[list, list]], partitions: Sequence[Any],
    ) -> None:
        """Move pinned partitions ``refs`` to ``version`` in the workers, one
        way: ``deltas[i]``, partition ``refs[i]``'s appended rows and
        ``(position, row)`` replacements, ships as one ``patch`` command and
        no reply is awaited — the worker's FIFO inbox runs it before the old
        version's ``evict`` and any task queued after it.  ``partitions``
        (the post-delta rows as the workers hold them) become the new
        version's re-pin lineage, so a worker lost with the patch unread
        rebuilds the new version, not the old."""
        name = refs[0].name
        new_refs = []
        with self._shipping(name, version) as call:
            for ref, (appended, updates) in zip(refs, deltas):
                blob = pickle.dumps((appended, updates)) if appended or updates else b""
                command = ("patch", name, ref.version, version, ref.part, blob)
                self._ship(ref.part % self.workers, command, len(blob), call)
                new_refs.append(StoreRef(name, version, ref.part, ref.count + len(appended)))
        self._store.adopt(name, version, new_refs, partitions, refs[0].version, call.bytes)

    def evict(self, name: str, version: int | None = None) -> None:
        """Drop a pinned/broadcast name (one version or all of them) from
        every worker store, together with any derived results cached on top
        of it.  Idempotent; safe on a closed pool; a name the registry
        holds nothing under ships nothing."""
        for entry in self._store.evict(name, version):
            self._tell_all("evict", *entry)

    def register_derived(self, key: tuple, payload: dict) -> None:
        """Cache a derived result (see the registry); whatever falls off
        the LRU end is evicted from the workers too."""
        for entry in self._store.register_derived(key, payload):
            self._tell_all("evict", *entry)

    def invalidate_store(self) -> None:
        """Forget every pin, broadcast, derived result, and lineage recipe
        — and clear the surviving workers' stores.  The *last resort* of
        the recovery path: taken only when rebuilding a dead worker's
        partitions from lineage itself fails, never as the first response
        to a death."""
        self._store.clear()
        self._tell_all("evict_all")

    def fetch(self, refs: Sequence[StoreRef]) -> list[Any]:
        """Materialize stored partitions on the driver (final results)."""
        return self.run(_fetch_task, [(ref,) for ref in refs])

    def run_stage(
        self, steps: Sequence[tuple[Callable, tuple]], inputs: Sequence[Any],
        store_as: tuple[str, int] | None = None, parts: Sequence[int] | None = None,
    ) -> tuple[list[Any], list[tuple[int, ...]]]:
        """One dispatch for a whole chain of narrow steps (:func:`run_chain`),
        one task per element of ``inputs`` — a handle, or a tuple of the head
        step's partition arguments.  Returns ``(outs, counts)``: handles
        under ``store_as``, else the chain's values; and per task the records
        entering its chain (from its handles), then the count after each step."""
        chain = tuple(steps)
        tasks = [(chain, *i) if isinstance(i, tuple) else (chain, i) for i in inputs]
        done = self.run(run_chain, tasks, store_as=store_as, parts=parts)
        entering = [
            sum(max(a.count, 0) for a in task if isinstance(a, StoreRef))
            for task in tasks
        ]
        return [d[0] for d in done], [(n, *d[1]) for n, d in zip(entering, done)]

    # -- task execution ------------------------------------------------- #
    def run(
        self,
        func: Callable,
        args_list: Iterable[Sequence[Any]],
        store_as: tuple[str, int] | None = None,
        parts: Sequence[int] | None = None,
    ) -> list[Any]:
        """Run ``func(*args)`` for each args tuple; results in submission order.

        Any top-level :class:`StoreRef` argument is resolved to the resident
        object inside the worker.  Task *i* targets logical partition
        ``parts[i]`` when given, else the partition of its first handle
        argument, else ``i`` — and always runs on that partition's worker.

        With ``store_as=(name, version)``, each task's result stays
        worker-resident under its partition index and a :class:`StoreRef`
        (carrying the result's record count) is returned instead.  A
        :class:`Staged` result keeps its ``value`` and returns ``(ref,
        report)``: what the driver needs besides (e.g. a global index's input).

        The first failing task's exception is re-raised on the driver
        (:func:`~repro.engine.worker.raise_failure`), never retried.  A
        worker dying or hanging mid-batch, or a corrupt reply payload, is
        recovered from — replace, rebuild, re-dispatch, up to
        ``max_task_retries`` times (module docstring, "Self-healing").
        """
        if self._closed:
            raise RuntimeError("worker pool is closed")
        call = _CallRecord()
        start = time.perf_counter()
        tasks = [tuple(args) for args in args_list]
        # One bytes object in every task, so a batch's pickle carries it once.
        fblob = pickle.dumps(func) if tasks else b""
        flabel = f"task function {getattr(func, '__qualname__', repr(func))!r}"
        task_parts = [self._part_for(args, i, parts) for i, args in enumerate(tasks)]
        results: list[Any] = [None] * len(tasks)
        failure: tuple[int, tuple] | None = None
        outstanding = list(range(len(tasks)))
        attempt = 0
        pending: dict[int, tuple[int, int, int]] = {}  # task_id -> (index, worker, gen)
        replies: dict[int, tuple] = {}
        try:
            while outstanding:
                if attempt:
                    call.retries += len(outstanding)
                    time.sleep(self.retry_backoff * attempt)
                pending.clear()
                replies.clear()
                batches: dict[int, list[tuple]] = {}  # worker -> its tasks
                with self._dispatch_lock:
                    for i in outstanding:
                        part = task_parts[i]
                        worker = part % self.workers
                        self._ensure_recovered(worker, call)
                        blob = pickle.dumps(tasks[i])
                        task_id = self._task_counter
                        self._task_counter += 1
                        store_key = (*store_as, part) if store_as else None
                        batches.setdefault(worker, []).append((task_id, fblob, flabel, blob, store_key))
                        pending[task_id] = (i, worker, self._worker_gen[worker])
                        if store_as is not None and attempt == 0:
                            self._store.record_stage(store_as, part, fblob, blob)
                    for worker, batch in batches.items():
                        self._ship(worker, ("tasks", batch), sum(len(t[3]) for t in batch), call)
                    call.tasks += len(outstanding)
                lost = self._collect(pending, replies, call)
                retry_indices = [pending[task_id][0] for task_id in lost]
                for task_id, reply in replies.items():
                    index = pending[task_id][0]
                    if is_failure(reply):
                        if failure is None or index < failure[0]:
                            failure = (index, reply)
                        continue
                    try:
                        results[index] = decode_reply(reply, store_as, task_parts[index])
                    except Exception:
                        retry_indices.append(index)  # corrupt payload
                if failure is not None:
                    break
                outstanding = sorted(retry_indices)
                if outstanding:
                    attempt += 1
                    if attempt > self.max_task_retries:
                        raise WorkerTaskError(
                            f"{len(outstanding)} task(s) still lost after "
                            f"{self.max_task_retries} retries; degrade to the "
                            f"row backend or re-pin",
                            exc_type="RetriesExhausted",
                        )
        except BaseException:
            # Abort: the router drops the unfinished tasks' late replies,
            # and their workers owe every reply in flight, so no write
            # reaches them before those are read.
            with self._reply_cond:
                for task_id, (_, worker, _) in pending.items():
                    if task_id not in replies:
                        self._abandon_locked(task_id)
                        self._owed[worker] = self._inflight[worker]
            raise
        finally:
            call.wall = time.perf_counter() - start
            self._finish_call(call)
        if failure is not None:
            raise_failure(failure[1])
        return results

    @staticmethod
    def _part_for(args: tuple, index: int, parts: Sequence[int] | None) -> int:
        if parts is not None:
            return parts[index]
        for arg in args:
            if isinstance(arg, StoreRef) and arg.part >= 0:
                return arg.part
        return index

    def _collect(
        self, pending: dict[int, tuple[int, int, int]], replies: dict[int, tuple],
        call: _CallRecord,
    ) -> set[int]:
        """Gather replies for pending tasks, crediting their payload bytes to
        this call; return the ids lost to a worker that died, hung, or was
        replaced under another caller (:meth:`_check_lost_tasks`)."""
        waiting = set(pending)
        lost: set[int] = set()
        while waiting:
            got = self._poll_replies(waiting)
            if not got:
                newly_lost = self._check_lost_tasks(pending, waiting)
                lost |= newly_lost
                waiting -= newly_lost
                continue
            for task_id, tail in got:
                replies[task_id] = tail
                waiting.discard(task_id)
                # Bytes received back from workers are transport volume too.
                for item in tail:
                    if isinstance(item, bytes):
                        call.bytes += len(item)
                call.ships += 1
        return lost

    def _poll_replies(self, waiting: set[int]) -> list[tuple[int, tuple]]:
        """One bounded wait for replies to ``waiting`` tasks.  The caller
        holding the pump role reads the reply pipes and routes other
        callers' replies to their buffers; the rest wait on the router
        condition.  An empty list means: run the liveness checks."""
        mine: list[tuple[int, tuple]] = []

        def _drain_buffers() -> None:
            for task_id in list(waiting):
                tail = self._reply_buffers.pop(task_id, None)
                if tail is not None:
                    mine.append((task_id, tail))

        with self._reply_cond:
            _drain_buffers()
            if mine:
                return mine
            if self._pump_busy:
                self._reply_cond.wait(_POLL_SECONDS)  # for the pump to route one
                _drain_buffers()
                return mine
            self._pump_busy = True
        try:
            got = recv_any(self._replies, self._ended, _POLL_SECONDS)
            if got is None:
                return []
            # One message is one worker's batch: route each tail by task id.
            reader, batch = got
            with self._reply_cond:
                if reader in self._replies:  # else a replaced worker's last words
                    worker = self._replies.index(reader)
                    self._inflight[worker] -= 1
                    self._owed[worker] = max(self._owed[worker] - 1, 0)
                for task_id, *tail in batch:
                    if task_id in waiting:
                        mine.append((task_id, tuple(tail)))
                    elif self._abandoned.pop(task_id, _MISSING) is _MISSING:
                        self._reply_buffers[task_id] = tuple(tail)
                    # else: late reply for an aborted/lost task — drop it
                while len(self._reply_buffers) > REPLY_BUFFER_LIMIT:
                    self._reply_buffers.popitem(last=False)
            return mine
        finally:
            with self._reply_cond:
                self._pump_busy = False
                self._reply_cond.notify_all()

    def _check_lost_tasks(
        self, pending: dict[int, tuple[int, int, int]], waiting: set[int]
    ) -> set[int]:
        """After an empty poll: is this call still going to get replies?

        Raises only when the pool was shut down.  A worker holding our tasks
        that died or hung past ``task_deadline`` gets a new generation (the
        next dispatch to it forks its replacement); its tasks, and any of an
        older generation, are returned as lost — abandoned, so their
        straggler replies are dropped."""
        if self._closed:
            raise WorkerTaskError(
                "worker pool shut down while tasks were outstanding",
                exc_type="PoolClosed",
            )
        with self._reply_cond:
            # Tasks of an older generation were lost under another caller.
            current = {t for t in waiting if self._worker_gen[pending[t][1]] == pending[t][2]}
            dead: set[int] = set()
            for worker in {pending[t][1] for t in current}:
                if not self._procs[worker].is_alive() or self._hung(worker):
                    self._procs[worker].terminate()  # hung: same treatment as dead
                    self._worker_gen[worker] += 1
                    dead.add(worker)
            lost = (waiting - current) | {t for t in current if pending[t][1] in dead}
            for task_id in lost:
                self._abandon_locked(task_id)
        return lost

    def _abandon_locked(self, task_id: int) -> None:
        """Mark one task's reply as to-be-dropped (caller holds
        ``_reply_cond``); the set is LRU-bounded at ``ABANDONED_LIMIT``."""
        self._abandoned[task_id] = None
        self._abandoned.move_to_end(task_id)
        while len(self._abandoned) > ABANDONED_LIMIT:
            self._abandoned.popitem(last=False)
        self._reply_buffers.pop(task_id, None)

    def _hung(self, worker: int) -> bool:
        """Whether ``worker``, owing replies, has shown no heartbeat progress
        for a whole ``task_deadline`` (caller holds ``_reply_cond``)."""
        if self.task_deadline is None:
            return False
        now, beat = time.monotonic(), self._heartbeat[worker]
        if beat != self._hb_last[worker]:
            self._hb_last[worker], self._hb_ts[worker] = beat, now
            return False
        return now - self._hb_ts[worker] > self.task_deadline

    def _ensure_recovered(self, worker: int, call: _CallRecord) -> None:
        """Replace a dead worker and replay lineage onto it (dispatch-locked):
        the registry's commands for its share of the store go ahead of the
        caller's retried tasks on the same FIFO inbox.  The stage rebuilds
        ship as one ``tasks`` batch whose replies are pre-abandoned and owed
        (see :meth:`_write`); a rebuild that cannot be dispatched falls back
        to :meth:`invalidate_store`."""
        gen = self._worker_gen[worker]
        if self._recovered_gen[worker] == gen or self._closed:
            return
        self._recovered_gen[worker] = gen
        self._procs[worker].join(timeout=1.0)
        self._spawn_worker(worker)
        try:
            rebuilds: list[tuple] = []
            with self._store.lock:
                for command in self._store.replay(worker):
                    if command[0] == "pin":
                        self._ship(worker, command, len(command[-1]), call)
                        continue
                    _, name, version, part, fblob, args_blob = command
                    label = f"stage-rebuild task for {name!r} v{version}"
                    task_id = self._task_counter
                    self._task_counter += 1
                    with self._reply_cond:
                        self._abandon_locked(task_id)
                    rebuilds.append((task_id, fblob, label, args_blob, (name, version, part)))
            if rebuilds:
                self._ship(worker, ("tasks", rebuilds), sum(len(t[3]) for t in rebuilds), call)
                with self._reply_cond:
                    self._owed[worker] = self._inflight[worker]
        except Exception:
            # Last resort: the rebuild itself failed (unpicklable source);
            # callers fall back to cold pins or the row backend.
            self.invalidate_store()

    def shutdown(self) -> None:
        """Terminate the workers immediately.  Idempotent.

        ``terminate`` rather than a graceful stop: a mid-flight abort must
        not wait for queued partitions.  Any caller still in ``_collect``
        surfaces a :class:`WorkerTaskError` on its next poll.  The first
        terminate fails any inbox write blocked on a worker, freeing the
        dispatch lock, under which no fork follows.  A worker ignoring
        SIGTERM for 2 seconds is killed; pipes and handles are released.
        """
        if self._closed:
            return
        self._closed = True
        for proc in self._procs:
            proc.terminate()
        with self._dispatch_lock:
            self._store.clear()
            for proc in self._procs:
                proc.terminate()  # a replacement forked before the lock came free
                proc.join(timeout=2.0)
            for proc in self._procs:
                if proc.is_alive():
                    proc.kill()
                    proc.join(timeout=2.0)
            for end in (*self._inboxes, *self._replies):
                end.close()
            for proc in self._procs:
                with contextlib.suppress(ValueError):  # still running despite SIGKILL
                    proc.close()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()
