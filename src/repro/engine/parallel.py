"""Real multi-process execution: the pool of stateful worker processes.

The simulated :class:`~repro.engine.cluster.Cluster` models the paper's
10-node Spark deployment but runs every plan on one Python process.  This
module supplies the missing half: a :class:`WorkerPool` of real OS
processes.  Unlike a throwaway ``multiprocessing.Pool``, the workers are
*addressable and stateful* — each one owns a task queue and a **partition
store** of named, versioned partitions.  Data ships to a worker once (a
``pin``), and every later stage references it by handle; stage outputs
likewise stay worker-resident until the driver materializes the final
result.  This mirrors what Spark executors give CleanDB (§7): RDD
partitions stay in executor memory across the stages of a unified cleaning
query instead of being re-serialized per stage.

Its neighbours: :mod:`~repro.engine.worker` is the wire protocol (the
child's command loop, handles, reply tags, error envelopes),
:mod:`~repro.engine.store` the driver's registry of what is resident and
the lineage to rebuild it, :mod:`~repro.engine.transport` the ledger of
what each call shipped.  The pool ships what the registry tells it and
owns everything with a clock or a dispatch turn in it:

* **Determinism** — ``run()`` returns results in task-submission order, and
  the task for logical partition ``p`` always runs on worker ``p % workers``
  — the worker that holds that partition, so handles resolve locally and
  there is no remote read path.  A parallel stage that mirrors a serial
  stage's per-partition logic therefore produces byte-identical output
  (the backend-parity and determinism tests rely on this).
* **Self-healing** — when a worker process dies — or hangs past the pool's
  ``task_deadline``, detected by a shared-memory heartbeat — only that
  worker is replaced and only *its* partitions are rebuilt from the
  registry's lineage; other workers' pins and other callers' state stay
  resident (``invalidate_store()`` is the last resort, taken only when a
  rebuild itself fails).  A worker's replies travel as one batch, so a
  death mid-batch loses all of that batch's unsent replies, and every one
  of its tasks is re-dispatched under a bounded retry budget with linear
  backoff; only an exhausted budget surfaces, as
  :class:`~repro.errors.WorkerTaskError` (``exc_type="RetriesExhausted"``).  A :class:`~repro.engine.faults.
  FaultPlan` injected at construction makes recovery deterministic enough
  for the chaos suites to assert byte-identical results.
* **Concurrent callers** — the serving layer drives one pool from many
  threads.  A dispatch is one message each way per worker: one ``tasks``
  command with all of the call's tasks for that worker out, one message
  with their per-task reply tails back.  Dispatch (shipping pins and task
  batches) is serialized by a FIFO ticket lock so each stage's commands
  land contiguously and fairly — stage-granularity interleaving, no
  head-of-line blocking across queries — while reply collection runs
  *outside* the lock: one caller at a time pumps the workers' reply pipes
  and routes the tails of other callers' batches to them by task id, so
  worker compute for one query overlaps driver-side work for another.
  Each call's transport is credited to its own context, counted per task
  payload and per reply tail, not per message.
* **Query-scoped aborts** — a failing or aborted call leaves the pool and
  every other caller's pinned state intact; ``shutdown()`` (an explicit
  lifecycle decision, e.g. ``CleanDB.close()``) terminates outstanding
  work immediately rather than waiting for queued partitions.

Task functions must be importable module-level callables and all task
arguments picklable — the executors' `supports` checks enforce this
(:mod:`repro.core.shippable`) before a plan is claimed.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import multiprocessing.sharedctypes
import pickle
import queue as queue_mod
import sys
import threading
import time
from collections import OrderedDict
from typing import Any, Callable, Iterable, Iterator, Sequence

from ..errors import WorkerTaskError
from .faults import FaultPlan
from .store import StoreRegistry
from .transport import _CallRecord
from .worker import (
    _MISSING, StoreRef, _count, _fetch_task, _worker_main, decode_reply, is_failure,
    _Replies, raise_failure, run_chain,
)

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

# Distinct task functions the registry keeps resident.  Functions are keyed
# by their pickled form, so re-created equivalent closures/partials collapse
# onto one entry; past the cap the least-recently-used function is dropped
# from the driver registry *and* the workers (``func_del``) and simply
# re-ships if it ever comes back.  A long-lived serving pool stays bounded
# no matter how many ad-hoc callables pass through it.
FUNC_REGISTRY_LIMIT = 128


class _FairLock:
    """FIFO ticket lock: dispatch turns are granted in arrival order.

    A plain ``threading.Lock`` makes no fairness promise, so one hot query
    thread could re-acquire back-to-back and starve the others.  Tickets
    guarantee stage-granularity round-robin across concurrent queries.
    Reentrant for its owner thread.
    """

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
        self._outbox = _Replies(self._ctx, workers)
        self._inboxes: list[Any] = [None] * workers
        self._procs: list[Any] = [None] * workers
        # Bumped when worker ``w`` is replaced; a caller whose tasks were
        # queued against an older generation knows they are lost.
        self._worker_gen: list[int] = [0] * workers
        # Generation whose partition store has been rebuilt from lineage.
        # Lagging behind ``_worker_gen`` means the replacement is still
        # empty; the next dispatch touching it runs ``_ensure_recovered``.
        self._recovered_gen: list[int] = [0] * workers
        # Liveness: each worker ticks its slot on every command; the driver
        # keeps the last value seen and when it last changed (see
        # ``_check_lost_tasks``).  RawArray works under both fork (inherited)
        # and spawn (shipped through Process args).
        self._heartbeat = multiprocessing.sharedctypes.RawArray("Q", workers)
        self._hb_last: list[int] = [0] * workers
        self._hb_ts: list[float] = [time.monotonic()] * workers
        for w in range(workers):
            self._spawn_worker(w)
        self._closed = False
        # Dispatch serialization (FIFO across caller threads) and the small
        # guards for shared driver-side state: ``_reply_cond`` the reply
        # router, ``_store.lock`` the registry, ``_stats_lock`` the counters.
        # Lock order, outermost first: dispatch -> store -> reply.
        self._dispatch_lock = _FairLock()
        self._store = StoreRegistry(workers)
        self._stats_lock = threading.Lock()
        self._reply_cond = threading.Condition()
        # task_id -> reply tail, parked until its caller drains it.
        self._reply_buffers: OrderedDict[int, tuple] = OrderedDict()
        # Aborted/lost task ids whose late replies must be dropped.
        self._abandoned: OrderedDict[int, None] = OrderedDict()
        self._pump_busy = False  # one thread at a time drains the outbox
        # Function registry (FUNC_REGISTRY_LIMIT): pickled callable -> id.
        # Ids only grow, so a stale worker entry can never alias a new one.
        self._func_ids: OrderedDict[bytes, int] = OrderedDict()
        self._func_counter = 0
        self._worker_funcs: list[set[int]] = [set() for _ in range(workers)]
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
        inbox, replies = self._ctx.Queue(), self._outbox.open(worker)
        inbox.cancel_join_thread()  # a dead worker's full inbox must not block exit
        generation = self._worker_gen[worker]
        proc = self._ctx.Process(
            target=_worker_main,
            args=(inbox, replies, worker, generation, self.fault_plan, self._heartbeat),
            daemon=True,
        )
        proc.start()
        replies.close()  # the worker holds the only writer: its death reads as EOF
        self._inboxes[worker] = inbox
        self._procs[worker] = proc

    @property
    def closed(self) -> bool:
        return self._closed

    def next_version(self) -> int:
        """A pool-unique version number for ad-hoc pins and stage outputs."""
        with self._stats_lock:
            self._version_counter += 1
            return self._version_counter

    def _ship(self, worker: int, command: tuple, nbytes: int, call: _CallRecord) -> None:
        self._inboxes[worker].put(command)
        call.bytes += nbytes
        call.ships += len(command[1]) if command[0] == "tasks" else 1  # payloads, not messages

    def _tell_all(self, *command: Any) -> None:
        """Queue an uncounted housekeeping command on every live worker."""
        if self._closed:
            return
        for w in range(self.workers):
            if self._procs[w].is_alive():
                self._inboxes[w].put(command)

    def _finish_call(self, call: _CallRecord) -> None:
        """Fold one finished call into the pool totals and the calling
        context's transport ledger."""
        with self._stats_lock:
            self.bytes_shipped_total += call.bytes
            self.ship_count_total += call.ships
            self.retries_total += call.retries
            if call.wall is not None:
                self.wall_seconds_total += call.wall
                self.tasks_dispatched += call.tasks
        call.credit_context()

    def _ensure_func(self, worker: int, fblob: bytes, call: _CallRecord, label: str = "") -> int:
        """Resolve (or register) the function id for a pickled callable and
        make sure worker ``worker`` holds it.  ``label`` (the callable's
        qualname) travels with the blob so a worker-side unpickle failure
        names the function.  Caller holds the dispatch lock."""
        fid = self._func_ids.get(fblob)
        if fid is None:
            fid = self._func_counter
            self._func_counter += 1
            self._func_ids[fblob] = fid
            while len(self._func_ids) > FUNC_REGISTRY_LIMIT:
                _, old_fid = self._func_ids.popitem(last=False)
                for w in range(self.workers):
                    if old_fid in self._worker_funcs[w]:
                        self._worker_funcs[w].discard(old_fid)
                        if self._procs[w].is_alive():
                            self._inboxes[w].put(("func_del", old_fid))
        else:
            self._func_ids.move_to_end(fblob)
        if fid not in self._worker_funcs[worker]:
            self._ship(worker, ("func", fid, fblob, label), len(fblob), call)
            self._worker_funcs[worker].add(fid)
        return fid

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

        Partition ``p`` goes to worker ``p % workers``.  Commands on a
        worker's queue are processed in order, so a task dispatched after
        ``pin`` returns is guaranteed to see the stored partition.
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
        version's re-pin lineage, so a worker lost with the patch still
        queued rebuilds the new version, not the old."""
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
        of it.  Idempotent; safe on a closed pool."""
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
        (:func:`~repro.engine.worker.raise_failure`).  A worker dying or
        hanging mid-batch, or a reply whose payload fails to unpickle, is
        *recovered from*, not surfaced — replace, rebuild, re-dispatch, up
        to ``max_task_retries`` times (module docstring, "Self-healing").
        Deterministic task exceptions are never retried — re-running a bug
        is waste, not resilience.
        """
        if self._closed:
            raise RuntimeError("worker pool is closed")
        call = _CallRecord()
        start = time.perf_counter()
        tasks = [tuple(args) for args in args_list]
        fblob = pickle.dumps(func) if tasks else b""
        flabel = f"task function {getattr(func, '__qualname__', repr(func))!r}"
        task_parts = [self._part_for(args, i, parts) for i, args in enumerate(tasks)]
        results: list[Any] = [None] * len(tasks)
        failure: tuple[int, tuple] | None = None
        outstanding = list(range(len(tasks)))
        attempt = 0
        pending: dict[int, tuple[int, int]] = {}  # task_id -> (index, worker)
        replies: dict[int, tuple] = {}
        try:
            while outstanding:
                if attempt:
                    call.retries += len(outstanding)
                    time.sleep(self.retry_backoff * attempt)
                pending.clear()
                replies.clear()
                task_gens: dict[int, int] = {}  # task_id -> gen at dispatch
                batches: dict[int, list[tuple]] = {}  # worker -> its tasks
                with self._dispatch_lock:
                    for i in outstanding:
                        part = task_parts[i]
                        worker = part % self.workers
                        self._ensure_recovered(worker, call)
                        fid = self._ensure_func(worker, fblob, call, flabel)
                        blob = pickle.dumps(tasks[i])
                        task_id = self._task_counter
                        self._task_counter += 1
                        store_key = (*store_as, part) if store_as else None
                        batches.setdefault(worker, []).append((task_id, fid, blob, store_key))
                        pending[task_id] = (i, worker)
                        task_gens[task_id] = self._worker_gen[worker]
                        if store_as is not None and attempt == 0:
                            self._store.record_stage(store_as, part, fblob, blob)
                    for worker, batch in batches.items():
                        self._ship(worker, ("tasks", batch), sum(len(t[2]) for t in batch), call)
                    call.tasks += len(outstanding)
                # Fresh deadline window for the workers we just loaded, so
                # a long pre-dispatch idle can't read as "already hung".
                if self.task_deadline is not None:
                    now = time.monotonic()
                    with self._reply_cond:
                        for worker in batches:
                            self._hb_ts[worker] = max(self._hb_ts[worker], now)
                lost = self._collect(pending, task_gens, replies, call)
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
            # Abort path: any reply still in flight belongs to no one now.
            # Mark the unfinished tasks so the router drops their late
            # replies instead of buffering them forever.
            with self._reply_cond:
                for task_id in pending:
                    if task_id not in replies:
                        self._abandon_locked(task_id)
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
        self, pending: dict[int, tuple[int, int]], task_gens: dict[int, int],
        replies: dict[int, tuple], call: _CallRecord,
    ) -> set[int]:
        """Gather replies for pending tasks; return the ids lost to death.

        Concurrent calls share the reply pipes (:meth:`_poll_replies`);
        reply payload bytes are credited to the *owning* call when its
        thread drains them.  Tasks whose worker died, hung past the
        deadline, or was replaced by another caller are returned as *lost*
        (:meth:`_check_lost_tasks`) — the caller decides whether to retry.
        """
        waiting = set(pending)
        lost: set[int] = set()
        while waiting:
            got = self._poll_replies(waiting)
            if not got:
                newly_lost = self._check_lost_tasks(pending, task_gens, waiting)
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
        """One bounded wait for replies to ``waiting`` tasks.

        Whichever caller currently holds the pump role drains the reply
        pipes and routes foreign replies to their owners' buffers;
        everyone else waits on the router condition and picks its own
        replies out of the buffer.  An empty list means a poll interval
        elapsed and the caller should run its liveness checks.
        """
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
                # Someone else is draining the reply pipes; wait for them
                # to route a reply (or for a poll interval to pass).
                self._reply_cond.wait(_POLL_SECONDS)
                _drain_buffers()
                return mine
            self._pump_busy = True
        try:
            try:
                batch = self._outbox.get(timeout=_POLL_SECONDS)
            except (queue_mod.Empty, OSError, ValueError):
                # Closed-queue errors during shutdown behave like a timeout;
                # the caller's liveness check surfaces the real state.
                return []
            # One message is one worker's batch: route each tail by task id.
            with self._reply_cond:
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
        self, pending: dict[int, tuple[int, int]], task_gens: dict[int, int], waiting: set[int]
    ) -> set[int]:
        """After an empty poll: is this call still going to get replies?

        Raises only when the pool was shut down.  A worker holding our
        tasks that died, hung past ``task_deadline`` (no heartbeat progress
        while its tasks are outstanding), or was already replaced by
        another caller is replaced in place and its task ids returned as
        lost — abandoned, so their straggler replies are dropped.
        """
        if self._closed:
            raise WorkerTaskError(
                "worker pool shut down while tasks were outstanding",
                exc_type="PoolClosed",
            )
        lost: set[int] = set()
        with self._reply_cond:
            dead: set[int] = set()
            active: set[int] = set()
            for task_id in waiting:
                worker = pending[task_id][1]
                if self._worker_gen[worker] != task_gens[task_id]:
                    lost.add(task_id)  # replaced under another caller
                elif not self._procs[worker].is_alive():
                    dead.add(worker)
                else:
                    active.add(worker)
            if self.task_deadline is not None:
                now = time.monotonic()
                for worker in active:
                    beat = self._heartbeat[worker]
                    if beat != self._hb_last[worker]:
                        self._hb_last[worker] = beat
                        self._hb_ts[worker] = now
                    elif now - self._hb_ts[worker] > self.task_deadline:
                        # Tasks outstanding, process alive, no progress for
                        # a whole deadline: hung (or its replies are going
                        # nowhere).  Same treatment as dead.
                        self._procs[worker].terminate()
                        dead.add(worker)
            for worker in dead:
                self._replace_worker(worker)
            for task_id in waiting:
                if pending[task_id][1] in dead:
                    lost.add(task_id)
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

    def _replace_worker(self, worker: int) -> None:
        """Spawn a replacement for a dead worker (caller holds _reply_cond).
        Its store starts *empty*: see ``_recovered_gen``."""
        self._procs[worker].join(timeout=1.0)
        self._worker_gen[worker] += 1
        if self._closed:
            return
        self._spawn_worker(worker)
        self._worker_funcs[worker] = set()
        self._hb_last[worker] = self._heartbeat[worker]
        self._hb_ts[worker] = time.monotonic()

    def _ensure_recovered(self, worker: int, call: _CallRecord) -> None:
        """Replay lineage onto a freshly replaced worker (dispatch-locked).

        Ships what the registry yields for the dead worker's share of the
        store.  Rebuild commands enqueue ahead of the caller's retried
        tasks on the same FIFO inbox, which is the whole ordering argument:
        by the time a retried task resolves a handle, the partition is
        resident again.  The stage rebuilds ship as one ``tasks`` batch
        whose replies are pre-abandoned (fire-and-forget); a rebuild that
        cannot even be dispatched falls back to :meth:`invalidate_store`.
        """
        gen = self._worker_gen[worker]
        if self._recovered_gen[worker] == gen:
            return
        self._recovered_gen[worker] = gen
        try:
            rebuilds: list[tuple] = []
            with self._store.lock:
                for command in self._store.replay(worker):
                    if command[0] == "pin":
                        self._ship(worker, command, len(command[-1]), call)
                        continue
                    _, name, version, part, fblob, args_blob = command
                    fid = self._ensure_func(
                        worker, fblob, call, f"stage-rebuild task for {name!r} v{version}"
                    )
                    task_id = self._task_counter
                    self._task_counter += 1
                    with self._reply_cond:
                        self._abandon_locked(task_id)
                    rebuilds.append((task_id, fid, args_blob, (name, version, part)))
            if rebuilds:
                self._ship(worker, ("tasks", rebuilds), sum(len(t[2]) for t in rebuilds), call)
        except Exception:
            # Last resort: the rebuild itself failed (unpicklable source,
            # broken queue).  Give up residency everywhere; callers fall
            # back to cold pins or the row backend.
            self.invalidate_store()

    def shutdown(self) -> None:
        """Terminate the workers immediately.  Idempotent.

        ``terminate`` rather than a graceful stop: a mid-flight abort must
        not wait for queued partitions.  The partition store dies with the
        workers; any caller still waiting in ``_collect`` surfaces a
        :class:`WorkerTaskError` on its next poll.  A worker that ignores
        SIGTERM for 2 seconds (wedged in a C extension, masked signals) is
        escalated to SIGKILL and joined again; the process handles are then
        released so repeated create/shutdown cycles leak neither zombies
        nor fds.
        """
        if not self._closed:
            self._closed = True
            self._store.clear()
            for proc in self._procs:
                proc.terminate()
            for proc in self._procs:
                proc.join(timeout=2.0)
            for proc in self._procs:
                if proc.is_alive():
                    proc.kill()
                    proc.join(timeout=2.0)
            for q in self._inboxes:
                q.close()
            self._outbox.close()
            for proc in self._procs:
                try:
                    proc.close()
                except ValueError:  # still running despite SIGKILL
                    pass

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()
