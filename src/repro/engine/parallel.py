"""Real multi-process execution: stateful workers with a partition store.

The simulated :class:`~repro.engine.cluster.Cluster` models the paper's
10-node Spark deployment but runs every plan on one Python process.  This
module supplies the missing half: a :class:`WorkerPool` of real OS
processes.  Unlike a throwaway ``multiprocessing.Pool``, the workers are
*addressable and stateful* — each one owns a task queue and a **partition
store** of named, versioned partitions.  Data ships to a worker once (a
``pin``), and every later stage references it by :class:`StoreRef` handle;
stage outputs likewise stay worker-resident until the driver materializes
the final result.  This mirrors what Spark executors give CleanDB (§7):
RDD partitions stay in executor memory across the stages of a unified
cleaning query instead of being re-serialized per stage.

Design constraints, in order:

* **Determinism** — ``run()`` returns results in task-submission order, and
  task *i* (or the task for logical partition ``parts[i]``) always runs on
  worker ``part % workers`` — the worker that holds that partition — so a
  parallel stage that mirrors a serial stage's per-partition logic produces
  byte-identical output (the backend-parity and determinism tests rely on
  this).
* **Faithful errors** — an exception raised inside a worker is transported
  back in an *envelope* (not via queue exception pickling) and re-raised on
  the driver as the original exception where possible; an unpicklable
  exception degrades to :class:`WorkerTaskError` carrying the original type
  name, message, and worker traceback — never a bare ``PicklingError``.
* **Self-healing** — every pin, broadcast, and ``store_as`` stage records a
  driver-side *lineage recipe* (source partitions for pins, the producing
  task for stage outputs).  When a worker process dies — or hangs past the
  pool's ``task_deadline``, detected by a shared-memory heartbeat — only
  that worker is replaced and only *its* partitions are rebuilt from
  lineage onto the replacement; other workers' pins and other callers'
  state stay resident (``invalidate_store()`` is the last resort, taken
  only when a rebuild itself fails).  Tasks lost to the dead worker are
  re-dispatched under a bounded retry budget with linear backoff;
  only after the budget is exhausted does the caller see a
  :class:`WorkerTaskError` (``exc_type="RetriesExhausted"``).  Recovery is
  deterministic enough to test: a :class:`~repro.engine.faults.FaultPlan`
  injected at construction kills/delays/drops/corrupts specific tasks by
  dispatch count, and the chaos suites assert byte-identical results
  against fault-free oracles.
* **Observable transport** — every payload that crosses the process
  boundary (task args, pinned partitions, broadcasts, result blobs) is
  pre-pickled by the sender, so the pool counts exactly how many bytes and
  payloads each stage shipped (``bytes_shipped`` / ``ship_count``).  Handle
  -based stages ship a few hundred bytes where ship-per-task execution
  ships the whole table.  Accounting is *token-scoped*: each public call
  tallies its own transport and folds it into both the pool totals and the
  calling context's :class:`TransportCounters`, so interleaved callers
  never see each other's bytes (:class:`ShipLog` reads the context ledger,
  not the shared totals).
* **Concurrent callers** — the serving layer drives one pool from many
  threads.  Dispatch (shipping pins and task batches) is serialized by a
  FIFO ticket lock so each stage's commands land contiguously and fairly —
  stage-granularity interleaving, no head-of-line blocking across queries
  — while reply collection runs *outside* the lock: one caller at a time
  pumps the shared result queue and routes other callers' replies to them
  by task id, so worker compute for one query overlaps driver-side work
  for another.
* **Query-scoped aborts** — a failing or aborted call leaves the pool and
  every other caller's pinned state intact; ``shutdown()`` (an explicit
  lifecycle decision, e.g. ``CleanDB.close()``) terminates outstanding
  work immediately rather than waiting for queued partitions.

Task functions must be importable module-level callables and all task
arguments picklable — the executors' `supports` checks enforce this before
a plan is claimed.  Any top-level argument that is a :class:`StoreRef` is
resolved to the stored object inside the worker before the function runs.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.sharedctypes
import os
import pickle
import queue as queue_mod
import sys
import threading
import time
import traceback
from collections import OrderedDict
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Any, Callable, Iterable, NamedTuple, Sequence

from ..errors import ReproError
from .faults import FaultPlan

# Workers a pool gets when the caller enabled parallel execution without
# choosing a count.  Deliberately small: the test/CI machines have few cores
# and the point of the default is "really concurrent", not "fully loaded".
DEFAULT_WORKERS = 2

# How long the driver waits on the result queue before checking whether a
# worker with outstanding tasks has died.  Short enough that death detection
# plus lineage recovery keeps a recovered warm query within the 2x-overhead
# budget the fault benches assert.
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

_MISSING = object()  # sentinel: distinguish "absent" from a stored None

# Most-recently-used derived results (per pool) kept worker-resident.  Each
# entry can hold table-sized state (e.g. a DC check's extraction vectors
# plus a per-worker index broadcast), so a long-lived session sweeping many
# distinct constraints must not grow worker memory without bound: the
# least-recently-used entry's store partitions are evicted past this cap.
DERIVED_CACHE_LIMIT = 16

# Distinct task functions the registry keeps resident.  Functions are keyed
# by their pickled form, so re-created equivalent closures/partials collapse
# onto one entry; past the cap the least-recently-used function is dropped
# from the driver registry *and* the workers (``func_del``) and simply
# re-ships if it ever comes back.  A long-lived serving pool stays bounded
# no matter how many ad-hoc callables pass through it.
FUNC_REGISTRY_LIMIT = 128

_OK = "ok"
_STORED = "stored"  # result kept worker-resident; only a handle returns
_STORED_RET = "stored_ret"  # kept worker-resident *and* returned
_ERROR = "error"  # original exception survived a pickle round-trip
_OPAQUE = "error_opaque"  # it did not; ship (type name, message, traceback)


class WorkerTaskError(ReproError):
    """A task failed in a worker and its exception could not be transported
    — or the worker process itself died mid-task.

    Carries the worker-side exception type name and formatted traceback so
    the failure is still diagnosable on the driver.
    """

    def __init__(self, message: str, exc_type: str = "Exception", worker_traceback: str = ""):
        super().__init__(message)
        self.exc_type = exc_type
        self.worker_traceback = worker_traceback


class StaleHandleError(ReproError):
    """A task referenced a :class:`StoreRef` whose partition is no longer
    (or never was) resident on the worker — evicted, superseded by a newer
    table version, or lost to a worker restart."""


@dataclass(frozen=True)
class StoreRef:
    """A handle to one worker-resident partition.

    ``part`` is the logical partition index (the worker holding it is
    ``part % workers``); ``part == -1`` marks a *broadcast* — every worker
    holds its own copy and resolves the handle locally.  ``count`` is the
    record count when the stored object is sized (-1 otherwise); stages use
    it for cost accounting without fetching the data back.
    """

    name: str
    version: int
    part: int
    count: int = -1


class TransportCounters:
    """Per-context transport ledger: what *this* logical caller shipped.

    The pool credits every finished call to the :mod:`contextvars` ledger
    of the context it ran in, so two queries interleaving on one pool each
    read only their own bytes/ships/wall.  :class:`ShipLog` diffs this
    ledger; :func:`begin_transport_scope` installs a fresh one at the top
    of a serving query thread.
    """

    __slots__ = ("wall_seconds", "bytes_shipped", "ship_count", "retries")

    def __init__(self) -> None:
        self.wall_seconds = 0.0
        self.bytes_shipped = 0
        self.ship_count = 0
        self.retries = 0


_TRANSPORT: ContextVar[TransportCounters | None] = ContextVar(
    "repro_transport_counters", default=None
)


def _context_counters() -> TransportCounters:
    counters = _TRANSPORT.get()
    if counters is None:
        counters = TransportCounters()
        _TRANSPORT.set(counters)
    return counters


def begin_transport_scope() -> TransportCounters:
    """Give the current context its own fresh transport ledger.

    Threads spawned via ``asyncio.to_thread`` *copy* the submitting task's
    context, so sibling query threads would otherwise share (and race on)
    one inherited :class:`TransportCounters` object.  The serving layer
    calls this at the top of each query thread; single-threaded callers
    never need to — a ledger is created lazily on first use.
    """
    counters = TransportCounters()
    _TRANSPORT.set(counters)
    return counters


class _CallRecord:
    """Transport tally for one public pool call (one token's worth)."""

    __slots__ = ("bytes", "ships", "wall", "tasks", "retries")

    def __init__(self) -> None:
        self.bytes = 0
        self.ships = 0
        self.wall: float | None = None
        self.tasks = 0
        self.retries = 0


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


def _failure_envelope(exc: BaseException) -> tuple:
    """Package a worker-side exception for transport to the driver.

    A pickle *round trip* (not just ``dumps``) is attempted: exceptions whose
    ``__reduce__`` succeeds but whose constructor rejects the pickled args
    would otherwise explode inside the result queue's feeder thread.
    """
    tb = traceback.format_exc()
    try:
        pickle.loads(pickle.dumps(exc))
        return (_ERROR, exc, tb)
    except Exception:
        return (_OPAQUE, type(exc).__name__, str(exc), tb)


class _BrokenBlob:
    """Worker-side marker for a pin/func blob that failed to unpickle.

    Stored in place of the object so the *next task touching it* can report
    the real cause (e.g. a class importable on the driver but not in the
    worker under the spawn start method) instead of a misleading
    evicted-handle or missing-function error.  ``label`` names what the
    blob *was* — the function's qualname or ``pin 'name' vN part P`` — so
    the eventual error points at the offending object, not just at "a
    blob".
    """

    __slots__ = ("error", "label")

    def __init__(self, error: str, label: str = ""):
        self.error = error
        self.label = label


def _resolve_arg(store: dict, arg: Any) -> Any:
    """Swap a :class:`StoreRef` argument for the stored partition."""
    if isinstance(arg, StoreRef):
        key = (arg.name, arg.version, arg.part)
        try:
            value = store[key]
        except KeyError:
            raise StaleHandleError(
                f"no resident partition for handle {arg.name!r} "
                f"v{arg.version} part {arg.part} (evicted or invalidated)"
            ) from None
        if isinstance(value, _BrokenBlob):
            what = value.label or f"partition {arg.name!r}"
            raise StaleHandleError(
                f"{what} (handle {arg.name!r} v{arg.version} part {arg.part}) "
                f"failed to unpickle in the worker: {value.error}"
            )
        return value
    return arg


def _worker_main(
    inbox: Any,
    outbox: Any,
    worker_index: int = 0,
    gen: int = 0,
    fault_plan: FaultPlan | None = None,
    heartbeat: Any = None,
) -> None:
    """Worker-process loop: execute commands from this worker's own queue.

    The store maps ``(name, version, part)`` to the resident object; the
    function registry maps driver-assigned ids to unpickled callables (each
    function ships once per worker, not once per task).  No exception may
    escape a task — every failure travels back as an envelope.

    ``heartbeat`` is a shared array the worker ticks before and after every
    command; the driver's deadline watchdog reads it to tell "hung" from
    "slowly working".  ``fault_plan`` (tests only) schedules deterministic
    crashes/delays/drops/corruptions by this worker's task count — see
    :mod:`repro.engine.faults`.
    """
    store: dict[tuple, Any] = {}
    funcs: dict[int, Callable] = {}
    faults = fault_plan.for_worker(worker_index, gen) if fault_plan else {}
    executed = 0

    def beat() -> None:
        if heartbeat is not None:
            heartbeat[worker_index] += 1

    while True:
        cmd = inbox.get()
        beat()
        kind = cmd[0]
        if kind == "task":
            executed += 1
            spec = faults.pop(executed, None)
            if spec is not None and spec.kind == "kill_before":
                os._exit(13)
            _, task_id, fid, args_blob, store_key, returning = cmd
            try:
                args = pickle.loads(args_blob)
                resolved = tuple(_resolve_arg(store, a) for a in args)
                func = funcs[fid]
                if isinstance(func, _BrokenBlob):
                    what = func.label or f"task function {fid}"
                    raise RuntimeError(
                        f"{what} (function id {fid}) failed to unpickle in "
                        f"the worker: {func.error}"
                    )
                result = func(*resolved)
                if store_key is not None:
                    back = result if returning else _MISSING
                    if isinstance(result, Staged):  # keep the value, report the counts
                        result, back = result
                    store[store_key] = result
                    if back is _MISSING:
                        reply = (task_id, _STORED, _count(result))
                    else:
                        reply = (task_id, _STORED_RET, _count(result), pickle.dumps(back))
                else:
                    reply = (task_id, _OK, pickle.dumps(result))
            except Exception as exc:  # noqa: BLE001 - every task error must travel back
                reply = (task_id, *_failure_envelope(exc))
            if spec is not None:
                if spec.kind == "kill_after":
                    os._exit(13)
                if spec.kind == "drop":
                    beat()
                    continue
                if spec.kind == "delay":
                    time.sleep(spec.seconds)
                if spec.kind == "corrupt":
                    reply = (task_id, _OK, b"\x00corrupt reply payload")
            outbox.put(reply)
        elif kind == "pin":
            _, name, version, part, blob = cmd
            try:
                store[(name, version, part)] = pickle.loads(blob)
            except Exception as exc:  # noqa: BLE001 - a bad blob must not
                # kill the worker; the next task on this handle reports why
                store[(name, version, part)] = _BrokenBlob(
                    repr(exc), label=f"pinned partition {name!r} v{version} part {part}"
                )
        elif kind == "func":
            _, fid, blob = cmd[:3]
            label = cmd[3] if len(cmd) > 3 else ""
            try:
                funcs[fid] = pickle.loads(blob)
            except Exception as exc:  # noqa: BLE001 - tasks naming fid get
                # a diagnosable envelope instead of a dead worker
                funcs[fid] = _BrokenBlob(repr(exc), label=label)
        elif kind == "func_del":
            funcs.pop(cmd[1], None)
        elif kind == "evict":
            _, name, version = cmd
            for key in [k for k in store if k[0] == name and (version is None or k[1] == version)]:
                del store[key]
        elif kind == "evict_all":
            store.clear()
        elif kind == "stop":
            break


def _fetch_task(part: Any) -> Any:
    """Identity task: materialize one stored partition on the driver."""
    return part


def _count(value: Any) -> int:
    """Record count of a partition-shaped value (-1 when it has none)."""
    return len(value) if hasattr(value, "__len__") else -1


class Staged(NamedTuple):
    """A value and what the driver is told about it.  From :func:`run_chain`:
    the stage's output — kept in the worker's store under ``store_as``,
    shipped back otherwise — and the record count after each step.  From a
    step: its output and the count to report in place of ``len(output)``."""

    value: Any
    report: Any


def run_chain(steps: Sequence[tuple[Callable, tuple]], *parts: Any) -> Staged:
    """Worker task: one *stage* — narrow steps ``(func, args)`` run back to
    back over a partition, nothing stored or shipped between them.  The head
    step receives ``parts`` (the task's resolved handles, plus any
    per-partition arguments), every later step its predecessor's output."""
    value: Any = parts
    counts = []
    for i, (func, args) in enumerate(steps):
        value = func(*value, *args) if i == 0 else func(value, *args)
        if isinstance(value, Staged):
            value, count = value
        else:
            count = _count(value)
        counts.append(count)
    return Staged(value, tuple(counts))


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
        tasks is declared *hung*, terminated, and replaced (its partitions
        rebuilt from lineage, its tasks retried).  Must exceed the longest
        legitimate task; ``None`` (the default) disables the watchdog so
        only real process death triggers recovery.
    max_task_retries:
        How many times a task lost to a dead/hung worker is re-dispatched
        before the call fails with ``exc_type="RetriesExhausted"``.
    retry_backoff:
        Linear backoff step between retry rounds (attempt *n* sleeps
        ``retry_backoff * n`` seconds).

    Placement is deterministic: logical partition ``p`` (pinned or stored)
    lives on worker ``p % workers``, and a task for partition ``p`` runs on
    that same worker, so handles always resolve locally — there is no
    remote read path.

    The pool is safe to drive from multiple threads: dispatch is FIFO
    ticket-locked (fair stage interleaving), reply collection routes each
    caller its own task replies, and transport counters are credited per
    call to the caller's context ledger.
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
        self._outbox = self._ctx.Queue()
        self._inboxes: list[Any] = [None] * workers
        self._procs: list[Any] = [None] * workers
        # Bumped when worker ``w`` is replaced; a caller whose tasks were
        # queued against an older generation knows they are lost.
        self._worker_gen: list[int] = [0] * workers
        # Generation whose partition store has been rebuilt from lineage.
        # Lagging behind ``_worker_gen`` means the replacement is still
        # empty; the next dispatch touching it runs recovery first.
        self._recovered_gen: list[int] = [0] * workers
        # Liveness: each worker ticks its slot on every command; the driver
        # keeps the last value seen and when it last changed, and declares a
        # worker hung when a deadline passes with tasks outstanding and no
        # progress.  RawArray works under both fork (inherited) and spawn
        # (shipped through Process args).
        self._heartbeat = multiprocessing.sharedctypes.RawArray("Q", workers)
        self._hb_last: list[int] = [0] * workers
        self._hb_ts: list[float] = [time.monotonic()] * workers
        for w in range(workers):
            self._spawn_worker(w)
        self._closed = False
        # Dispatch serialization (FIFO across caller threads) and the small
        # guards for shared driver-side state.  ``_reply_cond`` protects the
        # reply router; ``_store_lock`` the pin/derived registries;
        # ``_stats_lock`` the pool-level counters.  Lock order, outermost
        # first: ``_dispatch_lock`` -> ``_store_lock`` -> ``_reply_cond``.
        self._dispatch_lock = _FairLock()
        self._store_lock = threading.RLock()
        self._stats_lock = threading.Lock()
        self._reply_cond = threading.Condition()
        # task_id -> reply tail, parked until its caller drains it.
        self._reply_buffers: OrderedDict[int, tuple] = OrderedDict()
        # Aborted/lost task ids whose late replies must be dropped.
        self._abandoned: OrderedDict[int, None] = OrderedDict()
        self._pump_busy = False  # one thread at a time drains the outbox
        # Function registry: keyed by the *pickled form* of the callable so
        # re-created equivalent closures map to the same id; LRU-bounded at
        # FUNC_REGISTRY_LIMIT with monotonically increasing ids (an evicted
        # id is never reused, so a stale worker entry can't alias).
        self._func_ids: OrderedDict[bytes, int] = OrderedDict()
        self._func_counter = 0
        self._worker_funcs: list[set[int]] = [set() for _ in range(workers)]
        # Driver-side view of the partition store: pinned/broadcast names
        # and their handles, plus the derived-result cache fast paths use
        # to skip whole stages on a warm store.
        self._pins: dict[tuple[str, int], list[StoreRef]] = {}
        self._pin_sizes: dict[tuple[str, int], int] = {}
        self._derived: dict[tuple, dict] = {}
        # Lineage: rebuild recipe per resident (name, version) in insertion
        # order — pins before the stages consuming them — so replaying a
        # prefix onto a replacement worker satisfies handle dependencies.
        self._lineage: OrderedDict[tuple[str, int], dict] = OrderedDict()
        self._task_counter = 0
        self._version_counter = 0
        # Observability: real time spent waiting on worker results, tasks
        # dispatched, and transport volume.  ``last_*`` describe the most
        # recently *finished* public call; under concurrency, per-op metrics
        # come from the context ledger (ShipLog), not these.
        self.wall_seconds_total = 0.0
        self.last_wall_seconds = 0.0
        self.tasks_dispatched = 0
        self.bytes_shipped_total = 0
        self.ship_count_total = 0
        self.last_bytes_shipped = 0
        self.last_ship_count = 0
        self.retries_total = 0
        self.last_retries = 0

    def _spawn_worker(self, worker: int) -> None:
        inbox = self._ctx.Queue()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(
                inbox,
                self._outbox,
                worker,
                self._worker_gen[worker],
                self.fault_plan,
                self._heartbeat,
            ),
            daemon=True,
        )
        proc.start()
        self._inboxes[worker] = inbox
        self._procs[worker] = proc

    # ------------------------------------------------------------------ #
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
        call.ships += 1

    def _finish_call(self, call: _CallRecord) -> None:
        """Fold one finished call into the pool totals, the ``last_*``
        snapshot, and the calling context's transport ledger."""
        with self._stats_lock:
            self.bytes_shipped_total += call.bytes
            self.ship_count_total += call.ships
            self.last_bytes_shipped = call.bytes
            self.last_ship_count = call.ships
            self.retries_total += call.retries
            self.last_retries = call.retries
            if call.wall is not None:
                self.wall_seconds_total += call.wall
                self.last_wall_seconds = call.wall
                self.tasks_dispatched += call.tasks
        counters = _context_counters()
        counters.bytes_shipped += call.bytes
        counters.ship_count += call.ships
        counters.retries += call.retries
        if call.wall is not None:
            counters.wall_seconds += call.wall

    def _ensure_func(
        self, worker: int, fblob: bytes, call: _CallRecord, label: str = ""
    ) -> int:
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

    # ------------------------------------------------------------------ #
    # Partition store
    # ------------------------------------------------------------------ #
    def pin(
        self, name: str, version: int, partitions: Sequence[Any]
    ) -> list[StoreRef]:
        """Ship partitions to their owning workers once; return handles.

        Partition ``p`` goes to worker ``p % workers``.  Commands on a
        worker's queue are processed in order, so a task dispatched after
        ``pin`` returns is guaranteed to see the stored partition.

        On a mid-loop serialization failure the already-shipped partitions
        are evicted before the error propagates — a partial pin must never
        strand unreferenced partitions in worker stores.
        """
        if self._closed:
            raise RuntimeError("worker pool is closed")
        call = _CallRecord()
        refs: list[StoreRef] = []
        nbytes = 0
        parts_list = list(partitions)
        try:
            with self._dispatch_lock:
                try:
                    for p, part in enumerate(parts_list):
                        blob = pickle.dumps(part)
                        self._ship(
                            p % self.workers, ("pin", name, version, p, blob), len(blob), call
                        )
                        nbytes += len(blob)
                        refs.append(StoreRef(name, version, p, _count(part)))
                except Exception:
                    for w in range(self.workers):
                        if self._procs[w].is_alive():
                            self._inboxes[w].put(("evict", name, version))
                    raise
            with self._store_lock:
                self._pins[(name, version)] = refs
                self._pin_sizes[(name, version)] = nbytes
                # Lineage holds *references* to the caller's partition rows
                # (which the facade keeps driver-side anyway), so a dead
                # worker's share of this pin can be re-shipped on demand.
                self._lineage[(name, version)] = {
                    "kind": "parts",
                    "partitions": parts_list,
                }
        finally:
            self._finish_call(call)
        return refs

    def broadcast(self, name: str, version: int, obj: Any) -> StoreRef:
        """Ship one object to *every* worker; the handle resolves locally."""
        if self._closed:
            raise RuntimeError("worker pool is closed")
        call = _CallRecord()
        try:
            blob = pickle.dumps(obj)
            with self._dispatch_lock:
                try:
                    for w in range(self.workers):
                        self._ship(w, ("pin", name, version, -1, blob), len(blob), call)
                except Exception:
                    for w in range(self.workers):
                        if self._procs[w].is_alive():
                            self._inboxes[w].put(("evict", name, version))
                    raise
            ref = StoreRef(name, version, -1, -1)
            with self._store_lock:
                self._pins[(name, version)] = [ref]
                self._pin_sizes[(name, version)] = len(blob) * self.workers
                self._lineage[(name, version)] = {"kind": "broadcast", "obj": obj}
        finally:
            self._finish_call(call)
        return ref

    def pinned(self, name: str, version: int) -> list[StoreRef] | None:
        """Handles of a previously pinned name/version, if still valid."""
        with self._store_lock:
            return self._pins.get((name, version))

    def pinned_versions(self, name: str) -> list[int]:
        """Every version of ``name`` the pin registry currently holds.

        The plan verifier's handle check: an empty list means cold (fine,
        pins rebuild on demand), while a non-empty list *missing* the
        driver's expected version means driver/store version skew.
        """
        with self._store_lock:
            return sorted(v for (n, v) in self._pins if n == name)

    def pinned_nbytes(self, name: str | None = None) -> int:
        """Serialized bytes resident under pinned name(s) — the store-memory
        figure the serving layer's LRU eviction governor budgets against.
        ``name=None`` totals every pin."""
        with self._store_lock:
            if name is None:
                return sum(self._pin_sizes.values())
            return sum(sz for (n, _v), sz in self._pin_sizes.items() if n == name)

    def adopt(
        self,
        name: str,
        version: int,
        refs: Sequence[StoreRef],
        partitions: Sequence[Any] | None = None,
    ) -> None:
        """Register task-produced resident partitions as a pin.

        ``run(store_as=...)`` leaves its output partitions in the worker
        stores but does not record them in the pin registry; adopting the
        returned refs makes the output addressable through :meth:`pinned`
        exactly as if it had been shipped with :meth:`pin` — this is how a
        delta patch promotes its result to the table's new version without
        the rows ever returning to the driver.

        ``partitions`` (optional) supplies the driver-side rows backing the
        adopted version so its lineage becomes a plain re-pin recipe.
        Without it the version keeps whatever stage lineage ``run``
        recorded — which references the *prior* version's handles, so it
        only survives worker death while that prior version is resident.
        Callers that hold the current rows anyway (the facade does) should
        pass them.
        """
        with self._store_lock:
            # No bytes crossed the boundary for the adopted version itself;
            # carry the prior version's footprint so the eviction governor
            # keeps seeing the table (deltas barely change its size).
            prior = [sz for (n, _v), sz in self._pin_sizes.items() if n == name]
            self._pins[(name, version)] = list(refs)
            if prior:
                self._pin_sizes[(name, version)] = max(prior)
            if partitions is not None:
                self._lineage[(name, version)] = {
                    "kind": "parts",
                    "partitions": list(partitions),
                }

    def evict(self, name: str, version: int | None = None) -> None:
        """Drop a pinned/broadcast name (one version or all of them) from
        every worker store, together with any derived results cached on top
        of it.  Idempotent; safe on a closed pool."""
        with self._store_lock:
            for key in [k for k in self._pins if k[0] == name and (version is None or k[1] == version)]:
                del self._pins[key]
                self._pin_sizes.pop(key, None)
            for key in [k for k in self._lineage if k[0] == name and (version is None or k[1] == version)]:
                del self._lineage[key]
            for key, payload in list(self._derived.items()):
                if key[1] == name and (version is None or key[2] == version):
                    for dep_name, dep_version in payload.get("store_names", ()):
                        self.evict(dep_name, dep_version)
                    self._derived.pop(key, None)
        if self._closed:
            return
        for w in range(self.workers):
            if self._procs[w].is_alive():
                self._inboxes[w].put(("evict", name, version))

    def derived(self, key: tuple) -> dict | None:
        """Driver-side cache payload for a derived result (warm path)."""
        with self._store_lock:
            payload = self._derived.get(key)
            if payload is not None:
                # LRU touch: re-insert at the back of the (ordered) dict.
                self._derived[key] = self._derived.pop(key)
            return payload

    def register_derived(self, key: tuple, payload: dict) -> None:
        """Cache a derived result keyed ``(kind, base_name, base_version,
        ...)``.  ``payload["store_names"]`` lists the ``(name, version)``
        store entries it owns; evicting the base evicts them too.  The
        cache is bounded at :data:`DERIVED_CACHE_LIMIT` entries — the
        least-recently-used entry (and its worker-resident state) is
        evicted past the cap."""
        with self._store_lock:
            self._derived[key] = payload
            while len(self._derived) > DERIVED_CACHE_LIMIT:
                oldest_key = next(iter(self._derived))
                oldest = self._derived.pop(oldest_key)
                for dep_name, dep_version in oldest.get("store_names", ()):
                    self.evict(dep_name, dep_version)

    def invalidate_store(self) -> None:
        """Forget every pin, broadcast, derived result, and lineage recipe
        — and clear the surviving workers' stores.  The *last resort* of
        the recovery path: taken only when rebuilding a dead worker's
        partitions from lineage itself fails, never as the first response
        to a death."""
        with self._store_lock:
            self._pins.clear()
            self._pin_sizes.clear()
            self._derived.clear()
            self._lineage.clear()
        if self._closed:
            return
        for w in range(self.workers):
            if self._procs[w].is_alive():
                self._inboxes[w].put(("evict_all",))

    def fetch(self, refs: Sequence[StoreRef]) -> list[Any]:
        """Materialize stored partitions on the driver (final results)."""
        return self.run(_fetch_task, [(ref,) for ref in refs])

    def run_stage(
        self,
        steps: Sequence[tuple[Callable, tuple]],
        inputs: Sequence[Any],
        store_as: tuple[str, int] | None = None,
        parts: Sequence[int] | None = None,
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

    # ------------------------------------------------------------------ #
    # Task execution
    # ------------------------------------------------------------------ #
    def run(
        self,
        func: Callable,
        args_list: Iterable[Sequence[Any]],
        store_as: tuple[str, int] | None = None,
        parts: Sequence[int] | None = None,
        returning: bool = False,
    ) -> list[Any]:
        """Run ``func(*args)`` for each args tuple; results in submission order.

        Any top-level :class:`StoreRef` argument is resolved to the resident
        object inside the worker.  Task *i* targets logical partition
        ``parts[i]`` when given, else the partition of its first handle
        argument, else ``i`` — and always runs on that partition's worker.

        With ``store_as=(name, version)``, each task's result stays
        worker-resident under its partition index and a :class:`StoreRef`
        (carrying the result's record count) is returned instead; add
        ``returning=True`` to get ``(ref, result)`` pairs when the driver
        needs the value too (e.g. to build a global index).  A :class:`Staged`
        result keeps its ``value`` and always returns ``(ref, report)``.

        The first failing task's exception is re-raised on the driver — the
        original exception instance when it pickles, otherwise a
        :class:`WorkerTaskError` naming the original type.  Either way the
        worker traceback is attached as ``exc.worker_traceback``.

        A worker process dying (or hanging past ``task_deadline``) mid-batch
        is *recovered from*, not surfaced: the worker is replaced, its
        partitions rebuilt from lineage, and the lost tasks re-dispatched —
        up to ``max_task_retries`` times with linear backoff.  A reply whose
        payload fails to unpickle on the driver (transport corruption) is
        retried the same way.  Only an exhausted retry budget raises
        :class:`WorkerTaskError` (``exc_type="RetriesExhausted"``).
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
        task_parts = [
            self._part_for(args, i, parts) for i, args in enumerate(tasks)
        ]
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
                with self._dispatch_lock:
                    for i in outstanding:
                        part = task_parts[i]
                        worker = part % self.workers
                        self._ensure_recovered(worker, call)
                        fid = self._ensure_func(worker, fblob, call, flabel)
                        blob = pickle.dumps(tasks[i])
                        task_id = self._task_counter
                        self._task_counter += 1
                        store_key = (
                            (store_as[0], store_as[1], part) if store_as else None
                        )
                        self._ship(
                            worker,
                            ("task", task_id, fid, blob, store_key, returning),
                            len(blob),
                            call,
                        )
                        pending[task_id] = (i, worker)
                        task_gens[task_id] = self._worker_gen[worker]
                        if store_as is not None and attempt == 0:
                            self._record_stage(store_as, part, fblob, blob)
                    call.tasks += len(outstanding)
                # Fresh deadline window for the workers we just loaded, so
                # a long pre-dispatch idle can't read as "already hung".
                if self.task_deadline is not None:
                    now = time.monotonic()
                    with self._reply_cond:
                        for worker in {w for _i, w in pending.values()}:
                            self._hb_ts[worker] = max(self._hb_ts[worker], now)
                lost = self._collect(pending, task_gens, replies, call)
                retry_indices = [pending[task_id][0] for task_id in lost]
                for task_id, reply in replies.items():
                    index = pending[task_id][0]
                    tag = reply[0]
                    if tag == _OK:
                        try:
                            results[index] = pickle.loads(reply[1])
                        except Exception:
                            retry_indices.append(index)  # corrupt payload
                    elif tag == _STORED:
                        results[index] = StoreRef(
                            store_as[0], store_as[1], task_parts[index], reply[1]
                        )
                    elif tag == _STORED_RET:
                        try:
                            value = pickle.loads(reply[2])
                        except Exception:
                            retry_indices.append(index)  # corrupt payload
                            continue
                        ref = StoreRef(
                            store_as[0], store_as[1], task_parts[index], reply[1]
                        )
                        results[index] = (ref, value)
                    elif failure is None or index < failure[0]:
                        failure = (index, reply)
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
            self._raise_failure(failure[1])
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
        self,
        pending: dict[int, tuple[int, int]],
        task_gens: dict[int, int],
        replies: dict[int, tuple],
        call: _CallRecord,
    ) -> set[int]:
        """Gather replies for pending tasks; return the ids lost to death.

        Concurrent calls share one result queue: whichever caller currently
        holds the pump role drains it and routes foreign replies to their
        owners' buffers; everyone else waits on the router condition and
        picks its own replies out of the buffer.  Reply payload bytes are
        credited to the *owning* call when its thread drains them.

        Tasks whose worker died, hung past the deadline, or was replaced by
        another caller are returned as *lost* (their ids pre-abandoned so a
        straggler reply is dropped) — the caller decides whether to retry.
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

        Returns any of *our* replies that arrived (possibly drained by
        another thread's pump into our buffer); an empty list means a poll
        interval elapsed and the caller should run its liveness checks.
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
                # Someone else is draining the shared outbox; wait for them
                # to route a reply (or for a poll interval to pass).
                self._reply_cond.wait(_POLL_SECONDS)
                _drain_buffers()
                return mine
            self._pump_busy = True
        try:
            try:
                reply = self._outbox.get(timeout=_POLL_SECONDS)
            except (queue_mod.Empty, OSError, ValueError):
                # Closed-queue errors during shutdown behave like a timeout;
                # the caller's liveness check surfaces the real state.
                return []
            task_id = reply[0]
            if task_id in waiting:
                return [(task_id, tuple(reply[1:]))]
            with self._reply_cond:
                if self._abandoned.pop(task_id, _MISSING) is _MISSING:
                    self._reply_buffers[task_id] = tuple(reply[1:])
                    while len(self._reply_buffers) > REPLY_BUFFER_LIMIT:
                        self._reply_buffers.popitem(last=False)
                # else: late reply for an aborted/lost task — drop it
            return []
        finally:
            with self._reply_cond:
                self._pump_busy = False
                self._reply_cond.notify_all()

    def _check_lost_tasks(
        self,
        pending: dict[int, tuple[int, int]],
        task_gens: dict[int, int],
        waiting: set[int],
    ) -> set[int]:
        """After an empty poll: is this call still going to get replies?

        Raises only when the pool was shut down.  A worker holding our
        tasks that died, hung past ``task_deadline`` (no heartbeat progress
        while its tasks are outstanding), or was already replaced by
        another caller is handled in place: the process is replaced and the
        affected task ids returned as lost — abandoned so their straggler
        replies are dropped — for the caller's retry loop to re-dispatch.
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
        """Mark one task's reply as to-be-dropped (caller holds _reply_cond).

        The set is LRU-bounded: an abandoned task whose reply never arrives
        (its worker died) ages out instead of living forever.
        """
        self._abandoned[task_id] = None
        self._abandoned.move_to_end(task_id)
        while len(self._abandoned) > ABANDONED_LIMIT:
            self._abandoned.popitem(last=False)
        self._reply_buffers.pop(task_id, None)

    def _replace_worker(self, worker: int) -> None:
        """Spawn a replacement for a dead worker (caller holds _reply_cond).

        The replacement starts with an *empty* store — ``_recovered_gen``
        now lags ``_worker_gen``, and the next dispatch targeting this
        worker replays lineage onto it first (:meth:`_ensure_recovered`).
        """
        self._procs[worker].join(timeout=1.0)
        self._worker_gen[worker] += 1
        if self._closed:
            return
        self._spawn_worker(worker)
        self._worker_funcs[worker] = set()
        self._hb_last[worker] = self._heartbeat[worker]
        self._hb_ts[worker] = time.monotonic()

    def _record_stage(
        self, store_as: tuple[str, int], part: int, fblob: bytes, args_blob: bytes
    ) -> None:
        """Remember the producing task of one stored stage partition.

        Re-running ``func(*args)`` on a replacement worker regenerates the
        partition (tasks are deterministic; handle args resolve against the
        lineage replayed before it).  Multiple ``run`` calls targeting one
        ``store_as`` (delta patches) merge into one recipe.
        """
        with self._store_lock:
            entry = self._lineage.get(store_as)
            if entry is None:
                entry = {"kind": "stage", "tasks": {}}
                self._lineage[store_as] = entry
            if entry["kind"] == "stage":
                entry["tasks"][part] = (fblob, args_blob)

    def _ensure_recovered(self, worker: int, call: _CallRecord) -> None:
        """Replay lineage onto a freshly replaced worker (dispatch-locked).

        Only the dead worker's share of each resident (name, version) is
        rebuilt — pins and broadcasts re-ship from driver-held state, stage
        partitions re-run their recorded producing task.  Rebuild commands
        enqueue ahead of the caller's retried tasks on the same FIFO inbox,
        which is the whole ordering argument: by the time a retried task
        resolves a handle, the partition is resident again.  Stage-rebuild
        replies are pre-abandoned (fire-and-forget); a rebuild that cannot
        even be dispatched falls back to :meth:`invalidate_store`.
        """
        gen = self._worker_gen[worker]
        if self._recovered_gen[worker] == gen:
            return
        self._recovered_gen[worker] = gen
        try:
            with self._store_lock:
                for (name, version), recipe in list(self._lineage.items()):
                    kind = recipe["kind"]
                    if kind == "broadcast":
                        blob = pickle.dumps(recipe["obj"])
                        self._ship(
                            worker, ("pin", name, version, -1, blob), len(blob), call
                        )
                    elif kind == "parts":
                        partitions = recipe["partitions"]
                        for p in range(worker, len(partitions), self.workers):
                            blob = pickle.dumps(partitions[p])
                            self._ship(
                                worker, ("pin", name, version, p, blob), len(blob), call
                            )
                    else:  # stage
                        for p, (fblob, args_blob) in recipe["tasks"].items():
                            if p % self.workers != worker:
                                continue
                            fid = self._ensure_func(
                                worker, fblob, call,
                                f"stage-rebuild task for {name!r} v{version}",
                            )
                            task_id = self._task_counter
                            self._task_counter += 1
                            with self._reply_cond:
                                self._abandon_locked(task_id)
                            self._ship(
                                worker,
                                ("task", task_id, fid, args_blob, (name, version, p), False),
                                len(args_blob),
                                call,
                            )
        except Exception:
            # Last resort: the rebuild itself failed (unpicklable source,
            # broken queue).  Give up residency everywhere; callers fall
            # back to cold pins or the row backend.
            self.invalidate_store()

    def _raise_failure(self, reply: tuple) -> None:
        tag = reply[0]
        if tag == _ERROR:
            _, exc, tb = reply
            exc.worker_traceback = tb
            raise exc
        _, type_name, message, tb = reply
        raise WorkerTaskError(
            f"{type_name} in worker: {message}",
            exc_type=type_name,
            worker_traceback=tb,
        )

    # ------------------------------------------------------------------ #
    def shutdown(self) -> None:
        """Terminate the workers immediately.  Idempotent.

        Uses ``terminate`` rather than a graceful stop so that a mid-flight
        abort (driver error, service teardown) does not wait for queued
        partitions to finish.  The partition store dies with the workers.
        Any caller still waiting in ``_collect`` surfaces a
        :class:`WorkerTaskError` on its next poll.

        A worker that ignores SIGTERM for 2 seconds (wedged in a C
        extension, masked signals) is escalated to SIGKILL and joined
        again; the process handles are then released so repeated
        create/shutdown cycles leak neither zombies nor fds.
        """
        if not self._closed:
            self._closed = True
            with self._store_lock:
                self._pins.clear()
                self._pin_sizes.clear()
                self._derived.clear()
                self._lineage.clear()
            for proc in self._procs:
                proc.terminate()
            for proc in self._procs:
                proc.join(timeout=2.0)
            for proc in self._procs:
                if proc.is_alive():
                    proc.kill()
                    proc.join(timeout=2.0)
            for q in [*self._inboxes, self._outbox]:
                q.close()
                q.cancel_join_thread()
            for proc in self._procs:
                try:
                    proc.close()
                except ValueError:  # still running despite SIGKILL
                    pass

    # ------------------------------------------------------------------ #
    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else "open"
        return (
            f"<WorkerPool workers={self.workers} {self.start_method} {state} "
            f"pins={len(self._pins)}>"
        )


class ShipLog:
    """Delta-reader over the *calling context's* transport ledger.

    Stages bracket their pool calls with a ``ShipLog`` and attach
    ``take()`` to ``record_op`` — measured wall seconds, bytes shipped, and
    payload count for exactly that stage.  The ledger is per-context
    (see :class:`TransportCounters`), so two queries interleaving on one
    shared pool each read only their own transport; single-threaded use is
    unchanged.
    """

    def __init__(self, pool: WorkerPool):
        self.pool = pool
        self._counters = _context_counters()
        self.reset()

    def reset(self) -> None:
        counters = self._counters
        self._wall = counters.wall_seconds
        self._bytes = counters.bytes_shipped
        self._ships = counters.ship_count
        self._retries = counters.retries

    def take(self) -> dict[str, Any]:
        """Counter deltas since construction/last take, as record_op kwargs."""
        counters = self._counters
        out = {
            "wall_seconds": counters.wall_seconds - self._wall,
            "bytes_shipped": counters.bytes_shipped - self._bytes,
            "ship_count": counters.ship_count - self._ships,
            "retries": counters.retries - self._retries,
        }
        self.reset()
        return out


def is_picklable(obj: Any) -> bool:
    """Whether ``obj`` survives a pickle round trip (task-shippable)."""
    try:
        pickle.loads(pickle.dumps(obj))
        return True
    except Exception:
        return False


def is_module_level_callable(func: Any) -> bool:
    """Whether ``func`` pickles *by reference* — the static fast path.

    Pickle ships plain functions as ``module.qualname`` references, so a
    module-level def is shippable iff its qualname resolves back to the
    same object; lambdas and closures (``<lambda>``/``<locals>`` in the
    qualname) never are.  This answers without serializing anything,
    replacing a pickle round trip per probe.
    """
    if not callable(func):
        return False
    qualname = getattr(func, "__qualname__", None)
    module = getattr(func, "__module__", None)
    if not qualname or not module:
        return False
    if "<lambda>" in qualname or "<locals>" in qualname:
        return False
    obj: Any = sys.modules.get(module)
    if obj is None:
        return False
    for part in qualname.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return False
    return obj is func


#: Builtin container/scalar types whose instances always pickle, provided
#: their elements do — the type-walk below recurses into them.
_SHIPPABLE_SCALARS = (str, bytes, bool, int, float, complex, type(None))
_SHIPPABLE_CONTAINERS = (list, tuple, set, frozenset)


def rows_statically_shippable(rows: Any, sample: int = 256) -> bool:
    """Whether a table's rows can cross the process boundary — statically.

    The legacy probe (``is_picklable(rows)``) serialized the entire table
    just to answer yes/no; this walk types-check a sampled prefix instead:
    builtin scalars and containers of them always pickle, and only rows
    holding exotic values pay an actual per-row pickle probe.  Sampling is
    sound for the engine's use: a False here merely routes the plan to the
    serial path, and a True is re-validated by the pin itself (a failing
    pin falls back identically — see ``CleanDB._sync_pin``).
    """
    if not isinstance(rows, list):
        return is_picklable(rows)
    for row in rows[:sample]:
        if not _value_shippable(row):
            return False
    return True


def _value_shippable(value: Any, depth: int = 6) -> bool:
    if isinstance(value, _SHIPPABLE_SCALARS):
        return True
    if depth <= 0:
        return is_picklable(value)
    if isinstance(value, dict):
        return all(
            _value_shippable(k, depth - 1) and _value_shippable(v, depth - 1)
            for k, v in value.items()
        )
    if isinstance(value, _SHIPPABLE_CONTAINERS):
        return all(_value_shippable(v, depth - 1) for v in value)
    # Exotic value (custom class, callable, file handle...): one real probe.
    return is_picklable(value)
