"""The wire protocol: what runs in a worker process and what is pickled
to or from it.

A worker owns a task queue and a **partition store** of named, versioned
partitions.  Commands arrive in queue order — ``pin`` (store a pickled
partition), ``patch`` (store a resident partition plus a pickled delta
under a new version), ``func`` (register a pickled callable under a
driver-assigned id), ``tasks`` (run registered functions over pickled
arguments), ``evict`` / ``evict_all`` / ``func_del`` / ``stop``.  Only
``tasks`` is answered: a dispatch is one message each way per worker, one
``tasks`` batch out, and back one message holding each task's tagged reply
tail; every other command is one-way, and a ``pin`` or ``patch`` that
fails leaves its error for the next task on that handle.  A worker that
dies mid-batch loses the batch's unsent replies, and the driver retries
all of its tasks.  Any top-level task argument that is a
:class:`StoreRef` is resolved to the stored object inside the worker
before the function runs.

**Faithful errors** — an exception raised inside a worker travels back in
an *envelope* (not via queue exception pickling) and is re-raised on the
driver as the original exception where possible; an unpicklable exception
degrades to :class:`~repro.errors.WorkerTaskError` carrying the original
type name, message and worker traceback — never a bare ``PicklingError``.
The driver half of the protocol (:class:`_Replies`, :func:`decode_reply`,
:func:`raise_failure`) lives here too, so this module and the resident
exchange are the only places a blob is ever unpickled (lint E103).
"""

from __future__ import annotations

import contextlib
import gc
import multiprocessing.connection
import os
import pickle
import queue
import time
import traceback
import weakref
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple, Sequence

from ..errors import StaleHandleError, WorkerTaskError
from .faults import FaultPlan
from .gcpause import collector_paused

_MISSING = object()  # sentinel: distinguish "absent" from a stored None

#: The pipe ends (inbox ends, reply readers) of every pool in this process:
#: a fork copies them all, so a forked worker closes all but its own.
DRIVER_ENDS: weakref.WeakSet = weakref.WeakSet()

_OK = "ok"
_STORED = "stored"  # result kept worker-resident; only a handle returns
_STORED_RET = "stored_ret"  # kept worker-resident, its Staged report returned
_ERROR = "error"  # original exception survived a pickle round-trip
_OPAQUE = "error_opaque"  # it did not; ship (type name, message, traceback)


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


def _fetch_task(part: Any) -> Any:
    """Identity task: materialize one stored partition on the driver."""
    return part


def _count(value: Any) -> int:
    """Record count of a partition-shaped value (-1 when it has none)."""
    return len(value) if hasattr(value, "__len__") else -1


def _failure_envelope(exc: BaseException) -> tuple:
    """Package a worker-side exception for transport to the driver.

    A pickle *round trip* (not just ``dumps``) is attempted: exceptions whose
    ``__reduce__`` succeeds but whose constructor rejects the pickled args
    would otherwise fail the reply's send and take the worker down.
    """
    tb = traceback.format_exc()
    try:
        pickle.loads(pickle.dumps(exc))
        return (_ERROR, exc, tb)
    except Exception:
        return (_OPAQUE, type(exc).__name__, str(exc), tb)


class _BrokenBlob:
    """Worker-side marker for a pin/func blob that failed to unpickle (or,
    ``how``, a ``patch`` that failed to apply).

    Stored in place of the object so the *next task touching it* can report
    the real cause (e.g. a class importable on the driver but not in the
    worker under the spawn start method) instead of a misleading
    evicted-handle or missing-function error.  ``label`` names what the
    blob *was* — the function's qualname or ``pin 'name' vN part P`` — so
    the eventual error points at the offending object, not just at "a
    blob".
    """

    __slots__ = ("error", "label", "how")

    def __init__(self, error: str, label: str = "", how: str = "to unpickle"):
        self.error = error
        self.label = label
        self.how = how


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
                f"failed {value.how} in the worker: {value.error}"
            )
        return value
    return arg


def _run_task(store: dict, funcs: dict, fid: int, args_blob: bytes, store_key: Any) -> tuple:
    """One task's reply tail: its result, kept under ``store_key`` or
    shipped back, or its failure envelope — nothing is raised."""
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
        if store_key is None:
            return (_OK, pickle.dumps(result))
        if isinstance(result, Staged):  # keep the value, report the counts
            store[store_key] = result.value
            return (_STORED_RET, _count(result.value), pickle.dumps(result.report))
        store[store_key] = result
        return (_STORED, _count(result))
    except Exception as exc:  # noqa: BLE001 - every task error must travel back
        return _failure_envelope(exc)


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
    function ships once per worker, not once per task).  A ``tasks`` batch
    runs in order; its reply tails go back in one message after the last
    task.  No exception may escape a task — every failure travels back as
    an envelope.  ``outbox`` is the write end of this worker's own reply
    pipe; the loop sends on it directly, with no feeder thread.

    ``heartbeat`` is a shared array the worker ticks on every command and
    after every task; the driver's deadline watchdog reads it to tell "hung"
    from "slowly working".  ``fault_plan`` (tests only) schedules
    deterministic crashes/delays/drops/corruptions by this worker's task
    count — see :mod:`repro.engine.faults`.

    The cycle collector is paused from a command's arrival to its reply and
    enabled while the worker waits for the next one — enabled here first,
    because a worker forked inside a paused driver operation (the pool spawns
    lazily; a replacement is forked mid-recovery) inherits it disabled.
    """
    gc.enable()
    # A forked worker's copies of the driver's pipe ends: a sibling's inbox
    # reader held here would keep the driver's write to it from failing.
    # Own ends are told by number, and errors ignored: a driver thread may
    # have been closing one when the fork copied it.
    own = (inbox._reader.fileno(), outbox.fileno())
    for end in list(DRIVER_ENDS):
        with contextlib.suppress(OSError):
            if end.fileno() not in own:
                end.close()
    store: dict[tuple, Any] = {}
    funcs: dict[int, Callable] = {}
    faults = fault_plan.for_worker(worker_index, gen) if fault_plan else {}
    executed = 0

    def beat() -> None:
        if heartbeat is not None:
            heartbeat[worker_index] += 1

    while True:
        cmd = inbox.get()
        with collector_paused():
            beat()
            kind = cmd[0]
            if kind == "tasks":
                replies = []
                for task_id, fid, args_blob, store_key in cmd[1]:
                    executed += 1
                    spec = faults.pop(executed, None)
                    if spec is not None and spec.kind == "kill_before":
                        os._exit(13)
                    reply = (task_id, *_run_task(store, funcs, fid, args_blob, store_key))
                    beat()
                    if spec is not None:
                        if spec.kind == "kill_after":
                            os._exit(13)
                        if spec.kind == "drop":
                            continue
                        if spec.kind == "delay":
                            time.sleep(spec.seconds)
                        if spec.kind == "corrupt":
                            reply = (task_id, _OK, b"\x00corrupt reply payload")
                    replies.append(reply)
                outbox.send(replies)
            elif kind == "pin":
                _, name, version, part, blob = cmd
                try:
                    store[(name, version, part)] = pickle.loads(blob)
                except Exception as exc:  # noqa: BLE001 - a bad blob must not
                    # kill the worker; the next task on this handle reports why
                    store[(name, version, part)] = _BrokenBlob(
                        repr(exc), label=f"pinned partition {name!r} v{version} part {part}"
                    )
            elif kind == "patch":
                # A fresh list: the old version's object is never mutated (a
                # stale handle must keep failing, not see the delta).  An
                # empty blob aliases the resident list under the new key.
                _, name, old, version, part, blob = cmd
                try:
                    value = _resolve_arg(store, StoreRef(name, old, part))
                    if blob:
                        appended, updates = pickle.loads(blob)
                        value = [*value, *appended]
                        for pos, row in updates:
                            value[pos] = row
                    store[(name, version, part)] = value
                except Exception as exc:  # noqa: BLE001 - as for a bad pin blob
                    store[(name, version, part)] = _BrokenBlob(
                        repr(exc), f"patched partition {name!r} v{version} part {part}", "to patch"
                    )
            elif kind == "func":
                _, fid, blob, label = cmd
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


# ---------------------------------------------------------------------- #
# Driver side: the reply pipes, and reading a reply tail ``(tag, ...)``
# ---------------------------------------------------------------------- #
def open_inbox(ctx: Any, old: Any = None) -> Any:
    """A worker's command queue, replacing ``old`` (a dead worker's, closed
    first: its feeder thread ends, at once if idle, else when its write
    fails).  The feeder neither blocks exit nor reports a failed write, and
    the queue's ends join :data:`DRIVER_ENDS`.  The caller closes the read
    end once the worker holds it."""
    if old is not None:
        old.close()
    inbox = ctx.Queue()
    inbox.cancel_join_thread()
    inbox._ignore_epipe = True
    DRIVER_ENDS.update((inbox._reader, inbox._writer))
    return inbox


class _Replies:
    """The driver's end of the reply pipes, one per worker: a worker killed
    mid-reply can stall or garble only its own pipe, which then reads as
    end-of-file (docs/ARCHITECTURE.md, "Scheduling")."""

    def __init__(self, ctx: Any, workers: int):
        self._ctx = ctx
        self._readers: list[Any] = [None] * workers
        self._ended: set[Any] = set()  # readers whose worker has died

    def open(self, worker: int) -> Any:
        """A new pipe for ``worker``; returns the end its process writes."""
        reader, writer = self._ctx.Pipe(duplex=False)
        DRIVER_ENDS.add(reader)
        self._ended.discard(self._readers[worker])
        self._readers[worker] = reader
        return writer

    def get(self, timeout: float) -> Any:
        """One message from any worker; ``queue.Empty`` after ``timeout``, or
        at once when a pipe ends, so that the caller's liveness check runs."""
        live = [r for r in self._readers if r not in self._ended]
        for reader in multiprocessing.connection.wait(live, timeout):
            try:
                return reader.recv()
            except (EOFError, OSError):  # its worker died, maybe mid-message
                self._ended.add(reader)
        raise queue.Empty

    def close(self) -> None:
        for reader in self._readers:
            reader.close()


def is_failure(reply: tuple) -> bool:
    """Whether a reply tail is a failure envelope (see :func:`raise_failure`)."""
    return reply[0] in (_ERROR, _OPAQUE)


def decode_reply(reply: tuple, store_as: tuple[str, int] | None, part: int) -> Any:
    """A successful reply tail as its task's result: the unpickled value, a
    :class:`StoreRef` to the partition stored under ``store_as``, or the
    ``(ref, report)`` pair of a :class:`Staged` one.  A payload that fails to
    unpickle (transport corruption) raises; the caller retries the task."""
    tag = reply[0]
    if tag == _OK:
        return pickle.loads(reply[1])
    ref = StoreRef(store_as[0], store_as[1], part, reply[1])
    return ref if tag == _STORED else (ref, pickle.loads(reply[2]))


def raise_failure(reply: tuple) -> None:
    """Re-raise a failure envelope: the original exception instance when it
    pickled, otherwise a :class:`WorkerTaskError` naming the original type.
    Either way the worker traceback is attached as ``worker_traceback``."""
    if reply[0] == _ERROR:
        _, exc, tb = reply
        exc.worker_traceback = tb
        raise exc
    _, type_name, message, tb = reply
    raise WorkerTaskError(
        f"{type_name} in worker: {message}",
        exc_type=type_name,
        worker_traceback=tb,
    )
