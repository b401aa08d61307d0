"""The wire protocol: what runs in a worker process and what is pickled
to or from it.

A worker reads commands from its **inbox**, one pipe that only the driver
writes, one pickled command per message, and keeps a **partition store**
of named, versioned partitions.  Commands run in order — ``pin`` (store a
pickled partition), ``patch`` (store a resident partition plus a pickled
delta under a new version), ``tasks`` (run pickled functions over pickled
arguments, each task carrying its own function), ``evict`` /
``evict_all``.  Only ``tasks`` is answered, on a second pipe that only this
worker writes: a dispatch is one message each way per worker, a ``tasks``
batch out, and back one holding each task's tagged reply tail; every
other command is one-way, and a ``pin`` or ``patch`` that fails leaves its
error for the next task on that handle.  A worker that dies mid-batch
loses the batch's unsent replies, and the driver retries all of its
tasks.  Any top-level task argument that is a :class:`StoreRef` is
resolved to the stored object inside the worker before the function runs.

**Faithful errors** — an exception raised inside a worker travels back in
an *envelope* (not via exception pickling) and is re-raised on the
driver as the original exception where possible; an unpicklable exception
degrades to :class:`~repro.errors.WorkerTaskError` carrying the original
type name, message and worker traceback — never a bare ``PicklingError``.
The driver half of the protocol (:func:`start_worker`, :func:`recv_any`,
:func:`decode_reply`, ...) lives here too, so this module and the resident
exchange are the only places a blob is ever unpickled (lint E103).
"""

from __future__ import annotations

import contextlib
import gc
import multiprocessing.connection
import os
import pickle
import time
import traceback
import weakref
from typing import Any, Callable, Iterator, NamedTuple, Sequence

from .._records import Record
from ..errors import StaleHandleError, WorkerTaskError
from .gcpause import collector_paused

_MISSING = object()  # sentinel: distinguish "absent" from a stored None

#: Both ends of every pool's pipes in this process: a fork copies them all,
#: so a forked worker closes all but its own (see :func:`_worker_main`).
DRIVER_ENDS: weakref.WeakSet = weakref.WeakSet()

_OK = "ok"
_STORED = "stored"  # result kept worker-resident; only a handle returns
_STORED_RET = "stored_ret"  # kept worker-resident, its Staged report returned
_ERROR = "error"  # original exception survived a pickle round-trip
_OPAQUE = "error_opaque"  # it did not; ship (type name, message, traceback)


class StoreRef(Record, frozen=True):
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
    """Worker-side marker for a pinned blob that failed to unpickle (or,
    ``how``, a ``patch`` that failed to apply).

    Stored in place of the partition so the *next task touching it* can
    report the real cause (e.g. a class importable on the driver but not in
    the worker under the spawn start method) instead of a misleading
    evicted-handle error.  ``label`` names what the blob *was* — ``pinned
    partition 'name' vN part P`` — so the eventual error points at the
    offending object, not just at "a blob".
    """

    __slots__ = ("error", "label", "how")

    def __init__(self, error: str, label: str, how: str = "to unpickle"):
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
            raise StaleHandleError(
                f"{value.label} (handle {arg.name!r} v{arg.version} part {arg.part}) "
                f"failed {value.how} in the worker: {value.error}"
            )
        return value
    return arg


def _run_task(store: dict, fblob: bytes, label: str, args_blob: bytes, store_key: Any) -> tuple:
    """One task's reply tail: its result, kept under ``store_key`` or
    shipped back, or its failure envelope — nothing is raised.  ``label``
    names the pickled function ``fblob`` in the error if it fails to
    unpickle here."""
    try:
        try:
            func = pickle.loads(fblob)
        except Exception as exc:
            raise RuntimeError(f"{label} failed to unpickle in the worker: {exc!r}") from None
        args = pickle.loads(args_blob)
        resolved = tuple(_resolve_arg(store, a) for a in args)
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


def _commands(inbox: Any) -> Iterator[tuple]:
    """The inbox's commands, one per message, in order, until the driver's
    end closes."""
    with contextlib.suppress(EOFError):  # the driver has exited
        while True:
            yield pickle.loads(inbox.recv_bytes())


def _worker_main(inbox: Any, outbox: Any, worker_index: int, faults: dict, heartbeat: Any) -> None:
    """Worker-process loop: execute commands from this worker's inbox.

    The store maps ``(name, version, part)`` to the resident object.  A
    ``tasks`` batch runs in order, each task ``(task_id, fblob, label,
    args_blob, store_key)`` unpickling its own function; its reply tails go
    back in one message after the last task.  No exception may escape a
    task — every failure travels back as an envelope.  ``inbox`` and
    ``outbox`` are this worker's ends of its two pipes
    (:func:`start_worker`); the loop ends when the driver's end closes.

    ``heartbeat`` is a shared array the worker ticks on every command and
    after every task; the driver's deadline watchdog reads it to tell "hung"
    from "slowly working".  ``faults`` (tests only), this process's share of
    a :class:`~repro.engine.faults.FaultPlan`, schedules deterministic
    crashes/delays/drops/corruptions by this worker's task count.

    The cycle collector is paused from a command's arrival to its reply and
    enabled while the worker waits for the next one — enabled here first,
    because a worker forked inside a paused driver operation (the pool spawns
    lazily; a replacement is forked mid-recovery) inherits it disabled.
    """
    gc.enable()
    # A forked worker's copies of the driver's pipe ends: a sibling's inbox
    # reader held here would keep the driver's write to it from failing, and
    # an inbox writer (its own too) would keep its read from ending when the
    # driver dies.  Own ends are told by number, and errors ignored: a
    # driver thread may have been closing one when the fork copied it.
    own = (inbox.fileno(), outbox.fileno())
    for end in list(DRIVER_ENDS):
        with contextlib.suppress(OSError):
            if end.fileno() not in own:
                end.close()
    store: dict[tuple, Any] = {}
    executed = 0
    for cmd in _commands(inbox):
        with collector_paused():
            heartbeat[worker_index] += 1
            kind = cmd[0]
            if kind == "tasks":
                replies = []
                for task_id, fblob, label, args_blob, store_key in cmd[1]:
                    executed += 1
                    spec = faults.pop(executed, None)
                    if spec is not None and spec.kind == "kill_before":
                        os._exit(13)
                    reply = (task_id, *_run_task(store, fblob, label, args_blob, store_key))
                    heartbeat[worker_index] += 1
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
            elif kind == "evict":
                _, name, version = cmd
                for key in [k for k in store if k[0] == name and (version is None or k[1] == version)]:
                    del store[key]
            elif kind == "evict_all":
                store.clear()


# ---------------------------------------------------------------------- #
# Driver side: a worker's start, its pipes, and reading a reply tail
# ---------------------------------------------------------------------- #
def start_worker(ctx: Any, worker: int, gen: int, fault_plan: Any, heartbeat: Any) -> tuple:
    """Start worker ``worker`` on two new one-way pipes, its inbox and its
    reply path, all four ends in :data:`DRIVER_ENDS`; return its process,
    the inbox's write end and the reply pipe's read end.  The driver's
    copies of the worker's ends are closed once it holds them, so its death
    fails a write to its inbox and ends a read of its replies."""
    commands, inbox = ctx.Pipe(duplex=False)
    replies, reply_end = ctx.Pipe(duplex=False)
    DRIVER_ENDS.update((commands, inbox, replies, reply_end))
    faults = fault_plan.for_worker(worker, gen) if fault_plan else {}
    proc = ctx.Process(
        target=_worker_main, args=(commands, reply_end, worker, faults, heartbeat), daemon=True
    )
    proc.start()
    commands.close()
    reply_end.close()
    return proc, inbox, replies


def recv_any(readers: list, ended: Any, timeout: float) -> tuple[Any, list] | None:
    """``(reader, message)`` from whichever reply pipe has one; None after
    ``timeout``, at once when a pipe ends (it joins ``ended``), or when a
    shutdown closed them, so that the caller's liveness check runs."""
    try:
        ready = multiprocessing.connection.wait([r for r in readers if r not in ended], timeout)
    except (OSError, ValueError):
        return None
    for reader in ready:
        try:
            return reader, reader.recv()
        except (EOFError, OSError):  # its worker died, maybe mid-message
            ended.add(reader)
    return None


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
