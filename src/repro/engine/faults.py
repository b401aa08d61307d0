"""Deterministic fault injection for the worker pool.

Chaos testing a multi-process engine is only useful when a failing run can
be replayed exactly, so every fault here is keyed by *dispatch counts* —
"worker 1's 3rd task" — never by wall-clock time or randomness.  Task
placement is deterministic (partition ``p`` always runs on worker
``p % workers``, commands run in inbox order), which makes a
:class:`FaultPlan` a complete, reproducible failure schedule: the same
plan against the same workload kills, delays, drops, or corrupts the same
task on every run.

Each worker process gets its share of a plan (``FaultPlan.for_worker``)
when it starts (``WorkerPool(fault_plan=...)``) and consults it around
every task it executes:

* ``kill_before`` — the process ``os._exit``\\ s before running its Nth
  task (its whole batch, and everything queued behind it, is lost: the "node
  crashed before the stage ran" case).
* ``kill_after``  — the process exits after running the Nth task but
  before its batch replies (work done, results lost: "crashed mid-reply" —
  for ``store_as`` stages the stored partition dies with the process).
* ``delay``       — the Nth task's reply is held for ``seconds`` (a hung
  or GC-stalled worker; trips the driver's deadline watchdog when the
  delay exceeds it).
* ``drop``        — the Nth task executes but its reply is swallowed (a
  lost message; indistinguishable from a hang to the driver, so the
  watchdog must catch it).
* ``corrupt``     — the Nth task's reply carries a garbage payload blob
  (bit-rot in transport; the driver must treat the undecodable reply as a
  lost task, not crash).

Faults fire on a specific worker *generation* (default 0, the initial
process), so a replacement worker spawned during recovery runs fault-free
unless the plan explicitly targets its generation — which is exactly what
the chaos suites need: inject one failure, then prove the system heals to
a byte-identical result.

Each fault fires **once**: the worker counts the tasks it has executed and
consumes the matching spec.  Counting is per-process, so a replacement
worker's count restarts at zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Fault kinds a :class:`FaultSpec` may name.
FAULT_KINDS = ("kill_before", "kill_after", "delay", "drop", "corrupt")


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault: ``kind`` on worker ``worker``'s ``nth`` task.

    ``nth`` is 1-based over the tasks that worker *executes* (pins,
    broadcasts, and evictions do not count).  ``seconds`` applies to
    ``delay`` only.  ``gen`` selects the worker generation the fault arms
    on: 0 (default) is the initial process, 1 its first replacement, and
    so on — recovery tests leave replacements at their default, fault-free.
    """

    worker: int
    kind: str
    nth: int
    seconds: float = 0.0
    gen: int = 0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            expected = ", ".join(repr(k) for k in FAULT_KINDS)
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {expected}"
            )
        if self.worker < 0:
            raise ValueError("fault worker index must be >= 0")
        if self.nth < 1:
            raise ValueError("fault nth is 1-based; got {self.nth}")
        if self.seconds < 0:
            raise ValueError("fault delay seconds must be >= 0")


@dataclass(frozen=True)
class FaultPlan:
    """A reproducible failure schedule for one :class:`~repro.engine.
    parallel.WorkerPool`.

    Build one with the fluent helpers and hand it to
    ``WorkerPool(fault_plan=plan)``::

        plan = (FaultPlan()
                .kill_before(worker=1, nth=2)     # crash before 2nd task
                .delay(worker=0, nth=5, seconds=3.0))

    Plans are immutable (each helper returns a new plan) and picklable —
    they cross the process boundary once at worker spawn.
    """

    specs: tuple[FaultSpec, ...] = field(default=())

    # -- fluent builders ----------------------------------------------- #
    def add(self, spec: FaultSpec) -> "FaultPlan":
        return FaultPlan(self.specs + (spec,))

    def kill_before(self, worker: int, nth: int, gen: int = 0) -> "FaultPlan":
        return self.add(FaultSpec(worker, "kill_before", nth, gen=gen))

    def kill_after(self, worker: int, nth: int, gen: int = 0) -> "FaultPlan":
        return self.add(FaultSpec(worker, "kill_after", nth, gen=gen))

    def delay(
        self, worker: int, nth: int, seconds: float, gen: int = 0
    ) -> "FaultPlan":
        return self.add(FaultSpec(worker, "delay", nth, seconds=seconds, gen=gen))

    def drop(self, worker: int, nth: int, gen: int = 0) -> "FaultPlan":
        return self.add(FaultSpec(worker, "drop", nth, gen=gen))

    def corrupt(self, worker: int, nth: int, gen: int = 0) -> "FaultPlan":
        return self.add(FaultSpec(worker, "corrupt", nth, gen=gen))

    # -- worker-side view ---------------------------------------------- #
    def for_worker(self, worker: int, gen: int) -> dict[int, FaultSpec]:
        """The ``{nth: spec}`` schedule one worker process enforces.

        At most one fault per task ordinal: when a plan names the same
        (worker, gen, nth) twice, the first spec wins — a schedule must
        stay unambiguous to stay replayable.
        """
        out: dict[int, FaultSpec] = {}
        for spec in self.specs:
            if spec.worker == worker and spec.gen == gen:
                out.setdefault(spec.nth, spec)
        return out

    def __bool__(self) -> bool:
        return bool(self.specs)
