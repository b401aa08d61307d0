"""Exception hierarchy for the CleanM/CleanDB reproduction.

All library errors derive from :class:`ReproError` so callers can catch a
single base class at API boundaries.
"""

from __future__ import annotations

import codecs
from typing import Any


class ReproError(Exception):
    """Base class for every error raised by this library.

    ``location`` names where in an input file the error arose (``path:line``)
    when the message does not say it; the CLI prints it before the message.
    """

    location = ""


class ParseError(ReproError):
    """A CleanM query could not be tokenized or parsed.

    Carries the offending position so front ends can point at the query text.
    """

    def __init__(self, message: str, position: int = -1, line: int = -1):
        super().__init__(message)
        self.position = position
        self.line = line


class PlanningError(ReproError):
    """Query translation (comprehension, algebra, or physical) failed."""


class SchemaError(ReproError):
    """A referenced table/attribute does not exist or has the wrong type."""


class MonoidError(ReproError):
    """A value or operation violates the monoid laws it claims to satisfy."""


class BudgetExceededError(ReproError):
    """The simulated execution cost exceeded the cluster budget.

    This models the paper's "system fails to terminate / is non-interactive"
    outcomes (Table 5, Fig. 8b).  The partially-accumulated cost is kept so
    reports can show how far the plan got before being cut off.
    """

    def __init__(self, message: str, spent: float = 0.0, budget: float = 0.0):
        super().__init__(message)
        self.spent = spent
        self.budget = budget


class DataSourceError(ReproError):
    """A data source file is missing, corrupt, or in an unexpected format."""

    @classmethod
    def undecodable(cls, path: Any) -> "DataSourceError":
        """The error for a file that is not UTF-8, at the line of its first
        bad byte: a re-read in bounded chunks that only an error pays for.
        A chunk's held-back partial character holds no newline."""
        decoder, line = codecs.getincrementaldecoder("utf-8")(), 1
        with open(path, "rb") as handle:
            while True:
                chunk = handle.read(1 << 16)
                try:
                    decoder.decode(chunk, final=not chunk)
                except UnicodeDecodeError as exc:
                    line += exc.object.count(b"\n", 0, exc.start)
                    bad = exc.object[exc.start]
                    return cls(f"{path}:{line}: cannot decode byte 0x{bad:02x} as UTF-8 ({exc.reason})")
                if not chunk:
                    return cls(f"{path}: cannot decode as UTF-8")
                line += chunk.count(b"\n")


class UnsupportedOperationError(ReproError):
    """A system was asked to run an operation it does not implement.

    Used by the baselines, e.g. BigDansing has no term-validation support and
    its dedup is specific to the ``customer`` table (paper §8).
    """


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
    """A task referenced a worker-store handle whose partition is no longer
    (or never was) resident on the worker — evicted, superseded by a newer
    table version, or lost to a worker restart."""
