"""The engine's one rule about CPython's cycle collector: paused for the
span of one operation — a :class:`~repro.core.language.CleanDB` check or
query, one command in a worker, one CLI launch — and otherwise exactly as the
host left it.  An operation's intermediates are acyclic and die by reference
count; a collector pass in the middle of one re-inspects them for nothing
(docs/ARCHITECTURE.md, "The cycle collector").
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator


@contextmanager
def collector_paused() -> Iterator[None]:
    """No counter, lock or module state: a nested scope and a host running
    with the collector off both find it disabled and leave it so, and of two
    overlapping threads the one that paused it re-enables it when it ends,
    whoever is still inside — a paused stretch lasts no longer than the
    operation that began it, so overlap cannot starve the collector."""
    was = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was:
            gc.enable()
