"""Suite-wide plumbing: make the shared ``fixtures`` module importable, and
give every test body a time limit of its own.

pytest (rootdir mode, no ``__init__.py`` packages) puts each test file's
own directory on ``sys.path`` — not ``tests/`` itself.  Inserting it here
lets every suite do ``from fixtures import ...`` for the shared null-laden
data builders instead of re-declaring them per file.
"""

from __future__ import annotations

import signal
import sys
from pathlib import Path

import pytest

_TESTS_DIR = str(Path(__file__).parent)
if _TESTS_DIR not in sys.path:
    sys.path.insert(0, _TESTS_DIR)


#: Seconds one test body may run.  Past it the test fails with
#: ``TimeoutError`` and the suite goes on, so a stalled test (a pool waiting
#: for a reply that cannot come, say) costs one failure instead of the rest
#: of the run.  The slowest body takes a few seconds on a 2-core host.
TEST_SECONDS = 120


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item: pytest.Item):
    if not hasattr(signal, "SIGALRM"):  # no alarms on this platform
        yield
        return

    def expire(signum, frame):
        raise TimeoutError(f"{item.nodeid} ran past its {TEST_SECONDS} s limit")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_SECONDS)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
