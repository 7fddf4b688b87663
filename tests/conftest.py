"""A time limit per test: a test that runs longer than ``LIMIT_S`` fails
with :class:`TestTimeLimit` instead of hanging the run.

The limit is a real-time interval timer, armed around each test's call
phase and disarmed after it, where the platform has ``signal.setitimer``
(not on Windows, where tests run without a limit).  ``TestTimeLimit`` is a
``BaseException``, so neither the code under test nor hypothesis, which
would run a hanging example again while it shrinks, catches it.
"""

from __future__ import annotations

import signal

import pytest

#: seconds; the slowest test takes about a tenth of this
LIMIT_S = 120


class TestTimeLimit(BaseException):
    """A test ran longer than ``LIMIT_S`` seconds."""

    __test__ = False  # not a test class for pytest to collect


if hasattr(signal, "setitimer"):

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_call(item):
        def expire(signum, frame):
            raise TestTimeLimit(f"{item.nodeid} ran longer than {LIMIT_S} s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, LIMIT_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
