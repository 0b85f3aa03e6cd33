"""Shared test fixtures."""

import contextlib
import signal

import pytest


@pytest.fixture
def time_budget():
    """``with time_budget(seconds): ...`` fails the test when the block overruns.

    An interval timer (SIGALRM) interrupts the block in this process, so no
    thread or process is started; the previous handler is restored after.
    """

    @contextlib.contextmanager
    def budget(seconds: float):
        def overrun(_signum, _frame):
            pytest.fail(f"time budget of {seconds} s exceeded", pytrace=False)

        previous = signal.signal(signal.SIGALRM, overrun)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    return budget
