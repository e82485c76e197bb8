"""Repository-wide pytest configuration: a global per-test timeout and the
hypothesis profile.

A hung pinned-worker pool used to stall the whole suite (and CI) until the
job-level timeout killed it with no indication of *which* test hung.  Every
test now runs under a SIGALRM-based watchdog — pure stdlib, so it works
without the pytest-timeout plugin — that raises an in-test ``TimeoutError``
with the offending test's name instead.

The budget is deliberately generous (the slowest legitimate tests are the
multi-process simulation integration runs): override it per environment with
``REPRO_TEST_TIMEOUT`` seconds, or set ``0`` to disable (e.g. when stepping
through a test under a debugger).

Property tests run under a profile with ``print_blob=True``: a failure prints
the ``@reproduce_failure`` line, so it reproduces from the log alone.
"""

from __future__ import annotations

import os
import signal
import threading

import pytest
from hypothesis import settings

settings.register_profile("repro", print_blob=True)
settings.load_profile("repro")

_DEFAULT_TIMEOUT_SECONDS = 300.0


def _timeout_seconds() -> float:
    raw = os.environ.get("REPRO_TEST_TIMEOUT", "")
    if not raw:
        return _DEFAULT_TIMEOUT_SECONDS
    try:
        value = float(raw)
    except ValueError:
        return _DEFAULT_TIMEOUT_SECONDS
    return max(0.0, value)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    timeout = _timeout_seconds()
    # SIGALRM only exists on POSIX and only fires in the main thread; in any
    # other situation run the test unguarded rather than break it.
    if (
        timeout <= 0
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    def _on_timeout(signum, frame):
        raise TimeoutError(
            f"test {item.nodeid} exceeded the global {timeout:.0f}s timeout "
            "(REPRO_TEST_TIMEOUT to adjust)"
        )

    previous = signal.signal(signal.SIGALRM, _on_timeout)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
