"""Shared service-test helpers: condition polling instead of bare sleeps.

Service tests synchronize with background machinery (scheduler tasks,
subprocess servers, health probes).  A fixed ``time.sleep(x)`` is the
flaky way to do that — too short on a loaded CI box, wastefully long
everywhere else.  These helpers poll a *condition* with a deadline: they
return as soon as the condition holds and fail with the caller's message
(plus the last observed state) only at the deadline.
"""

import asyncio
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

#: generous ceiling — the point of polling is that the wait *ends early*
DEFAULT_TIMEOUT = 60.0
DEFAULT_INTERVAL = 0.01


def wait_until(
    predicate,
    timeout=DEFAULT_TIMEOUT,
    interval=DEFAULT_INTERVAL,
    message="condition not met",
):
    """Poll ``predicate()`` until truthy; return its value.

    Raises ``AssertionError`` with ``message`` at the deadline.  Use for
    any cross-thread/cross-process state ("server is up", "job is
    running") instead of a fixed sleep.
    """
    deadline = time.monotonic() + timeout
    while True:
        value = predicate()
        if value:
            return value
        if time.monotonic() >= deadline:
            raise AssertionError(f"{message} (after {timeout}s)")
        time.sleep(interval)


async def await_until(
    predicate,
    timeout=DEFAULT_TIMEOUT,
    interval=DEFAULT_INTERVAL,
    message="condition not met",
):
    """The asyncio twin of :func:`wait_until` (polls on the event loop)."""
    deadline = time.monotonic() + timeout
    while True:
        value = predicate()
        if value:
            return value
        if time.monotonic() >= deadline:
            raise AssertionError(f"{message} (after {timeout}s)")
        await asyncio.sleep(interval)


async def wait_job_state(job, state, timeout=DEFAULT_TIMEOUT):
    """Wait until an in-process :class:`~repro.service.jobs.Job` reaches
    ``state`` (most tests wait for "running": the blocker occupying the
    single worker slot)."""
    await await_until(
        lambda: job.state == state,
        timeout=timeout,
        message=f"job never reached {state!r} (state {job.state!r})",
    )


def spawn_server(store, *extra_args):
    """Start a real ``serve`` subprocess; returns ``(process, url)``.

    Binds port 0 and parses the startup banner, so tests never race a
    hard-coded port.  Extra CLI args pass through (e.g. ``"--procs",
    "1"`` or ``"--cache-size", "16"``).
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.experiments",
            "serve",
            "--port",
            "0",
            "--store",
            str(store),
            *extra_args,
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    banner = process.stdout.readline()
    assert "serving http://" in banner, banner
    url = banner.split()[1]
    return process, url
