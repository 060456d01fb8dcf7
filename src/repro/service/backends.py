"""Worker backends: where the scheduler's tasks actually execute.

The :class:`~repro.service.scheduler.Scheduler` never runs a simulation
itself — it hands picklable ``(fn, *args)`` calls to a
:class:`WorkerBackend` and consumes the returned futures.  Two backends
ship:

* :class:`InlineBackend` runs each call synchronously in the dispatch
  thread (the ``jobs == 1`` policy — no pool spawn cost, deterministic
  ordering);
* :class:`ProcessPoolBackend` fans calls out to a lazily created
  ``ProcessPoolExecutor`` (the ``jobs > 1`` policy — the pool spawns on
  the first submitted call, so a fully store-satisfied batch never pays
  for worker processes).

Anything satisfying the protocol — a remote-worker pool, a cluster client —
slots in without the scheduler changing: the backend is a constructor
argument, not scheduler code.

This module is also where worker counts are resolved and validated:
:func:`resolve_jobs` reads the ``REPRO_JOBS`` environment override, so a
typo'd value renders as a one-line CLI error instead of a traceback from
deep inside the scheduler.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor
from typing import Protocol, runtime_checkable


#: Environment variable supplying a default worker count for entry points
#: that take one (the CLI's ``--jobs``, the benchmark harness).
JOBS_ENV = "REPRO_JOBS"

#: How often a pool worker checks that the process feeding it still lives.
_PARENT_POLL_S = 0.5


def _positive_count(value, what: str) -> int:
    """Validate one worker count (already int-typed or int-like)."""

    try:
        count = int(value)
    except (TypeError, ValueError):
        raise ValueError(f"{what}: expected an integer, got {value!r}") from None
    if count < 1:
        raise ValueError(f"{what}: must be at least 1, got {count}")
    return count


def resolve_jobs(jobs: int | None = None) -> int:
    """The worker count for an invocation: explicit value, then env, then 1.

    The one place ``REPRO_JOBS`` is read, so a malformed value fails here
    with a ``ValueError`` naming the variable (the CLI renders that as a
    one-line exit-2 error) rather than as a traceback once a pool spawns.
    """

    if jobs is not None:
        return _positive_count(jobs, "--jobs")
    raw = os.environ.get(JOBS_ENV, "").strip()
    if not raw:
        return 1
    return _positive_count(raw, f"{JOBS_ENV}={raw!r}")


@runtime_checkable
class WorkerBackend(Protocol):
    """What the scheduler needs from an execution substrate.

    ``slots`` caps how many submitted calls may be in flight at once (the
    scheduler's dispatch loop never exceeds it); :meth:`submit` returns a
    ``concurrent.futures.Future`` resolving to the call's result; and
    :meth:`close` releases whatever the backend holds.  ``fn`` and its
    arguments must be picklable — process-based backends ship them to
    worker processes.
    """

    slots: int

    def submit(self, fn, /, *args) -> Future:
        """Run ``fn(*args)`` and return a future for its result."""
        ...  # pragma: no cover - protocol

    def close(self) -> None:
        """Release the backend's resources (idempotent)."""
        ...  # pragma: no cover - protocol


class InlineBackend:
    """Runs every call synchronously in the submitting (dispatch) thread.

    The returned future is already resolved, so the scheduler's completion
    path runs immediately — serial execution with zero thread or process
    overhead.
    """

    slots = 1

    def submit(self, fn, /, *args) -> Future:
        """Execute ``fn(*args)`` now; the future carries result or error."""

        future: Future = Future()
        future.set_running_or_notify_cancel()
        try:
            future.set_result(fn(*args))
        except BaseException as error:  # noqa: BLE001 - relayed via the future
            future.set_exception(error)
        return future

    def close(self) -> None:
        """Nothing to release."""


def _init_worker() -> None:
    """Make a pool worker exit with the process that created the pool.

    Forked workers inherit their parent's signal handlers — the daemon's
    SIGTERM handler starts a ``server.shutdown()`` that waits forever in a
    worker — and its open descriptors, so a worker outliving a killed
    parent keeps the daemon's socket and stdout pipe open.  Default signal
    handling plus a thread that exits once the parent is gone fixes both.
    """

    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    # Read here rather than passed in: under the forkserver start method a
    # worker's parent is the fork server, which exits with the pool's creator.
    parent = os.getppid()

    def watch_parent() -> None:
        while os.getppid() == parent:
            time.sleep(_PARENT_POLL_S)
        os._exit(1)

    threading.Thread(
        target=watch_parent, name="repro-parent-watch", daemon=True
    ).start()


class ProcessPoolBackend:
    """Fans calls out to ``jobs`` worker processes (created lazily).

    The pool spawns on the first :meth:`submit`, so schedulers whose every
    spec is satisfied from the store never pay for worker processes.
    Workers exit on their own once the process that created the pool dies
    (see :func:`_init_worker`).
    """

    def __init__(self, jobs: int) -> None:
        self.slots = _positive_count(jobs, "worker count")
        self._pool: ProcessPoolExecutor | None = None
        self._lock = threading.Lock()

    def submit(self, fn, /, *args) -> Future:
        """Submit ``fn(*args)`` to the (lazily created) process pool."""

        with self._lock:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.slots, initializer=_init_worker
                )
            pool = self._pool
        return pool.submit(fn, *args)

    def close(self) -> None:
        """Shut the pool down, waiting for in-flight work to finish."""

        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)


def backend_for_jobs(jobs: int) -> WorkerBackend:
    """The default backend for a worker count: inline at 1, a pool above."""

    jobs = _positive_count(jobs, "worker count")
    return InlineBackend() if jobs == 1 else ProcessPoolBackend(jobs)
