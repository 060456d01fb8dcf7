"""Batch execution of run specs: the one-shot front on the scheduling core.

The :class:`BatchExecutor` is the middle layer between the experiment runner
(and the figure harness) and the simulator: callers declare every simulation
they need — single-core (workload × configuration) cells as
:class:`~repro.experiments.jobs.RunSpec` and multiprogrammed pairs as
:class:`~repro.experiments.jobs.MultiProgramSpec` — and submit the whole
batch, freely mixed, at once.

Since the service layer landed, the executor no longer owns a scheduling
implementation of its own: each ``run()`` is one job on a private
:class:`~repro.service.scheduler.Scheduler`, so the CLI's one-shot path and
the ``repro serve`` daemon exercise the same core.  The semantics are
unchanged:

1. the batch is deduplicated (figures share most of their cells),
2. what the :class:`~repro.experiments.store.ResultStore` holds replays,
3. misses run — in the submitting flow when ``jobs == 1``, otherwise on a
   process-pool backend whose workers rebuild everything from the pickled
   spec (see :func:`~repro.experiments.jobs.execute`), and
4. fresh results persist the moment they complete, so later batches,
   processes and benchmark sessions skip them.

Results are deterministic regardless of ``jobs``: every simulation is
independent and seeded, so where a spec executes cannot change its result.

This module also owns :func:`resolve_jobs` — the single validation point
for the ``REPRO_JOBS`` environment override, so a typo'd value renders as a
one-line CLI error instead of a traceback from deep inside the executor.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Sequence

from repro import obs
from repro.experiments.jobs import execute  # noqa: F401
from repro.experiments.store import Result, ResultStore, Spec

# ``execute`` is re-exported on purpose: this module is the scheduling
# layer's patch point for counting or faking executions (the scheduler
# resolves it through this namespace for every call it dispatches).

#: Environment variable supplying a default worker count for entry points
#: that take one (the CLI's ``--jobs``, the benchmark harness).
JOBS_ENV = "REPRO_JOBS"


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


@dataclass
class BatchExecutor:
    """Runs batches of specs against an optional store, optionally in parallel.

    ``store=None`` disables persistence (every spec is executed); ``jobs``
    caps the worker processes — ``1`` keeps everything in-process, and the
    pool backend spawns workers lazily, so a fully store-satisfied batch
    never pays for processes.  ``kernel`` selects the execution kernel for
    every miss (``None`` resolves to the fast kernel, or the
    ``REPRO_KERNEL`` environment override); it travels to workers with the
    spec, and never affects results or store keys — the kernels are
    bit-identical.
    """

    store: ResultStore | None = None
    jobs: int = 1
    kernel: str | None = None
    #: Phase/provenance breakdown of the most recent ``run()`` when
    #: telemetry is enabled (``None`` otherwise).
    last_telemetry: dict | None = None

    def run(self, specs: Sequence[Spec]) -> dict[Spec, Result]:
        """Execute a batch; returns a spec → result mapping for unique specs.

        ``specs`` may mix :class:`~repro.experiments.jobs.RunSpec` and
        :class:`~repro.experiments.jobs.MultiProgramSpec` entries; each maps
        to its own result type (:class:`~repro.sim.stats.SimulationStats`
        and :class:`~repro.sim.multiprogram.MultiProgramResult`).  A failing
        spec re-raises its original exception.

        With telemetry enabled the finished job's phase breakdown — per-spec
        wall time, store hits vs executions — lands on :attr:`last_telemetry`
        (``None`` otherwise, and when disabled).
        """

        from repro.service.scheduler import Scheduler

        self.last_telemetry = None
        with Scheduler(
            store=self.store, jobs=resolve_jobs(self.jobs), kernel=self.kernel
        ) as scheduler:
            job = scheduler.submit(specs)
            job.wait()
            if obs.enabled():
                self.last_telemetry = {
                    "job": job.id,
                    "provenance": dict(job.provenance),
                    **(job.telemetry or {}),
                }
            if job._errors:
                raise job._errors[0]
            return {spec: job.results[spec] for spec in job.specs}
