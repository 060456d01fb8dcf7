"""Shared fixtures for the benchmark harness.

One :class:`~repro.experiments.runner.ExperimentRunner` is shared by every
benchmark module in the session, and its result store points at a directory
shared *across* sessions (``.repro_cache/benchmarks`` at the repository
root, overridable with ``REPRO_CACHE_DIR``).  Each benchmark runs one
registered :class:`~repro.experiments.study.Study` from
:data:`~repro.experiments.studies.STUDIES`; figures 10-15 compile to
overlapping (workload × configuration) batches, so the first module to
execute pays for the simulations and the rest replay them from the store —
and because *every* simulation flows through the store (figure 16's
multiprogrammed pairs and the parameterised replacement study included,
each keyed by spec hash + code version), a *re-run* of the harness in a
fresh process re-executes **zero** simulations until the simulator's
sources change.

Set ``REPRO_JOBS=N`` to run store misses in N worker processes.

Each benchmark prints the reproduced figure as a text table — the same rows
and series the paper plots — and asserts the *shape* relationships the paper
reports (who wins, roughly by how much), not absolute numbers.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.experiments.runner import ExperimentRunner
from repro.experiments.store import CACHE_DIR_ENV, ResultStore
from repro.service.backends import resolve_jobs

#: Store shared by every benchmark session (unless REPRO_CACHE_DIR says otherwise).
_SHARED_CACHE_DIR = Path(__file__).resolve().parent.parent / ".repro_cache" / "benchmarks"


@pytest.fixture(scope="session")
def store() -> ResultStore:
    """The session-spanning persistent result store."""

    return ResultStore(os.environ.get(CACHE_DIR_ENV, _SHARED_CACHE_DIR))


@pytest.fixture(scope="session")
def runner(store) -> ExperimentRunner:
    """The shared full-scale experiment runner."""

    # resolve_jobs validates REPRO_JOBS up front: a typo'd value fails the
    # session with one clear line instead of a traceback mid-benchmark.
    return ExperimentRunner(
        jobs=resolve_jobs(),
        store=store,
    )
