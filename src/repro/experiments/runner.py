"""The experiment runner: (workload × configuration) matrices of simulations.

Execution flows through three layers (spec → scheduler → store):

* every simulation is first described as an immutable spec — single-core
  cells as a :class:`~repro.experiments.jobs.RunSpec` (workload,
  configuration, call-time configuration parameters, full system
  parameters, trace overrides, warm-up, access cap) and multiprogrammed
  pairs as a :class:`~repro.experiments.jobs.MultiProgramSpec`;
* :meth:`ExperimentRunner.run_matrix` (and
  :meth:`ExperimentRunner.submit`, which also accepts multiprogram specs)
  submits whole batches to a one-shot
  :class:`~repro.service.scheduler.Scheduler`, which dedupes specs,
  satisfies what it can from the store, and runs the misses — in parallel
  worker processes when ``jobs > 1``;
* completed runs land in the persistent
  :class:`~repro.experiments.store.ResultStore` under ``.repro_cache/``
  (keyed by spec content hash + code-version salt), so figures 10-15 — which
  all plot the same underlying runs — share work, and *later processes*
  (benchmark sessions, CLI invocations) skip completed simulations entirely.

Every configuration is resolved through the unified
:data:`~repro.experiments.configs.CONFIGS` registry, in which each entry
uniformly accepts (possibly empty) call-time parameters; the parameters
fold into the spec, so *every* run — the replacement study's capped
variants included — persists and parallelises identically.  Traces are
memoised per process, since generation is deterministic and cheap relative
to simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.analysis.metrics import normalized_table
from repro.experiments.configs import CONFIGS
from repro.experiments.jobs import (
    MultiProgramSpec,
    RunSpec,
    _freeze,
    trace_for_workload,
)
from repro.experiments.jobs import clear_trace_memo as jobs_clear_trace_memo
from repro.experiments.store import Result, ResultStore, Spec, default_store
from repro.service.scheduler import Scheduler
from repro.sim.config import SystemConfig
from repro.sim.multiprogram import MultiProgramResult
from repro.sim.stats import SimulationStats
from repro.workloads.registry import generate_workload
from repro.workloads.trace import Trace


def clear_caches() -> None:
    """Drop the process-local trace memo *and* the persistent default store."""

    jobs_clear_trace_memo()
    default_store().clear()


@dataclass
class ExperimentRunner:
    """Runs named workloads against named configurations on one system."""

    system: SystemConfig = field(default_factory=SystemConfig.scaled)
    max_accesses: int | None = None
    trace_overrides: dict = field(default_factory=dict)
    use_cache: bool = True
    #: fraction of each trace used to warm caches and prefetcher state before
    #: statistics are collected — the scaled analogue of the paper's
    #: 50M-instruction warm-up per 5M-instruction sample (which is 10x the
    #: sample length; shorter here to keep simulation time reasonable).
    warmup_fraction: float = 0.4
    #: worker processes for batch execution; 1 keeps everything in-process.
    jobs: int = 1
    #: result store; ``None`` means the process-wide default store.
    store: ResultStore | None = None

    # -- the spec → scheduler → store plumbing -------------------------------
    def frozen_system(self) -> tuple:
        """This runner's system as the frozen tree its specs carry.

        Pass it as ``system`` to :meth:`spec_for` or
        :meth:`multiprogram_spec_for` when making a batch: the specs then
        share one tree, frozen once and encoded once for all their digests.
        """

        return _freeze(self.system)

    def spec_for(
        self,
        workload: str,
        configuration: str,
        config_params: Mapping | None = None,
        system: tuple | None = None,
    ) -> RunSpec:
        """The immutable spec describing one single-core cell under this runner.

        ``config_params`` carries the call-time parameters of a
        parameterised configuration; they become part of the spec's identity
        (and hence the store key).  ``system`` is :meth:`frozen_system`'s
        tree, when the caller already has it.
        """

        return RunSpec.create(
            workload=workload,
            configuration=configuration,
            system=self.system if system is None else system,
            trace_overrides=self.trace_overrides,
            warmup_fraction=self.warmup_fraction,
            max_accesses=self.max_accesses,
            config_params=config_params,
        )

    def multiprogram_spec_for(
        self,
        workloads: Sequence[str],
        configuration: str,
        max_accesses_per_core: int | None = None,
        share_metadata: bool = True,
        config_params: Mapping | None = None,
        system: tuple | None = None,
    ) -> MultiProgramSpec:
        """The immutable spec describing one multiprogrammed run.

        ``config_params`` parameterises the configuration every core runs,
        and ``system`` may be :meth:`frozen_system`'s tree, exactly as for
        :meth:`spec_for`.
        """

        if configuration not in CONFIGS:
            raise ValueError(f"unknown configuration {configuration!r}")
        return MultiProgramSpec.create(
            workloads=workloads,
            configuration=configuration,
            system=self.system if system is None else system,
            trace_overrides=self.trace_overrides,
            warmup_fraction=self.warmup_fraction,
            max_accesses_per_core=max_accesses_per_core,
            share_metadata=share_metadata,
            config_params=config_params,
        )

    def _store(self) -> ResultStore | None:
        if not self.use_cache:
            return None
        return self.store if self.store is not None else default_store()

    def submit(self, specs: Sequence[Spec]) -> dict[Spec, Result]:
        """Batch-run arbitrary specs (both kinds) through scheduler and store."""

        with Scheduler(store=self._store(), jobs=self.jobs) as scheduler:
            return scheduler.run(specs)

    # -- traces -------------------------------------------------------------
    def trace_for(self, workload: str) -> Trace:
        """The (memoised) trace for a workload under this runner's overrides."""

        if not self.use_cache:
            return generate_workload(workload, **self.trace_overrides)
        return trace_for_workload(workload, self.trace_overrides)

    # -- single runs --------------------------------------------------------
    def run(
        self,
        workload: str,
        configuration: str,
        config_params: Mapping | None = None,
    ) -> SimulationStats:
        """Run one workload under one configuration and return its stats.

        ``config_params`` parameterises the configuration's builder (for
        registry entries that take parameters, e.g. the replacement study's
        ``max_entries``); such runs flow through the scheduler and persist
        like any other.
        """

        spec = self.spec_for(workload, configuration, config_params)
        return self.submit([spec])[spec]

    # -- matrices -------------------------------------------------------------
    def run_matrix(
        self,
        workloads: Sequence[str],
        configurations: Sequence[str],
        config_params: Mapping | None = None,
    ) -> dict[str, dict[str, SimulationStats]]:
        """Run every (workload × configuration) pair; return stats per cell.

        The full matrix is declared up front and submitted as one batch, so
        the scheduler can dedupe it, replay completed cells from the store,
        and run the rest in parallel.  ``config_params`` applies to every
        configuration in ``configurations`` that takes parameters (plain
        registry configurations ignore it).
        """

        system = self.frozen_system()
        cell_specs: dict[tuple[str, str], RunSpec] = {}
        for configuration in configurations:
            params = config_params if CONFIGS.takes_params(configuration) else None
            for workload in workloads:
                cell_specs[(workload, configuration)] = self.spec_for(
                    workload, configuration, params, system
                )
        batch = self.submit(list(cell_specs.values()))

        return {
            workload: {
                configuration: batch[cell_specs[(workload, configuration)]]
                for configuration in configurations
            }
            for workload in workloads
        }

    def normalized_matrix(
        self,
        workloads: Sequence[str],
        configurations: Sequence[str],
        metric: str,
        baseline_config: str = "baseline",
        include_geomean: bool = True,
        config_params: Mapping | None = None,
    ) -> dict[str, dict[str, float]]:
        """Run the matrix and reduce it to one normalised metric per cell."""

        run_configs = list(configurations)
        if baseline_config not in run_configs:
            run_configs = [baseline_config] + run_configs
        results = self.run_matrix(workloads, run_configs, config_params)
        return normalized_table(results, metric, baseline_config, include_geomean)

    # -- multiprogrammed runs ---------------------------------------------------
    def run_multiprogram(
        self,
        pair: Sequence[str],
        configuration: str,
        max_accesses_per_core: int | None = None,
        config_params: Mapping | None = None,
    ) -> MultiProgramResult:
        """Run a workload pair on two cores sharing the L3 and DRAM.

        The run is described by a
        :class:`~repro.experiments.jobs.MultiProgramSpec` and flows through
        the scheduler and persistent store like every other simulation, so a
        repeated pair (within this process or a later one) replays instead
        of re-simulating.  ``config_params`` parameterises the configuration
        on every core.
        """

        spec = self.multiprogram_spec_for(
            pair, configuration, max_accesses_per_core, config_params=config_params
        )
        return self.submit([spec])[spec]
