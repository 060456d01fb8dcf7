"""Two-core multiprogrammed simulation (paper section 6.3, figure 16).

The paper runs adjacent pairs of its SPEC workloads on two cores
simultaneously to expose a more bandwidth-constrained environment.  The
per-core structures of the prefetchers stay private, but the L3 (and hence
the Markov partition), the Set Dueller and the DRAM channel are shared.

This module wires that up: two :class:`~repro.memory.hierarchy.
MemoryHierarchy` instances share one :class:`~repro.memory.
partitioned_cache.PartitionedCache` and one :class:`~repro.memory.dram.
DramModel`; two prefetcher stacks are built independently and then, for
temporal prefetchers, their Markov table and partition sizer are unified so
both cores read and train the same metadata (``share_metadata=False``
keeps every core's metadata private instead).  Accesses from the two
traces are interleaved round-robin, which approximates two cores
progressing at similar rates while sharing the memory system.

Runs of this simulator are described by
:class:`~repro.experiments.jobs.MultiProgramSpec` and persist in the
result store as full :class:`MultiProgramResult` payloads (see
:meth:`MultiProgramResult.as_payload`).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable, Sequence

from repro.memory.request import MemoryAccess
from repro.prefetch.base import Prefetcher
from repro.sim.config import SystemConfig
from repro.sim.engine import SimulationResult, Simulator
from repro.sim.stats import SimulationStats
from repro.sim.timing import TimingModel


@dataclass
class MultiProgramResult:
    """Per-core results of a multiprogrammed run."""

    core_results: list[SimulationResult] = field(default_factory=list)

    def speedups_relative_to(self, baseline: "MultiProgramResult") -> list[float]:
        """Per-core speedups against the matching cores of a baseline run."""

        return [
            mine.stats.speedup_relative_to(theirs.stats)
            for mine, theirs in zip(self.core_results, baseline.core_results)
        ]

    @property
    def total_dram_accesses(self) -> int:
        """DRAM accesses of the run (shared channel, so the per-core max)."""

        # The DRAM model is shared, so both cores report the same totals;
        # take the maximum rather than summing the duplicate counters.
        return max(result.stats.dram_accesses for result in self.core_results)

    # -- persistence ---------------------------------------------------------
    def as_payload(self) -> dict:
        """JSON-safe form for the result store (exact counter round-trip)."""

        return {
            "cores": [
                {
                    "stats": asdict(result.stats),
                    "prefetchers": {
                        name: asdict(stats)
                        for name, stats in result.prefetcher_stats.items()
                    },
                }
                for result in self.core_results
            ]
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "MultiProgramResult":
        """Rebuild a result (stats and prefetcher counters) from a payload."""

        from repro.prefetch.base import PrefetcherStats

        return cls(
            core_results=[
                SimulationResult(
                    stats=SimulationStats(**core["stats"]),
                    prefetcher_stats={
                        name: PrefetcherStats(**stats)
                        for name, stats in core.get("prefetchers", {}).items()
                    },
                )
                for core in payload["cores"]
            ]
        )


def share_temporal_metadata(prefetchers_by_core: Sequence[Sequence[Prefetcher]]) -> None:
    """Make temporal prefetchers on all cores share Markov state and sizing.

    The paper shares the Markov partition and the Set Dueller between cores
    while keeping the training table, samplers and MRB core-private.  The
    first core's structures become the shared ones.
    """

    shared_markov = None
    shared_dueller = None
    shared_bloom = None
    for prefetchers in prefetchers_by_core:
        for prefetcher in prefetchers:
            if not hasattr(prefetcher, "markov") or prefetcher.markov is None:
                continue
            if shared_markov is None:
                shared_markov = prefetcher.markov
                shared_dueller = getattr(prefetcher, "dueller", None)
                shared_bloom = getattr(prefetcher, "bloom_sizer", None)
                if shared_bloom is None:
                    shared_bloom = getattr(prefetcher, "sizer", None)
            else:
                prefetcher.markov = shared_markov
                if hasattr(prefetcher, "dueller") and shared_dueller is not None:
                    prefetcher.dueller = shared_dueller
                if hasattr(prefetcher, "bloom_sizer") and shared_bloom is not None:
                    prefetcher.bloom_sizer = shared_bloom
                if hasattr(prefetcher, "sizer") and shared_bloom is not None:
                    prefetcher.sizer = shared_bloom


class MultiProgramSimulator:
    """Round-robin interleaved simulation of two (or more) traces."""

    def __init__(
        self,
        config: SystemConfig,
        prefetcher_factory: Callable[[], Sequence[Prefetcher]],
        num_cores: int = 2,
        configuration_name: str = "",
        share_metadata: bool = True,
    ) -> None:
        if num_cores < 1:
            raise ValueError("num_cores must be at least 1")
        self.config = config
        self.configuration_name = configuration_name
        shared_l3 = config.build_shared_l3()
        shared_dram = config.build_shared_dram()
        self.simulators: list[Simulator] = []
        prefetchers_by_core: list[Sequence[Prefetcher]] = []
        for _core in range(num_cores):
            hierarchy = config.build_hierarchy(shared_l3=shared_l3, shared_dram=shared_dram)
            prefetchers = prefetcher_factory()
            simulator = Simulator(
                hierarchy,
                prefetchers,
                timing=TimingModel(config.timing),
                config=config,
                configuration_name=configuration_name,
            )
            self.simulators.append(simulator)
            prefetchers_by_core.append(prefetchers)
        if share_metadata:
            share_temporal_metadata(prefetchers_by_core)

    def run(
        self,
        traces: Sequence[Sequence[MemoryAccess]],
        workload_names: Sequence[str] | None = None,
        max_accesses_per_core: int | None = None,
        warmup_accesses_per_core: int = 0,
    ) -> MultiProgramResult:
        """Interleave the traces round-robin and return per-core results.

        Each core steps from its trace's packed columns through
        :func:`~repro.sim.kernel.step_fast` and reusable scratch buffers;
        ``step_fast`` is looked up per run, so a caller can substitute the
        reference ``Simulator.step`` for a parity check.
        """

        from repro.sim import kernel
        from repro.sim.stream import access_columns

        if len(traces) != len(self.simulators):
            raise ValueError(
                f"expected {len(self.simulators)} traces, got {len(traces)}"
            )
        step = kernel.step_fast
        names = list(workload_names or ["" for _ in traces])
        columns = [access_columns(trace) for trace in traces]
        positions = [0] * len(traces)
        scratches = [kernel.KernelScratch() for _ in traces]
        warmup_stats = [
            SimulationStats(workload=name, configuration=self.configuration_name)
            for name in names
        ]
        stats = [
            SimulationStats(workload=name, configuration=self.configuration_name)
            for name in names
        ]
        finished = [False] * len(traces)
        warmed_up = warmup_accesses_per_core <= 0
        while not all(finished):
            if not warmed_up and all(
                per_core.accesses >= warmup_accesses_per_core or finished[core]
                for core, per_core in enumerate(warmup_stats)
            ):
                for simulator in self.simulators:
                    simulator._begin_sampling()
                warmed_up = True
            active_stats = stats if warmed_up else warmup_stats
            for core in range(len(traces)):
                if finished[core]:
                    continue
                if (
                    warmed_up
                    and max_accesses_per_core is not None
                    and stats[core].accesses >= max_accesses_per_core
                ):
                    finished[core] = True
                    continue
                cols = columns[core]
                position = positions[core]
                if position >= cols.length:
                    finished[core] = True
                    continue
                positions[core] = position + 1
                step(
                    self.simulators[core],
                    cols.pcs[position],
                    cols.addresses[position],
                    bool(cols.writes[position]),
                    active_stats[core],
                    scratches[core],
                )

        results = []
        for core, simulator in enumerate(self.simulators):
            simulator._finalise(stats[core])
            results.append(
                SimulationResult(
                    stats=stats[core],
                    prefetcher_stats={
                        p.name: p.stats for p in simulator.prefetchers
                    },
                )
            )
        return MultiProgramResult(core_results=results)
