"""The single-core trace-driven simulation engine.

The engine plays a memory-access trace against a hierarchy, invoking the
configured prefetchers on every access and issuing the fills they request.
Prefetch usefulness is attributed back to the prefetcher that issued the
fill (temporal vs stride) so that figure 12's accuracy — which concerns the
temporal prefetcher only — is measured correctly even though both kinds of
prefetch live in the same caches.

:meth:`Simulator.run` is the **reference kernel**: the readable,
object-per-access implementation the fused fast kernel
(:mod:`repro.sim.kernel`) is defined against.  The two must stay
bit-identical — change behaviour here and the parity suite holds the fast
kernel to the new definition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.request import MemoryAccess
from repro.prefetch.base import Prefetcher
from repro.sim.config import SystemConfig
from repro.sim.stats import SimulationStats
from repro.sim.timing import TimingModel


@dataclass
class SimulationResult:
    """Everything a single run produces."""

    stats: SimulationStats
    prefetcher_stats: dict = field(default_factory=dict)


class Simulator:
    """Runs one trace on one core with an arbitrary set of prefetchers."""

    def __init__(
        self,
        hierarchy: MemoryHierarchy,
        prefetchers: Sequence[Prefetcher],
        timing: TimingModel | None = None,
        config: SystemConfig | None = None,
        configuration_name: str = "",
    ) -> None:
        self.hierarchy = hierarchy
        self.prefetchers = list(prefetchers)
        self.config = config
        if timing is not None:
            self.timing = timing
        elif config is not None:
            self.timing = TimingModel(config.timing)
        else:
            self.timing = TimingModel()
        self.configuration_name = configuration_name
        for prefetcher in self.prefetchers:
            prefetcher.attach(hierarchy)
        # Maps an in-flight/resident prefetched L2 line to the source that
        # brought it in, so first use can be attributed.
        self._prefetch_source: dict[int, str] = {}
        self._cycles_at_sample_start = 0.0

    # -- main loop ---------------------------------------------------------------
    def run(
        self,
        trace: Iterable[MemoryAccess],
        max_accesses: int | None = None,
        workload_name: str = "",
        warmup_accesses: int = 0,
    ) -> SimulationResult:
        """Run ``trace``; optionally warm caches/prefetchers before sampling.

        The paper warms each checkpoint for 50M instructions before sampling
        5M; ``warmup_accesses`` is the scaled equivalent.  Warm-up accesses
        update every cache, table and confidence counter but are excluded
        from the reported statistics.
        """

        stats = SimulationStats(
            workload=workload_name, configuration=self.configuration_name
        )
        warmup_stats = SimulationStats(
            workload=workload_name, configuration=self.configuration_name
        )
        warmed = 0
        sampling = False
        for access in trace:
            if warmed < warmup_accesses:
                self.step(access, warmup_stats)
                warmed += 1
                continue
            if not sampling:
                self._begin_sampling()
                sampling = True
            if max_accesses is not None and stats.accesses >= max_accesses:
                break
            self.step(access, stats)
        if not sampling:
            # Warm-up consumed the whole trace: reset the counters anyway so
            # the (empty) sample reports zeros rather than warm-up activity.
            self._begin_sampling()
        self._finalise(stats)
        return SimulationResult(
            stats=stats,
            prefetcher_stats={p.name: p.stats for p in self.prefetchers},
        )

    def _begin_sampling(self) -> None:
        """Reset every statistic counter while preserving warmed-up state."""

        self._cycles_at_sample_start = self.timing.cycles
        self.hierarchy.reset_stats()
        for prefetcher in self.prefetchers:
            prefetcher.reset_stats()
        self._prefetch_source.clear()

    def step(self, access: MemoryAccess, stats: SimulationStats) -> None:
        """Simulate a single demand access (exposed for incremental tests)."""

        now = self.timing.cycles
        result = self.hierarchy.demand_access(
            access.pc, access.address, access.is_write, now
        )
        self.timing.account(result)
        stats.accesses += 1
        stats.level_hits[result.level] += 1
        if result.l2_miss:
            stats.l2_demand_misses += 1
        if result.l2_prefetch_first_use:
            self._attribute_usefulness(result.line_address, stats, late=result.late_prefetch_stall > 0)

        for prefetcher in self.prefetchers:
            decisions = prefetcher.observe(
                access.pc, result.line_address, result, self.timing.cycles
            )
            for decision in decisions:
                fill = self.hierarchy.prefetch_fill(
                    decision.address,
                    access.pc,
                    self.timing.cycles,
                    extra_latency=decision.extra_latency,
                    target_level=decision.target_level,
                )
                if fill.already_present:
                    continue
                if decision.metadata_source == "stride":
                    stats.stride_prefetches_issued += 1
                    self._prefetch_source[decision.address] = "stride"
                else:
                    stats.temporal_prefetches_issued += 1
                    self._prefetch_source[decision.address] = "temporal"

    # -- attribution and finalisation ------------------------------------------------
    def _attribute_usefulness(
        self, line_address: int, stats: SimulationStats, late: bool
    ) -> None:
        source = self._prefetch_source.pop(line_address, None)
        if source is None:
            # Prefetched during warm-up (or by a fill the engine did not
            # issue): not counted either way, so accuracy stays well-defined.
            return
        if source == "stride":
            stats.stride_prefetches_useful += 1
        else:
            stats.temporal_prefetches_useful += 1
            if late:
                stats.temporal_prefetches_late += 1

    def _finalise(self, stats: SimulationStats) -> None:
        hierarchy = self.hierarchy
        stats.cycles = self.timing.cycles - self._cycles_at_sample_start
        stats.dram_accesses = hierarchy.dram.total_accesses
        stats.dram_demand_reads = hierarchy.dram.stats.demand_reads
        stats.dram_prefetch_fills = hierarchy.dram.stats.prefetch_fills
        stats.dram_writes = hierarchy.dram.stats.writes
        stats.l3_data_accesses = hierarchy.stats.l3_data_accesses
        stats.markov_accesses = hierarchy.stats.markov_accesses
        stats.dynamic_energy = hierarchy.dynamic_energy()
        stats.markov_final_ways = hierarchy.l3.reserved_ways
        stats.late_prefetch_stall_cycles = hierarchy.stats.late_prefetch_stall_cycles
