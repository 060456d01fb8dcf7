"""Simulation statistics and the metrics the paper reports.

The evaluation section of the paper uses five headline metrics, all of which
are derived from the counters gathered here:

* **Speedup** (figure 10) — baseline cycles / configuration cycles;
* **Normalised DRAM traffic** (figure 11) — total DRAM accesses relative to
  the baseline, including prefetch fills and write-backs;
* **Accuracy** (figure 12) — temporal prefetches used before L2 eviction,
  divided by temporal prefetches issued;
* **Coverage** (figure 13) — the fraction of the baseline's L2 demand misses
  that the configuration eliminates;
* **Normalised L3 accesses / dynamic energy** (figures 14, 15) — L3 data +
  Markov-table accesses, and the 25:1 DRAM:L3 energy model.

Normalisation against a baseline run happens in
:mod:`repro.experiments.runner`; this module only collects per-run values.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class SimulationStats:
    """Counters for a single simulated run of one trace on one core."""

    workload: str = ""
    configuration: str = ""
    accesses: int = 0
    cycles: float = 0.0
    level_hits: dict = field(
        default_factory=lambda: {"l1": 0, "l2": 0, "l3": 0, "dram": 0}
    )
    l2_demand_misses: int = 0
    temporal_prefetches_issued: int = 0
    temporal_prefetches_useful: int = 0
    temporal_prefetches_late: int = 0
    stride_prefetches_issued: int = 0
    stride_prefetches_useful: int = 0
    dram_accesses: int = 0
    dram_demand_reads: int = 0
    dram_prefetch_fills: int = 0
    dram_writes: int = 0
    l3_data_accesses: int = 0
    markov_accesses: int = 0
    dynamic_energy: float = 0.0
    markov_final_ways: int = 0
    late_prefetch_stall_cycles: float = 0.0

    # -- derived metrics ------------------------------------------------------
    @property
    def total_l3_accesses(self) -> int:
        return self.l3_data_accesses + self.markov_accesses

    @property
    def cycles_per_access(self) -> float:
        return self.cycles / self.accesses if self.accesses else 0.0

    @property
    def accuracy(self) -> float:
        """Temporal-prefetch accuracy as defined in figure 12."""

        if self.temporal_prefetches_issued == 0:
            return 1.0
        return self.temporal_prefetches_useful / self.temporal_prefetches_issued

    @property
    def l2_miss_rate(self) -> float:
        return self.l2_demand_misses / self.accesses if self.accesses else 0.0

    def coverage_relative_to(self, baseline: "SimulationStats") -> float:
        """Fraction of baseline L2 demand misses this run eliminated (fig. 13)."""

        if baseline.l2_demand_misses == 0:
            return 0.0
        eliminated = baseline.l2_demand_misses - self.l2_demand_misses
        return max(0.0, eliminated / baseline.l2_demand_misses)

    def speedup_relative_to(self, baseline: "SimulationStats") -> float:
        """Speedup over the baseline configuration (fig. 10)."""

        if self.cycles == 0:
            return 1.0
        return baseline.cycles / self.cycles

    def dram_traffic_relative_to(self, baseline: "SimulationStats") -> float:
        """Normalised DRAM traffic (fig. 11)."""

        if baseline.dram_accesses == 0:
            return 1.0 if self.dram_accesses == 0 else float("inf")
        return self.dram_accesses / baseline.dram_accesses

    def l3_accesses_relative_to(self, baseline: "SimulationStats") -> float:
        """Normalised L3 traffic including Markov accesses (fig. 14)."""

        if baseline.total_l3_accesses == 0:
            return 1.0 if self.total_l3_accesses == 0 else float("inf")
        return self.total_l3_accesses / baseline.total_l3_accesses

    def energy_relative_to(self, baseline: "SimulationStats") -> float:
        """Normalised DRAM+L3 dynamic energy (fig. 15)."""

        if baseline.dynamic_energy == 0:
            return 1.0 if self.dynamic_energy == 0 else float("inf")
        return self.dynamic_energy / baseline.dynamic_energy

    def as_dict(self) -> dict:
        """Flat dictionary of raw counters (for reports and serialisation)."""

        return {
            "workload": self.workload,
            "configuration": self.configuration,
            "accesses": self.accesses,
            "cycles": self.cycles,
            "l2_demand_misses": self.l2_demand_misses,
            "temporal_prefetches_issued": self.temporal_prefetches_issued,
            "temporal_prefetches_useful": self.temporal_prefetches_useful,
            "accuracy": self.accuracy,
            "dram_accesses": self.dram_accesses,
            "l3_data_accesses": self.l3_data_accesses,
            "markov_accesses": self.markov_accesses,
            "dynamic_energy": self.dynamic_energy,
            "markov_final_ways": self.markov_final_ways,
        }

