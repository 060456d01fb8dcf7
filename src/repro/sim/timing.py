"""Analytic timing model.

The paper reports speedups from a detailed out-of-order gem5 core.  We
substitute an analytic model: each demand access contributes a base cost
(covering the non-memory work between accesses on a wide core) plus a
level-dependent fraction of its memory latency, reflecting how much of that
latency an out-of-order core typically fails to hide.  Late prefetches
contribute their residual latency through the access's latency itself (the
hierarchy adds the remaining wait for in-flight prefetched lines), so
timeliness effects flow straight into the cycle count.

This is deliberately simple — the reproduction's claims are about *relative*
performance between prefetcher configurations, which is dominated by how
many DRAM-latency stalls each configuration removes, not by the absolute
cycle counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.memory.hierarchy import DemandResult
from repro.sim.config import TimingParams


@dataclass
class TimingModel:
    """Accumulates cycles for a stream of demand-access results."""

    params: TimingParams = field(default_factory=TimingParams)
    cycles: float = 0.0
    accesses: int = 0

    def __post_init__(self) -> None:
        # Built once: assembling this mapping per access was a measured cost
        # on the hot path.  ``params`` is treated as immutable after
        # construction throughout the repository.
        self._weights = {
            "l1": self.params.stall_weight_l1,
            "l2": self.params.stall_weight_l2,
            "l3": self.params.stall_weight_l3,
            "dram": self.params.stall_weight_dram,
        }

    def stall_weight(self, level: str) -> float:
        """The fraction of a level's latency the core fails to hide."""

        try:
            return self._weights[level]
        except KeyError as exc:
            raise ValueError(f"unknown hierarchy level {level!r}") from exc

    def stall_weights(self) -> dict[str, float]:
        """A copy of the level → stall-weight table (kernel fast path)."""

        return dict(self._weights)

    def cost_of(self, result: DemandResult) -> float:
        """Cycle cost of one demand access."""

        try:
            weight = self._weights[result.level]
        except KeyError as exc:
            raise ValueError(f"unknown hierarchy level {result.level!r}") from exc
        return self.params.base_cycles_per_access + weight * result.latency

    def account(self, result: DemandResult) -> float:
        """Add one access's cost to the running total and return that cost."""

        cost = self.cost_of(result)
        self.cycles += cost
        self.accesses += 1
        return cost

    # -- batched accounting (the fast kernels) -----------------------------
    #
    # The fused kernels accumulate the clock and access count in plain
    # locals and make them observable only at phase boundaries (sampling
    # start, finalisation) — the same arithmetic in the same order, with the
    # per-access attribute traffic removed.  ``checkpoint`` hands a kernel
    # the current totals to continue from; ``flush`` writes the kernel's
    # totals back.  Flushing is *assignment*, not addition: the locals carry
    # the authoritative running totals between checkpoints.

    def checkpoint(self) -> tuple[float, int]:
        """The ``(cycles, accesses)`` totals a batched kernel resumes from."""

        return self.cycles, self.accesses

    def flush(self, cycles: float, accesses: int) -> None:
        """Make a batched kernel's running totals observable on the model."""

        self.cycles = cycles
        self.accesses = accesses

    @property
    def cycles_per_access(self) -> float:
        return self.cycles / self.accesses if self.accesses else 0.0

    def instructions_retired(self, instructions_per_access: float) -> float:
        """Approximate instruction count for IPC reporting."""

        return self.accesses * instructions_per_access

    def reset(self) -> None:
        self.cycles = 0.0
        self.accesses = 0
