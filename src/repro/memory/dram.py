"""DRAM model: latency, traffic accounting, bandwidth contention and energy.

The paper's headline efficiency claims are expressed in DRAM traffic
(figure 11: Triangel +10% over baseline vs +28.5% for Triage) and in a
simple energy model where a DRAM access costs 25 units and an L3 access one
unit (section 6.2).  This module provides the DRAM side of both.

The bandwidth model is a single-server queue: each access occupies the
channel for ``occupancy_cycles``; an access that arrives while the channel
is busy waits.  For single-core runs at the paper's intensity this adds
little, but in the multiprogrammed experiments (figure 16) it is what makes
misplaced aggression (Triage-Deg4) hurt.

Counter accounting is **accumulator-batched**: :meth:`DramModel.access`
updates four flat slots on the model itself (three integer event counts and
the float wait total) instead of reaching through a stats object per access.
The :attr:`DramModel.stats` property flushes those accumulators into the
long-form :class:`DramStats` on demand, so every observation point — the
engine's ``_finalise``, the tests — still reads the same dataclass it
always did, while the hot path pays one slot store per event.  Flushing is assignment (not addition), so reading
``stats`` mid-run any number of times is idempotent and the flushed values
are bit-identical to the per-access bookkeeping they replace: the ``wait``
additions happen in the same order on the accumulator as they previously
did on ``stats.total_wait_cycles``.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class DramStats:
    """Raw DRAM event counters."""

    demand_reads: int = 0
    writes: int = 0
    prefetch_fills: int = 0
    total_wait_cycles: float = 0.0

    @property
    def total_accesses(self) -> int:
        return self.demand_reads + self.writes + self.prefetch_fills

    def reset(self) -> None:
        self.demand_reads = 0
        self.writes = 0
        self.prefetch_fills = 0
        self.total_wait_cycles = 0.0


class DramModel:
    """Latency/traffic/energy model of the memory controller + LPDDR5 device.

    Parameters
    ----------
    latency_cycles:
        Idle-channel access latency seen by the L3 (row activation + CAS +
        transfer), in core cycles.
    occupancy_cycles:
        Channel occupancy per access; sets the maximum sustainable bandwidth.
    energy_per_access:
        Energy units per DRAM access; the paper uses 25 with the L3 at 1.
    """

    __slots__ = (
        "latency_cycles",
        "occupancy_cycles",
        "energy_per_access",
        "_stats",
        "_next_free_cycle",
        "_demand_reads",
        "_writes",
        "_prefetch_fills",
        "_wait_cycles",
    )

    def __init__(
        self,
        latency_cycles: float = 160.0,
        occupancy_cycles: float = 8.0,
        energy_per_access: float = 25.0,
    ) -> None:
        self.latency_cycles = latency_cycles
        self.occupancy_cycles = occupancy_cycles
        self.energy_per_access = energy_per_access
        self._stats = DramStats()
        self._next_free_cycle = 0.0
        # Batched event accumulators — see the module docstring.  These are
        # the authoritative counters; ``self._stats`` is a flush target.
        self._demand_reads = 0
        self._writes = 0
        self._prefetch_fills = 0
        self._wait_cycles = 0.0

    def access(
        self,
        now: float,
        *,
        is_write: bool = False,
        is_prefetch: bool = False,
    ) -> float:
        """Record an access starting at ``now``; return its total latency."""

        wait = max(0.0, self._next_free_cycle - now)
        start = now + wait
        self._next_free_cycle = start + self.occupancy_cycles
        self._wait_cycles += wait
        if is_write:
            self._writes += 1
        elif is_prefetch:
            self._prefetch_fills += 1
        else:
            self._demand_reads += 1
        return wait + self.latency_cycles

    @property
    def stats(self) -> DramStats:
        """The event counters, with the batched accumulators flushed in."""

        stats = self._stats
        stats.demand_reads = self._demand_reads
        stats.writes = self._writes
        stats.prefetch_fills = self._prefetch_fills
        stats.total_wait_cycles = self._wait_cycles
        return stats

    @property
    def total_accesses(self) -> int:
        return self._demand_reads + self._writes + self._prefetch_fills

    @property
    def energy(self) -> float:
        """Total DRAM dynamic energy in the paper's abstract units."""

        return self.total_accesses * self.energy_per_access

    def reset(self) -> None:
        self._demand_reads = 0
        self._writes = 0
        self._prefetch_fills = 0
        self._wait_cycles = 0.0
        self._stats.reset()
        self._next_free_cycle = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DramModel(latency_cycles={self.latency_cycles!r}, "
            f"occupancy_cycles={self.occupancy_cycles!r}, "
            f"energy_per_access={self.energy_per_access!r}, "
            f"stats={self.stats!r})"
        )
