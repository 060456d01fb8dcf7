"""The composed L1D → L2 → L3 → DRAM hierarchy.

This is the substrate every experiment runs on.  It mirrors the paper's
setup (table 2): per-core L1D and L2, a shared partitioned L3 whose ways can
be reserved for Markov metadata, and DRAM behind it.  Demand accesses walk
down the hierarchy and fill upwards; temporal prefetches fill into the L2
(section 5: "Both prefetch into the L2"); the stride prefetcher at the L1
fills into the L1 and L2.

Timeliness is modelled through per-line ``ready_cycle``:  a prefetch issued
at cycle *t* for a line that hits in the L3 becomes usable at
``t + markov_latency + l3_latency``; one that must come from DRAM at
``t + markov_latency + l3_latency + dram_latency``.  A demand access that
arrives before the line is ready stalls for the difference, so late (but
correct) prefetches recover only part of the miss latency — exactly the
effect Triangel's lookahead-2 and degree-4 aggression exist to fix.

Both demand and prefetch entry points take an optional ``out`` result to
mutate instead of allocating: the execution kernels pass one scratch
:class:`DemandResult`/:class:`PrefetchFillResult` per run, so the hot path
allocates nothing per access.  Without ``out`` a fresh result is returned,
which is what tests and interactive exploration want.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.memory.address import CACHE_LINE_SIZE, line_address
from repro.memory.cache import SetAssociativeCache
from repro.memory.dram import DramModel
from repro.memory.partitioned_cache import PartitionedCache

#: ``line_address`` as a mask, for the prefetch-fill path.
_LINE_MASK = -CACHE_LINE_SIZE


@dataclass
class HierarchyParams:
    """Geometry and latency parameters of the cache hierarchy.

    Defaults are the paper's table 2 scaled down by
    :meth:`repro.sim.config.SystemConfig.scaled`; the raw values here are
    the "sim scale" defaults used by tests.
    """

    l1_size: int = 4 * 1024
    l1_assoc: int = 4
    l2_size: int = 16 * 1024
    l2_assoc: int = 8
    l3_size: int = 64 * 1024
    l3_assoc: int = 16
    line_size: int = 64
    l1_latency: float = 4.0
    l2_latency: float = 9.0
    l3_latency: float = 20.0
    l1_replacement: str = "plru"
    l2_replacement: str = "lru"
    l3_replacement: str = "lru"
    max_markov_ways: int = 8
    dram_latency: float = 160.0
    dram_occupancy: float = 8.0
    dram_energy_per_access: float = 25.0
    l3_energy_per_access: float = 1.0


@dataclass(slots=True)
class DemandResult:
    """Outcome of one demand access as seen by the core."""

    level: str
    latency: float
    line_address: int
    l2_miss: bool = False
    l2_prefetch_first_use: bool = False
    l1_prefetch_first_use: bool = False
    late_prefetch_stall: float = 0.0


@dataclass(slots=True)
class PrefetchFillResult:
    """Outcome of issuing a prefetch fill into the hierarchy."""

    already_present: bool
    from_dram: bool
    ready_cycle: float
    latency: float


@dataclass(slots=True)
class HierarchyStats:
    """Aggregate counters that the experiment harness normalises."""

    demand_accesses: int = 0
    l2_demand_misses: int = 0
    l3_data_accesses: int = 0
    markov_accesses: int = 0
    late_prefetch_stall_cycles: float = 0.0

    def reset(self) -> None:
        self.demand_accesses = 0
        self.l2_demand_misses = 0
        self.l3_data_accesses = 0
        self.markov_accesses = 0
        self.late_prefetch_stall_cycles = 0.0


class MemoryHierarchy:
    """Three-level cache hierarchy with a partitioned L3 and DRAM.

    A hierarchy owns private L1D and L2 caches.  The L3 and DRAM may be
    shared between two hierarchies for the multiprogrammed experiments
    (figure 16); pass them explicitly in that case.
    """

    __slots__ = ("params", "l1d", "l2", "l3", "dram", "stats", "l2_fill_count")

    def __init__(
        self,
        params: HierarchyParams | None = None,
        l3: PartitionedCache | None = None,
        dram: DramModel | None = None,
    ) -> None:
        self.params = params or HierarchyParams()
        p = self.params
        self.l1d = SetAssociativeCache(
            "L1D", p.l1_size, p.l1_assoc, p.line_size, p.l1_replacement
        )
        self.l2 = SetAssociativeCache(
            "L2", p.l2_size, p.l2_assoc, p.line_size, p.l2_replacement
        )
        self.l3 = l3 or PartitionedCache(
            "L3",
            p.l3_size,
            p.l3_assoc,
            p.line_size,
            p.l3_replacement,
            max_reserved_ways=p.max_markov_ways,
        )
        self.dram = dram or DramModel(
            latency_cycles=p.dram_latency,
            occupancy_cycles=p.dram_occupancy,
            energy_per_access=p.dram_energy_per_access,
        )
        self.stats = HierarchyStats()
        self.l2_fill_count = 0

    # -- demand path ---------------------------------------------------------
    def demand_access(
        self,
        pc: int,
        address: int,
        is_write: bool = False,
        now: float = 0.0,
        out: DemandResult | None = None,
    ) -> DemandResult:
        """Perform a demand access; return the level serviced and the latency.

        When ``out`` is given it is overwritten and returned (the kernels'
        allocation-free path); otherwise a fresh result is allocated.
        """

        if out is None:
            out = DemandResult(level="l1", latency=0.0, line_address=0)
        line = line_address(address)
        self.stats.demand_accesses += 1

        l1_outcome = self.l1d.access(line, pc, is_write, now)
        if l1_outcome.hit:
            stall = l1_outcome.ready_cycle - now
            if stall < 0.0:
                stall = 0.0
            self.stats.late_prefetch_stall_cycles += stall
            out.level = "l1"
            out.latency = self.params.l1_latency + stall
            out.line_address = line
            out.l2_miss = False
            out.l2_prefetch_first_use = False
            out.l1_prefetch_first_use = l1_outcome.first_prefetch_use
            out.late_prefetch_stall = stall
            return out
        return self.demand_after_l1_miss(line, pc, is_write, now, out)

    def demand_after_l1_miss(
        self,
        line: int,
        pc: int,
        is_write: bool,
        now: float,
        out: DemandResult | None = None,
    ) -> DemandResult:
        """Continue a demand access below a missing L1 (kernel entry point).

        ``line`` is the line-aligned address; the caller has already charged
        the hierarchy-level access counter and performed (and missed) the L1
        lookup.  The fused kernel inlines the L1 probe and jumps straight
        here, so the L1 fast path costs no extra calls.  ``out`` is
        overwritten and returned, or allocated when not given.
        """

        if out is None:
            out = DemandResult(level="l1", latency=0.0, line_address=0)
        p = self.params
        l2_outcome = self.l2.access(line, pc, is_write, now)
        if l2_outcome.hit:
            stall = l2_outcome.ready_cycle - now
            if stall < 0.0:
                stall = 0.0
            self.stats.late_prefetch_stall_cycles += stall
            first_use = l2_outcome.first_prefetch_use
            self._fill_l1(line, pc, is_write, now)
            out.level = "l2"
            out.latency = p.l1_latency + p.l2_latency + stall
            out.line_address = line
            out.l2_miss = False
            out.l2_prefetch_first_use = first_use
            out.l1_prefetch_first_use = False
            out.late_prefetch_stall = stall
            return out

        # The access missed the L2: this is a demand L2 miss regardless of
        # where it is eventually serviced, and it is what the temporal
        # prefetchers train on (together with tagged prefetch hits).
        stats = self.stats
        stats.l2_demand_misses += 1
        stats.l3_data_accesses += 1
        l3_outcome = self.l3.access(line, pc, is_write, now)
        base_latency = p.l1_latency + p.l2_latency + p.l3_latency
        if l3_outcome.hit:
            self._fill_l2(line, pc, is_write, now)
            self._fill_l1(line, pc, is_write, now)
            out.level = "l3"
            out.latency = base_latency
            out.line_address = line
            out.l2_miss = True
            out.l2_prefetch_first_use = False
            out.l1_prefetch_first_use = False
            out.late_prefetch_stall = 0.0
            return out

        dram_latency = self.dram.access(now + base_latency, is_write=False)
        self._fill_l3(line, pc, is_write, now)
        self._fill_l2(line, pc, is_write, now)
        self._fill_l1(line, pc, is_write, now)
        out.level = "dram"
        out.latency = base_latency + dram_latency
        out.line_address = line
        out.l2_miss = True
        out.l2_prefetch_first_use = False
        out.l1_prefetch_first_use = False
        out.late_prefetch_stall = 0.0
        return out

    # -- prefetch paths --------------------------------------------------------
    def prefetch_fill(
        self,
        address: int,
        pc: int | None,
        now: float,
        extra_latency: float = 0.0,
        target_level: str = "l2",
        out: PrefetchFillResult | None = None,
    ) -> PrefetchFillResult:
        """Bring ``address`` into ``target_level`` on behalf of a prefetcher.

        ``extra_latency`` is latency already incurred before the fill begins
        (e.g. the 25-cycle Markov-table lookup); it pushes back the line's
        ready time.  The L3 lookup performed to source the data is charged as
        an L3 data access; a miss there goes to DRAM and is charged as a
        prefetch fill.  ``out``, when given, is overwritten and returned.
        """

        if out is None:
            out = PrefetchFillResult(
                already_present=False, from_dram=False, ready_cycle=0.0, latency=0.0
            )
        p = self.params
        line = address & _LINE_MASK
        # Residency is tested against the tag maps directly (the shift path
        # of SetAssociativeCache.locate, inline); a non-power-of-two
        # geometry falls back to probe().
        target = self.l2 if target_level == "l2" else self.l1d
        mask = target._set_mask
        if mask is not None:
            number = line >> target._line_bits
            resident = (number >> target._set_bits) in target._tag_maps[number & mask]
        else:
            resident = target.probe(line)
        if resident:
            out.already_present = True
            out.from_dram = False
            out.ready_cycle = now
            out.latency = 0.0
            return out

        self.stats.l3_data_accesses += 1
        l3 = self.l3
        mask = l3._set_mask
        if mask is not None:
            number = line >> l3._line_bits
            resident = (number >> l3._set_bits) in l3._tag_maps[number & mask]
        else:
            resident = l3.probe(line)
        if resident:
            # Touch replacement state so the L3 knows the line is live.
            l3.access(line, pc, False, now)
            latency = extra_latency + p.l3_latency
            from_dram = False
        else:
            dram_latency = self.dram.access(
                now + extra_latency + p.l3_latency, is_prefetch=True
            )
            latency = extra_latency + p.l3_latency + dram_latency
            from_dram = True
            self._fill_l3(line, pc, False, now)

        ready = now + latency
        if target_level == "l2":
            self._fill_l2(line, pc, False, now, prefetched=True, ready_cycle=ready)
        else:
            self._fill_l1(line, pc, False, now, prefetched=True, ready_cycle=ready)
            self._fill_l2(line, pc, False, now, prefetched=True, ready_cycle=ready)
        out.already_present = False
        out.from_dram = from_dram
        out.ready_cycle = ready
        out.latency = latency
        return out

    def record_markov_access(self, count: int = 1) -> None:
        """Charge ``count`` Markov-table accesses against the L3 (section 5)."""

        self.stats.markov_accesses += count

    # -- partition control -------------------------------------------------
    def set_markov_ways(self, ways: int) -> None:
        """Resize the Markov partition of the L3."""

        self.l3.set_reserved_ways(ways)

    # -- aggregate metrics ---------------------------------------------------
    @property
    def total_l3_accesses(self) -> int:
        """Data accesses plus Markov-table accesses (figure 14's metric)."""

        return self.stats.l3_data_accesses + self.stats.markov_accesses

    @property
    def dram_traffic(self) -> int:
        """Total DRAM accesses (figure 11's metric)."""

        return self.dram.total_accesses

    def dynamic_energy(self) -> float:
        """Combined DRAM + L3 dynamic energy (figure 15's methodology)."""

        return (
            self.dram.energy
            + self.total_l3_accesses * self.params.l3_energy_per_access
        )

    # -- fill helpers ---------------------------------------------------------
    def _fill_l1(
        self,
        line: int,
        pc: int | None,
        is_write: bool,
        now: float,
        prefetched: bool = False,
        ready_cycle: float = 0.0,
    ) -> None:
        victim = self.l1d.fill(line, pc, is_write, prefetched, ready_cycle, now)
        if victim is not None and victim.dirty:
            if not self.l2.mark_dirty(victim.address):
                self.l2.fill(victim.address, victim.pc, True, False, 0.0, now)

    def _fill_l2(
        self,
        line: int,
        pc: int | None,
        is_write: bool,
        now: float,
        prefetched: bool = False,
        ready_cycle: float = 0.0,
    ) -> None:
        self.l2_fill_count += 1
        victim = self.l2.fill(line, pc, is_write, prefetched, ready_cycle, now)
        if victim is not None and victim.dirty:
            if not self.l3.mark_dirty(victim.address):
                self._fill_l3(victim.address, victim.pc, True, now)

    def _fill_l3(
        self, line: int, pc: int | None, is_write: bool, now: float
    ) -> None:
        victim = self.l3.fill(line, pc, is_write, False, 0.0, now)
        if victim is not None and victim.dirty:
            self.dram.access(now, is_write=True)

    def reset_stats(self) -> None:
        """Clear every statistics counter (cache contents are preserved)."""

        self.stats.reset()
        self.l1d.stats.reset()
        self.l2.stats.reset()
        self.l3.stats.reset()
        self.dram.reset()
        self.l2_fill_count = 0
