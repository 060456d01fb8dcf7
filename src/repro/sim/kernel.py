"""The fast kernel: the fused, allocation-free loop every simulation runs on.

:func:`run_fast` runs a simulation as one fused loop over the workload's
packed columns (the :mod:`repro.sim.stream` protocol), in two consecutive
index ranges, warm-up then sample: no access objects, one scratch
:class:`~repro.memory.hierarchy.DemandResult` and
:class:`~repro.memory.hierarchy.PrefetchFillResult` per run, one reusable
:class:`~repro.prefetch.base.DecisionBuffer` per run, the L1-hit path
inlined against the cache's tag index, every hot attribute bound to a
local, and every pure count added once per range.  :func:`step_fast` is
the same access step for the interleaved multiprogram simulator.

The readable :meth:`repro.sim.engine.Simulator.run` (and
``Simulator.step``) is the oracle: the fast kernel performs exactly its
operations in exactly its order, so on every configuration it must produce
**bit-identical** :class:`~repro.sim.stats.SimulationStats` (and
prefetcher counters).  The parity matrix in ``tests/test_kernel.py`` and
``repro bench`` enforce it.  The execution layer looks both functions up
in this module at call time, which is how the parity tests substitute the
reference engine.
"""

from __future__ import annotations

from itertools import islice
from time import perf_counter

from repro import obs
from repro.memory.address import CACHE_LINE_SIZE
from repro.memory.hierarchy import DemandResult, PrefetchFillResult
from repro.prefetch.base import DecisionBuffer
from repro.sim.stats import SimulationStats
from repro.sim.stream import access_columns


class KernelScratch:
    """Per-core reusable buffers for the allocation-free step.

    One instance serves one simulator for an entire run (the multiprogram
    driver keeps one per core): the demand result, the prefetch-fill result
    and the decision buffer are overwritten access after access.  The two
    prefetcher views are bound on first step: ``hit_prefetchers`` holds
    only the prefetchers whose :attr:`~repro.prefetch.base.Prefetcher.
    observes_hits` contract says they can react to an access with neither
    ``l2_miss`` nor ``l2_prefetch_first_use`` set — the rest are skipped on
    that (dominant) path because calling them is a guaranteed no-op.
    """

    __slots__ = ("result", "fill", "buffer", "all_prefetchers", "hit_prefetchers")

    def __init__(self) -> None:
        self.result = DemandResult(level="l1", latency=0.0, line_address=0)
        self.fill = PrefetchFillResult(
            already_present=False, from_dram=False, ready_cycle=0.0, latency=0.0
        )
        self.buffer = DecisionBuffer()
        self.all_prefetchers: list | None = None
        self.hit_prefetchers: list | None = None

    def bind(self, simulator) -> None:
        """Capture the simulator's prefetcher stack views once per run."""

        self.all_prefetchers = list(simulator.prefetchers)
        self.hit_prefetchers = [
            prefetcher
            for prefetcher in self.all_prefetchers
            if prefetcher.observes_hits
        ]


def step_fast(simulator, pc, address, is_write, stats, scratch: KernelScratch) -> None:
    """One allocation-free access step (the multiprogram fast path).

    Operation-for-operation identical to ``Simulator.step`` — the same
    hierarchy call, the same timing arithmetic, the same attribution and
    prefetch-issue order — but writing into ``scratch`` instead of
    allocating, so the interleaved multiprogram driver gets the same
    statistics the reference engine produces.
    """

    timing = simulator.timing
    now = timing.cycles
    result = simulator.hierarchy.demand_access(
        pc, address, is_write, now, scratch.result
    )
    level = result.level
    timing.cycles = now + (
        timing.params.base_cycles_per_access + timing._weights[level] * result.latency
    )
    timing.accesses += 1
    stats.accesses += 1
    stats.level_hits[level] += 1
    line = result.line_address
    if result.l2_miss:
        stats.l2_demand_misses += 1
    if result.l2_prefetch_first_use:
        simulator._attribute_usefulness(
            line, stats, late=result.late_prefetch_stall > 0
        )

    if scratch.all_prefetchers is None:
        scratch.bind(simulator)
    buffer = scratch.buffer
    fill_scratch = scratch.fill
    source_map = simulator._prefetch_source
    actives = (
        scratch.all_prefetchers
        if (result.l2_miss or result.l2_prefetch_first_use)
        else scratch.hit_prefetchers
    )
    for prefetcher in actives:
        buffer.count = 0
        prefetcher.observe_into(pc, line, result, timing.cycles, buffer)
        if not buffer.count:
            continue
        decisions = buffer._decisions
        for index in range(buffer.count):
            decision = decisions[index]
            fill = simulator.hierarchy.prefetch_fill(
                decision.address,
                pc,
                timing.cycles,
                extra_latency=decision.extra_latency,
                target_level=decision.target_level,
                out=fill_scratch,
            )
            if fill.already_present:
                continue
            if decision.metadata_source == "stride":
                stats.stride_prefetches_issued += 1
                source_map[decision.address] = "stride"
            else:
                stats.temporal_prefetches_issued += 1
                source_map[decision.address] = "temporal"


def run_fast(
    simulator,
    trace,
    max_accesses: int | None = None,
    workload_name: str = "",
    warmup_accesses: int = 0,
):
    """The fused columnar loop (see the module docstring).

    Mirrors ``Simulator.run`` statement for statement, as two consecutive
    index ranges over the columns: the warm-up range updates a separate
    statistics object, sampling begins between the ranges by resetting
    every counter while preserving warmed state, and the sampled range is
    cut short by the access cap.  Both range lengths are known before the
    loop, so no access tests which phase it belongs to.
    """

    from repro.sim.engine import SimulationResult

    pcs, addresses, writes, length = access_columns(trace)
    # Simulator.run's phases as counts: warm-up takes the first accesses,
    # and the sample the rest, up to the cap.
    warmup_count = min(max(warmup_accesses, 0), length)
    sample_count = length - warmup_count
    if max_accesses is not None:
        sample_count = min(sample_count, max(max_accesses, 0))

    hierarchy = simulator.hierarchy
    timing = simulator.timing
    prefetchers = list(simulator.prefetchers)
    # Prefetchers whose observes_hits contract allows skipping them when an
    # access neither missed the L2 nor first-used a prefetched L2 line (the
    # call would be a guaranteed no-op — see Prefetcher.observes_hits).
    hit_prefetchers = [p for p in prefetchers if p.observes_hits]
    source_map = simulator._prefetch_source

    stats = SimulationStats(
        workload=workload_name, configuration=simulator.configuration_name
    )
    warmup_stats = SimulationStats(
        workload=workload_name, configuration=simulator.configuration_name
    )

    scratch = KernelScratch()
    result = scratch.result
    fill_scratch = scratch.fill
    buffer = scratch.buffer

    # -- hot state bound to locals ----------------------------------------
    l1 = hierarchy.l1d
    l1_stats = l1.stats
    l1_sets = l1._sets
    l1_tag_maps = l1._tag_maps
    l1_on_hit = l1.policy.on_hit
    l1_observe = l1._policy_observe
    l1_line_bits = l1._line_bits
    l1_set_mask = l1._set_mask
    l1_set_bits = l1._set_bits
    # Only a power-of-two L1 takes the inlined path; otherwise every access
    # goes through demand_access, which counts the L1 and the hierarchy
    # itself.
    inline_l1 = l1_set_mask is not None
    hstats = hierarchy.stats
    demand_access = hierarchy.demand_access
    demand_after_l1_miss = hierarchy.demand_after_l1_miss
    prefetch_fill = hierarchy.prefetch_fill
    l1_latency = hierarchy.params.l1_latency
    # The reference path aligns through the global line_address() — which
    # uses CACHE_LINE_SIZE, not the hierarchy's configured line size — so
    # the kernel must use the same mask bit-for-bit, even for exotic
    # HierarchyParams.line_size values.
    line_mask = -CACHE_LINE_SIZE
    base_cycles = timing.params.base_cycles_per_access
    weights = timing.stall_weights()
    weight_l1 = weights["l1"]

    # The timing accumulators live in locals and are flushed back at every
    # point the shared objects become observable (_begin_sampling reads
    # timing.cycles; _finalise reads both): identical arithmetic, identical
    # order, no attribute traffic per access.  ``stall_cycles`` mirrors
    # ``hstats.late_prefetch_stall_cycles`` the same way; it is written back
    # (then reloaded) around the only operations that add to the shared
    # field — ``demand_after_l1_miss`` (L2-hit late-prefetch stall) and the
    # layered ``demand_access`` fallback — so the float sum keeps its order.
    # Pure counts need no per-access work at all: each range adds its
    # length (and, on the inlined path, its L1 hits) once, at its end.
    cycles, timing_accesses = timing.checkpoint()
    stall_cycles = hstats.late_prefetch_stall_cycles

    # Telemetry is a coarse per-run sample: one flag read plus three clock
    # reads for the whole loop (start, the sampling boundary, end) — never
    # per-access work, so the disabled path is bit-and-allocation-identical
    # and the enabled path is O(1) per run.
    telemetry = obs.enabled()
    clock_start = perf_counter() if telemetry else 0.0
    clock_sample = clock_start

    # One iterator over the columns, consumed by the two ranges in turn.
    columns = zip(pcs, addresses, writes)
    for sampling, target_stats, count in (
        (False, warmup_stats, warmup_count),
        (True, stats, sample_count),
    ):
        if sampling:
            timing.flush(cycles, timing_accesses)
            hstats.late_prefetch_stall_cycles = stall_cycles
            simulator._begin_sampling()
            # _begin_sampling reset the hierarchy counters: reload the
            # batched local from the (now zeroed) shared field.
            stall_cycles = hstats.late_prefetch_stall_cycles
            if telemetry:
                clock_sample = perf_counter()
        target_hits = target_stats.level_hits
        l1_misses = 0

        for pc, address, is_write in islice(columns, count):
            # -- demand access (L1-hit path inlined) -----------------------
            now = cycles
            line = address & line_mask
            hit_way = None
            if inline_l1:
                line_number = line >> l1_line_bits
                set_index = line_number & l1_set_mask
                if l1_observe is not None:
                    l1_observe(set_index, line, pc)
                hit_way = l1_tag_maps[set_index].get(line_number >> l1_set_bits)
            if hit_way is not None:
                cache_line = l1_sets[set_index][hit_way]
                first_use = False
                if cache_line.prefetched and not cache_line.used_since_prefetch:
                    cache_line.used_since_prefetch = True
                    first_use = True
                    l1_stats.prefetch_first_uses += 1
                if is_write:
                    cache_line.dirty = True
                l1_on_hit(set_index, hit_way, pc)
                stall = cache_line.ready_cycle - now
                if stall < 0.0:
                    stall = 0.0
                stall_cycles += stall
                latency = l1_latency + stall
                result.level = "l1"
                result.latency = latency
                result.line_address = line
                result.l2_miss = False
                result.l2_prefetch_first_use = False
                result.l1_prefetch_first_use = first_use
                result.late_prefetch_stall = stall
                cycles = now + (base_cycles + weight_l1 * latency)
                actives = hit_prefetchers
            else:
                # demand_after_l1_miss and demand_access add any late-prefetch
                # stall straight onto the shared field: sync the batched
                # local around the call.
                hstats.late_prefetch_stall_cycles = stall_cycles
                if inline_l1:
                    l1_misses += 1
                    demand_after_l1_miss(line, pc, bool(is_write), now, result)
                else:
                    demand_access(pc, address, bool(is_write), now, result)
                stall_cycles = hstats.late_prefetch_stall_cycles
                level = result.level
                cycles = now + (base_cycles + weights[level] * result.latency)
                target_hits[level] += 1
                if result.l2_miss:
                    target_stats.l2_demand_misses += 1
                if result.l2_prefetch_first_use:
                    # Rare branch: share the engine's attribution rules
                    # rather than inlining a third copy of them.
                    simulator._attribute_usefulness(
                        line, target_stats, late=result.late_prefetch_stall > 0
                    )
                actives = (
                    prefetchers
                    if (result.l2_miss or result.l2_prefetch_first_use)
                    else hit_prefetchers
                )

            # -- prefetchers -----------------------------------------------
            for prefetcher in actives:
                buffer.count = 0
                prefetcher.observe_into(pc, line, result, cycles, buffer)
                emitted = buffer.count
                if not emitted:
                    continue
                decisions = buffer._decisions
                for decision_index in range(emitted):
                    decision = decisions[decision_index]
                    fill = prefetch_fill(
                        decision.address,
                        pc,
                        cycles,
                        extra_latency=decision.extra_latency,
                        target_level=decision.target_level,
                        out=fill_scratch,
                    )
                    if fill.already_present:
                        continue
                    if decision.metadata_source == "stride":
                        target_stats.stride_prefetches_issued += 1
                        source_map[decision.address] = "stride"
                    else:
                        target_stats.temporal_prefetches_issued += 1
                        source_map[decision.address] = "temporal"

        # -- the range's counts, added once --------------------------------
        target_stats.accesses += count
        timing_accesses += count
        if inline_l1:
            l1_hits = count - l1_misses
            target_hits["l1"] += l1_hits
            l1_stats.demand_accesses += count
            l1_stats.hits += l1_hits
            l1_stats.misses += l1_misses
            hstats.demand_accesses += count

    timing.flush(cycles, timing_accesses)
    hstats.late_prefetch_stall_cycles = stall_cycles
    simulator._finalise(stats)
    if telemetry:
        clock_end = perf_counter()
        obs.record_replay(
            workload_name,
            accesses=stats.accesses,
            prefix_accesses=warmup_count,
            prefix_seconds=clock_sample - clock_start,
            sample_seconds=clock_end - clock_sample,
        )
    return SimulationResult(
        stats=stats,
        prefetcher_stats={p.name: p.stats for p in prefetchers},
    )
