"""Unit tests for the DRAM traffic/energy/bandwidth model."""

import pytest

from repro.memory.dram import DramModel


class TestTrafficAccounting:
    def test_counts_by_kind(self):
        dram = DramModel()
        dram.access(0.0)
        dram.access(10.0, is_write=True)
        dram.access(20.0, is_prefetch=True)
        assert dram.stats.demand_reads == 1
        assert dram.stats.writes == 1
        assert dram.stats.prefetch_fills == 1
        assert dram.total_accesses == 3

    def test_energy_uses_25_unit_cost(self):
        dram = DramModel(energy_per_access=25.0)
        for _ in range(4):
            dram.access(0.0)
        assert dram.energy == 100.0

    def test_reset(self):
        dram = DramModel()
        dram.access(0.0)
        dram.reset()
        assert dram.total_accesses == 0
        assert dram.energy == 0.0


class TestBandwidthModel:
    def test_idle_channel_has_base_latency(self):
        dram = DramModel(latency_cycles=100.0, occupancy_cycles=10.0)
        assert dram.access(1000.0) == pytest.approx(100.0)

    def test_back_to_back_accesses_queue(self):
        dram = DramModel(latency_cycles=100.0, occupancy_cycles=10.0)
        first = dram.access(0.0)
        second = dram.access(0.0)
        third = dram.access(0.0)
        assert first == pytest.approx(100.0)
        assert second == pytest.approx(110.0)
        assert third == pytest.approx(120.0)
        assert dram.stats.total_wait_cycles == pytest.approx(30.0)

    def test_spaced_accesses_do_not_queue(self):
        dram = DramModel(latency_cycles=100.0, occupancy_cycles=10.0)
        dram.access(0.0)
        assert dram.access(50.0) == pytest.approx(100.0)


class TestBatchedAccounting:
    """The accumulator-batched counters flush transparently through ``stats``."""

    def test_mid_run_reads_are_flushed_and_idempotent(self):
        dram = DramModel()
        dram.access(0.0)
        assert dram.stats.demand_reads == 1
        assert dram.stats.demand_reads == 1  # re-reading never double-counts
        dram.access(0.0, is_write=True)
        dram.access(0.0, is_prefetch=True)
        snapshot = dram.stats
        assert snapshot.writes == 1
        assert snapshot.prefetch_fills == 1
        assert snapshot.total_accesses == 3

    def test_stats_object_identity_is_stable(self):
        """Holders of a ``stats`` reference (the engine's ``_finalise`` and
        the tests read it repeatedly) see updates in place — the flush
        target is one long-lived DramStats, not a fresh copy per read."""

        dram = DramModel()
        held = dram.stats
        dram.access(5.0, is_prefetch=True)
        assert dram.stats is held
        assert held.prefetch_fills == 1

    def test_wait_accumulates_identically_to_per_access_bookkeeping(self):
        dram = DramModel(latency_cycles=100.0, occupancy_cycles=10.0)
        expected = 0.0
        next_free = 0.0
        for now in (0.0, 0.0, 3.0, 40.0):
            expected += max(0.0, next_free - now)
            next_free = now + max(0.0, next_free - now) + 10.0
            dram.access(now)
        assert dram.stats.total_wait_cycles == expected  # bit-identical

    def test_reset_clears_accumulators_and_flush_target(self):
        dram = DramModel()
        dram.access(0.0)
        held = dram.stats
        dram.reset()
        assert dram.total_accesses == 0
        assert held.demand_reads == 0
        assert dram.stats.total_wait_cycles == 0.0
