"""Unit tests for the replacement policies."""

import pytest

from repro.memory.replacement import (
    BRRIPPolicy,
    FIFOPolicy,
    LRUPolicy,
    RandomPolicy,
    SRRIPPolicy,
    TreePLRUPolicy,
    make_replacement_policy,
)


class TestLRU:
    def test_evicts_least_recently_used(self):
        lru = LRUPolicy(num_sets=1, assoc=4)
        for way in range(4):
            lru.on_fill(0, way)
        lru.on_hit(0, 0)  # way 0 becomes MRU; way 1 is now LRU
        assert lru.victim(0, [0, 1, 2, 3]) == 1

    def test_hit_refreshes_recency(self):
        lru = LRUPolicy(num_sets=1, assoc=2)
        lru.on_fill(0, 0)
        lru.on_fill(0, 1)
        lru.on_hit(0, 0)
        assert lru.victim(0, [0, 1]) == 1

    def test_candidate_restriction(self):
        lru = LRUPolicy(num_sets=1, assoc=4)
        for way in range(4):
            lru.on_fill(0, way)
        assert lru.victim(0, [2, 3]) == 2

    def test_sets_are_independent(self):
        lru = LRUPolicy(num_sets=2, assoc=2)
        lru.on_fill(0, 0)
        lru.on_fill(0, 1)
        lru.on_fill(1, 1)
        lru.on_fill(1, 0)
        assert lru.victim(0, [0, 1]) == 0
        assert lru.victim(1, [0, 1]) == 1


class TestFIFO:
    def test_evicts_oldest_fill_regardless_of_hits(self):
        fifo = FIFOPolicy(num_sets=1, assoc=3)
        for way in range(3):
            fifo.on_fill(0, way)
        fifo.on_hit(0, 0)  # FIFO ignores hits
        assert fifo.victim(0, [0, 1, 2]) == 0

    def test_refill_moves_to_back(self):
        fifo = FIFOPolicy(num_sets=1, assoc=2)
        fifo.on_fill(0, 0)
        fifo.on_fill(0, 1)
        fifo.on_fill(0, 0)  # re-filled: now newest
        assert fifo.victim(0, [0, 1]) == 1


class TestSRRIP:
    def test_new_lines_inserted_with_long_rrpv(self):
        srrip = SRRIPPolicy(num_sets=1, assoc=2, rrpv_bits=2)
        srrip.on_fill(0, 0)
        assert srrip._rrpv[0][0] == srrip.max_rrpv - 1

    def test_hit_promotes_to_zero(self):
        srrip = SRRIPPolicy(num_sets=1, assoc=2)
        srrip.on_fill(0, 0)
        srrip.on_hit(0, 0)
        assert srrip._rrpv[0][0] == 0

    def test_victim_prefers_max_rrpv(self):
        srrip = SRRIPPolicy(num_sets=1, assoc=2)
        srrip.on_fill(0, 0)
        srrip.on_fill(0, 1)
        srrip.on_hit(0, 0)
        assert srrip.victim(0, [0, 1]) == 1

    def test_aging_when_no_immediate_victim(self):
        srrip = SRRIPPolicy(num_sets=1, assoc=2)
        srrip.on_fill(0, 0)
        srrip.on_fill(0, 1)
        srrip.on_hit(0, 0)
        srrip.on_hit(0, 1)
        victim = srrip.victim(0, [0, 1])
        assert victim in (0, 1)

    def test_protects_reused_line_against_scan(self):
        srrip = SRRIPPolicy(num_sets=1, assoc=4)
        srrip.on_fill(0, 0)
        srrip.on_hit(0, 0)  # hot line
        for way in (1, 2, 3):
            srrip.on_fill(0, way)
        assert srrip.victim(0, [0, 1, 2, 3]) != 0


class TestTreePLRU:
    def test_victim_is_not_most_recent(self):
        plru = TreePLRUPolicy(num_sets=1, assoc=4)
        for way in range(4):
            plru.on_fill(0, way)
        plru.on_hit(0, 3)
        assert plru.victim(0, [0, 1, 2, 3]) != 3

    def test_candidate_fallback(self):
        plru = TreePLRUPolicy(num_sets=1, assoc=4)
        for way in range(4):
            plru.on_fill(0, way)
        assert plru.victim(0, [1, 2]) in (1, 2)


class TestRandomAndBRRIP:
    def test_random_victim_within_candidates(self):
        rand = RandomPolicy(num_sets=1, assoc=8, seed=1)
        for _ in range(50):
            assert rand.victim(0, [2, 5, 7]) in (2, 5, 7)

    def test_brrip_mostly_inserts_distant(self):
        brrip = BRRIPPolicy(num_sets=1, assoc=1, long_insert_probability=0.0)
        brrip.on_fill(0, 0)
        assert brrip._rrpv[0][0] == brrip.max_rrpv


class TestFactory:
    @pytest.mark.parametrize(
        "name", ["lru", "fifo", "random", "plru", "srrip", "brrip", "hawkeye"]
    )
    def test_known_policies(self, name):
        policy = make_replacement_policy(name, num_sets=4, assoc=4)
        assert policy.num_sets == 4
        assert policy.assoc == 4

    def test_unknown_policy_raises(self):
        with pytest.raises(ValueError, match="unknown replacement policy"):
            make_replacement_policy("belady", 4, 4)

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            LRUPolicy(num_sets=0, assoc=4)
