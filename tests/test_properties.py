"""Property-based tests (hypothesis) on core data structures and invariants."""

from dataclasses import asdict, astuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.metadata_reuse_buffer import MetadataReuseBuffer
from repro.memory.address import PAGE_SIZE, PageMapper, line_address, page_offset
from repro.memory.cache import SetAssociativeCache
from repro.memory.partitioned_cache import PartitionedCache
from repro.memory.replacement import ReplacementPolicy, make_replacement_policy
from repro.triage.bloom import BloomFilter
from repro.triage.markov_table import MarkovTable
from repro.triage.metadata import Full42Format, Ideal32Format
from repro.utils.counters import SaturatingCounter
from repro.utils.hashing import fold_hash

lines = st.integers(min_value=0, max_value=(1 << 31) - 1).map(lambda value: value * 64)
addresses = st.integers(min_value=0, max_value=(1 << 40) - 1)


def chunked_fold_hash(value: int, bits: int) -> int:
    """The reference XOR fold: one ``bits``-wide chunk at a time."""

    mask = (1 << bits) - 1
    folded = 0
    while value:
        folded ^= value & mask
        value >>= bits
    return folded


class TestHashingProperties:
    @given(value=addresses, bits=st.integers(min_value=1, max_value=24))
    def test_fold_hash_range(self, value, bits):
        assert 0 <= fold_hash(value, bits) < (1 << bits)

    @given(
        value=st.integers(min_value=0, max_value=1 << 200),
        bits=st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=300)
    def test_fold_hash_matches_chunk_loop(self, value, bits):
        assert fold_hash(value, bits) == chunked_fold_hash(value, bits)

    @given(value=addresses)
    def test_line_address_is_aligned_and_below(self, value):
        aligned = line_address(value)
        assert aligned % 64 == 0
        assert aligned <= value < aligned + 64


class TestCounterProperties:
    @given(
        operations=st.lists(st.booleans(), max_size=200),
        bits=st.integers(min_value=1, max_value=8),
        increment=st.integers(min_value=1, max_value=5),
        decrement=st.integers(min_value=1, max_value=5),
    )
    def test_counter_always_in_range(self, operations, bits, increment, decrement):
        counter = SaturatingCounter(
            bits=bits, initial=(1 << bits) // 2, increment=increment, decrement=decrement
        )
        for up in operations:
            counter.increase() if up else counter.decrease()
            assert 0 <= counter.value <= counter.maximum


class TestCacheProperties:
    @given(addresses=st.lists(lines, min_size=1, max_size=300))
    @settings(max_examples=25, deadline=None)
    def test_occupancy_never_exceeds_capacity(self, addresses):
        cache = SetAssociativeCache("prop", 1024, 2, 64, "lru")
        for address in addresses:
            cache.fill(address)
        assert len(cache.resident_line_addresses()) <= cache.capacity_lines

    @given(addresses=st.lists(lines, min_size=1, max_size=200))
    @settings(max_examples=25, deadline=None)
    def test_most_recent_fill_is_always_resident(self, addresses):
        cache = SetAssociativeCache("prop", 2048, 4, 64, "lru")
        for address in addresses:
            cache.fill(address)
            assert cache.probe(line_address(address))

    @given(addresses=st.lists(lines, min_size=1, max_size=200))
    @settings(max_examples=25, deadline=None)
    def test_hits_plus_misses_equals_accesses(self, addresses):
        cache = SetAssociativeCache("prop", 1024, 4, 64, "lru")
        for address in addresses:
            if not cache.access(address).hit:
                cache.fill(address)
        assert cache.stats.hits + cache.stats.misses == len(addresses)


#: Every name make_replacement_policy() accepts.
POLICY_NAMES = ("lru", "fifo", "random", "plru", "srrip", "brrip", "hawkeye")
#: The partitioned cache's reservation limit (of its 8 ways).
MAX_RESERVED = 4


class InvalidateBeforeFill(ReplacementPolicy):
    """Forwards every hook to ``inner``, invalidating each way before a fill.

    A cache driving this proxy sees the policy as if every replaced line
    were first invalidated; a cache driving ``inner`` directly replaces in
    place.  Both must agree for any policy whose ``on_fill`` overwrites all
    the per-way state ``on_invalidate`` resets.
    """

    def __init__(self, inner: ReplacementPolicy) -> None:
        super().__init__(inner.num_sets, inner.assoc)
        self.inner = inner
        self._observe = getattr(inner, "observe", None)

    def observe(self, set_index, address, pc):
        if self._observe is not None:
            self._observe(set_index, address, pc)

    def on_fill(self, set_index, way, pc=None):
        self.inner.on_invalidate(set_index, way)
        self.inner.on_fill(set_index, way, pc)

    def on_hit(self, set_index, way, pc=None):
        self.inner.on_hit(set_index, way, pc)

    def victim(self, set_index, candidates):
        return self.inner.victim(set_index, candidates)

    def on_invalidate(self, set_index, way):
        self.inner.on_invalidate(set_index, way)


def build_cache(kind: str, policy: str, invalidate_first: bool) -> SetAssociativeCache:
    """A 2-set cache (4 ways, or 8 with a partition) under ``policy``."""

    size, assoc = (512, 4) if kind == "plain" else (1024, 8)
    replacement = make_replacement_policy(policy, size // (assoc * 64), assoc)
    if invalidate_first:
        replacement = InvalidateBeforeFill(replacement)
    if kind == "plain":
        return SetAssociativeCache("prop", size, assoc, 64, replacement)
    return PartitionedCache(
        "prop", size, assoc, 64, replacement, max_reserved_ways=MAX_RESERVED
    )


def _victim(info) -> tuple | None:
    return None if info is None else (info.address, info.dirty, info.prefetched_unused, info.pc)


#: Indexed by a word's low three bits: mostly fills and accesses.
OPERATIONS = ("fill", "fill", "fill", "access", "access", "invalidate", "mark_dirty", "resize")


def decode(word: int) -> tuple:
    """One cache operation from a random 13-bit word.

    The low three bits pick the operation; the rest pick a line among 24
    (twelve per set, so most fills replace a victim), a PC (or none) and
    the write/prefetch flags.
    """

    kind = OPERATIONS[word & 7]
    index = (word >> 3) % 24
    pc = (word >> 8) % 7 or None
    return kind, index, pc, bool(word & 0x800), bool(word & 0x1000)


def drive(cache: SetAssociativeCache, words) -> list:
    """Apply the decoded operations; return every outcome, victims included."""

    outcomes = []
    for word in words:
        kind, index, pc, is_write, prefetched = decode(word)
        address = index * 64
        if kind == "fill":
            outcomes.append(
                _victim(cache.fill(address, pc, is_write, prefetched, float(index)))
            )
        elif kind == "access":
            outcome = cache.access(address, pc, is_write)
            outcomes.append((outcome.hit, outcome.first_prefetch_use, outcome.ready_cycle))
        elif kind == "invalidate":
            outcomes.append(cache.invalidate(address))
        elif kind == "mark_dirty":
            outcomes.append(cache.mark_dirty(address))
        elif isinstance(cache, PartitionedCache):
            ways = index % (MAX_RESERVED + 1)
            outcomes.append([_victim(info) for info in cache.set_reserved_ways(ways)])
    return outcomes


def resident_lines(cache: SetAssociativeCache) -> dict:
    return {
        address: astuple(cache.get_line(address))
        for address in cache.resident_line_addresses()
    }


class TestInPlaceReplacementProperties:
    """Replacing a victim in place equals invalidating it, then filling."""

    @pytest.mark.parametrize("kind", ["plain", "partitioned"])
    @pytest.mark.parametrize("policy", POLICY_NAMES)
    @given(
        words=st.lists(
            st.integers(min_value=0, max_value=0x1FFF), min_size=100, max_size=300
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_invalidate_then_fill(self, policy, kind, words):
        in_place = build_cache(kind, policy, invalidate_first=False)
        invalidated = build_cache(kind, policy, invalidate_first=True)
        assert drive(in_place, words) == drive(invalidated, words)
        assert asdict(in_place.stats) == asdict(invalidated.stats)
        assert resident_lines(in_place) == resident_lines(invalidated)


class TestPageMapperProperties:
    @given(
        pages=st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=200),
        fragmentation=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_mapping_is_injective_per_page_and_preserves_offsets(self, pages, fragmentation):
        mapper = PageMapper(fragmentation=fragmentation, seed=1)
        seen: dict[int, int] = {}
        for page in pages:
            virtual = page * PAGE_SIZE + (page % PAGE_SIZE)
            physical = mapper.translate(virtual)
            assert page_offset(physical) == page_offset(virtual)
            frame = physical // PAGE_SIZE
            if page in seen:
                assert seen[page] == frame
            else:
                seen[page] = frame


class TestMetadataFormatProperties:
    @given(target=lines)
    def test_full42_roundtrip(self, target):
        fmt = Full42Format()
        assert fmt.decode(fmt.encode(target)) == target

    @given(target=lines)
    def test_ideal32_roundtrip(self, target):
        fmt = Ideal32Format()
        assert fmt.decode(fmt.encode(target)) == target


class TestMarkovTableProperties:
    @given(pairs=st.lists(st.tuples(lines, lines), min_size=1, max_size=150))
    @settings(max_examples=20, deadline=None)
    def test_occupancy_bounded_by_capacity(self, pairs):
        table = MarkovTable(4, 2, Full42Format())
        table.set_ways(2)
        for source, target in pairs:
            table.train(source, target)
        assert table.occupancy() <= table.capacity

    @given(pairs=st.lists(st.tuples(lines, lines), min_size=1, max_size=100))
    @settings(max_examples=20, deadline=None)
    def test_lookup_only_returns_trained_targets(self, pairs):
        table = MarkovTable(8, 4, Full42Format())
        table.set_ways(4)
        trained_targets = set()
        for source, target in pairs:
            table.train(source, target)
            trained_targets.add(target)
        for source, _target in pairs:
            result = table.lookup(source)
            # Hash aliasing may return a target trained for another source,
            # but never an address that was never trained as a target.
            assert result is None or result in trained_targets

    @pytest.mark.parametrize("replacement", ["lru", "srrip", "hawkeye"])
    @given(
        operations=st.lists(
            st.one_of(
                st.tuples(
                    st.just("train"),
                    st.integers(0, 127).map(lambda n: n * 64),
                    st.integers(0, 127).map(lambda n: n * 64),
                ),
                st.tuples(st.just("lookup"), st.integers(0, 127).map(lambda n: n * 64)),
                st.tuples(st.just("ways"), st.integers(0, 3)),
            ),
            min_size=40,
            max_size=300,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_occupancy_counter_matches_full_scan(self, replacement, operations):
        # The full scan is the reference the running count must track
        # through inserts, evictions, resizes (to 0 ways too) and the lazy
        # rearrangements lookups and trains trigger after a resize.  Two
        # sets of 12-entry lines fill within a few dozen trains, so shrinks
        # drop entries.
        def scanned(table):
            # A set no training event has touched is unbuilt (None): empty.
            return sum(
                entry.valid
                for per_set in table._lines
                if per_set is not None
                for line in per_set
                for entry in line
            )

        table = MarkovTable(2, 3, Full42Format(), replacement=replacement, initial_ways=3)
        for operation in operations:
            if operation[0] == "train":
                table.train(operation[1], operation[2], pc=operation[1] >> 6)
            elif operation[0] == "lookup":
                table.lookup(operation[1])
            else:
                table.set_ways(operation[1])
            assert table.occupancy() == scanned(table)


class TestBloomFilterProperties:
    @given(values=st.lists(st.integers(min_value=0, max_value=1 << 32), max_size=300))
    @settings(max_examples=20, deadline=None)
    def test_no_false_negatives(self, values):
        bloom = BloomFilter(bits=1 << 12, hashes=3)
        for value in values:
            bloom.insert(value)
        assert all(bloom.contains(value) for value in values)


class TestMrbProperties:
    @given(
        operations=st.lists(
            st.tuples(lines, lines, st.booleans()), min_size=1, max_size=200
        )
    )
    @settings(max_examples=20, deadline=None)
    def test_occupancy_bounded_and_lookup_consistent(self, operations):
        mrb = MetadataReuseBuffer(entries=16, assoc=2)
        latest: dict[int, int] = {}
        for index_address, target, _conf in operations:
            mrb.insert(index_address, target, _conf)
            latest[index_address] = target
        assert mrb.occupancy() <= 16
        for index_address, target in latest.items():
            entry = mrb.lookup(index_address)
            if entry is not None:
                assert entry.target == target
