"""Bloom-filter-based Markov-partition sizing (paper section 3.5).

Triage-ISR sizes the L3 partition holding the Markov table with a Bloom
filter trained on every prefetcher access within a 30-million-instruction
window: an address that misses in the filter has not been seen before, so
the target partition size grows to make room for its entry.  The paper keeps
this mechanism for its Triage baseline (and for the Triangel-Bloom variant,
with an experimentally chosen bias factor of 1.5) and criticises it for its
persistent bias towards metadata regardless of whether the displaced L3 data
capacity would have been more valuable — the shortcoming Triangel's Set
Dueller (:mod:`repro.core.set_dueller`) exists to fix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.utils.hashing import mix64


class BloomFilter:
    """A plain counting-free Bloom filter with ``k`` independent hashes."""

    def __init__(self, bits: int = 1 << 14, hashes: int = 4) -> None:
        if bits <= 0 or hashes <= 0:
            raise ValueError("bits and hashes must be positive")
        self.bits = bits
        self.hashes = hashes
        self._array = bytearray(bits)
        self.inserted = 0
        self._salts = tuple(
            salt * 0x9E3779B97F4A7C15 for salt in range(1, hashes + 1)
        )

    def _positions(self, value: int) -> list[int]:
        bits = self.bits
        return [mix64(value ^ salt) % bits for salt in self._salts]

    def contains(self, value: int) -> bool:
        return all(self._array[position] for position in self._positions(value))

    def insert(self, value: int) -> bool:
        """Insert ``value``; return ``True`` if it was (probably) new."""

        # One pass: any position still clear before this insert makes the
        # value new; setting it as we go cannot hide a later clear one.
        array = self._array
        bits = self.bits
        new = False
        for salt in self._salts:
            position = mix64(value ^ salt) % bits
            if not array[position]:
                array[position] = 1
                new = True
        if new:
            self.inserted += 1
        return new

    def clear(self) -> None:
        self._array = bytearray(self.bits)
        self.inserted = 0

    def false_positive_rate(self) -> float:
        """Theoretical false-positive probability at the current load."""

        if self.inserted == 0:
            return 0.0
        fill = 1.0 - math.exp(-self.hashes * self.inserted / self.bits)
        return fill**self.hashes


@dataclass
class BloomSizerStats:
    observations: int = 0
    unique_addresses: int = 0
    windows: int = 0
    grow_decisions: int = 0
    shrink_decisions: int = 0


class BloomPartitionSizer:
    """Chooses how many L3 ways to reserve for the Markov table.

    Parameters
    ----------
    entries_per_way:
        Markov entries that fit in one reserved way (sets × entries/line).
    max_ways:
        Upper bound on the partition (8 of 16 ways in the paper).
    window:
        Number of prefetcher training accesses per sizing window (the paper
        uses a 30M-instruction window; scaled runs use a few thousand).
    bias:
        Multiplier applied to the unique-address estimate before converting
        it to ways; 1.0 for the Triage baseline, 1.5 for Triangel-Bloom
        (section 4.7).
    bloom_bits / bloom_hashes:
        Filter dimensions.
    """

    def __init__(
        self,
        entries_per_way: int,
        max_ways: int = 8,
        window: int = 4096,
        bias: float = 1.0,
        bloom_bits: int = 1 << 14,
        bloom_hashes: int = 4,
    ) -> None:
        if entries_per_way <= 0:
            raise ValueError("entries_per_way must be positive")
        if window <= 0:
            raise ValueError("window must be positive")
        self.entries_per_way = entries_per_way
        self.max_ways = max_ways
        self.window = window
        self.bias = bias
        self.filter = BloomFilter(bloom_bits, bloom_hashes)
        self.stats = BloomSizerStats()
        self._accesses_in_window = 0
        self._unique_in_window = 0
        self._current_ways = 0

    @property
    def current_ways(self) -> int:
        return self._current_ways

    def required_ways(self) -> int:
        """Ways needed to hold the unique addresses seen this window."""

        target_entries = self._unique_in_window * self.bias
        return min(self.max_ways, math.ceil(target_entries / self.entries_per_way))

    def observe(self, line_address: int) -> int | None:
        """Feed one training access; return a new way count when it changes.

        Growth happens immediately when the estimate requires more ways
        (matching "the target size of the partition is increased to fit it");
        shrinking only happens at window boundaries, when the filter resets.
        """

        self.stats.observations += 1
        self._accesses_in_window += 1
        if self.filter.insert(line_address):
            self._unique_in_window += 1
            self.stats.unique_addresses += 1

        decision: int | None = None
        required = self.required_ways()
        if required > self._current_ways:
            self._current_ways = required
            self.stats.grow_decisions += 1
            decision = required

        if self._accesses_in_window >= self.window:
            self.stats.windows += 1
            if required < self._current_ways:
                self._current_ways = required
                self.stats.shrink_decisions += 1
                decision = required
            self.filter.clear()
            self._accesses_in_window = 0
            self._unique_in_window = 0
        return decision
