"""The Markov history table stored in the L3's metadata partition.

Both Triage and Triangel record temporally correlated (lookup address →
prefetch target) pairs in a Markov table [Joseph & Grunwald, ISCA'97] packed
into cache lines of a reserved partition of the L3 (paper sections 2, 3.2,
4.3).  This module models that table at the organisation the paper settles
on after fixing Triage's inconsistencies:

* the *cache set* is chosen by the lookup address's index bits, exactly as a
  normal L3 lookup would;
* the *sub-set* (which of the partition's ways holds the entry) is the
  10-bit hashed tag modulo the current number of partition ways
  (section 3.2), so only a single cache line needs to be read per lookup;
* each line holds ``entries_per_line`` independent entries (16 for the
  32-bit formats, 12 for Triangel's 42-bit format), replaced by a
  configurable policy (HawkEye for Triage, SRRIP for Triangel, LRU for the
  replacement study);
* when the partition is resized the sub-set mapping changes, so a set is
  *rearranged* the first time it is touched under the new indexing policy —
  entries that no longer fit are dropped (section 3.2);
* a set's lines are built by the first training event that touches it,
  and until then every read sees the set empty, so a fresh table costs
  nothing per set;
* one confidence bit per entry controls same-index replacement: an existing
  target is only replaced when its confidence bit is clear, and the bit is
  set when training confirms the existing target (section 3.4).

Every lookup or update of this table costs an L3 access (25 cycles in the
paper's setup); that charging is done by the owning prefetcher so that the
Metadata Reuse Buffer can elide it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.memory.address import CACHE_LINE_BITS
from repro.memory.replacement import ReplacementPolicy, make_replacement_policy
from repro.triage.metadata import EncodedTarget, MetadataFormat
from repro.utils.hashing import fold_hash


@dataclass
class MarkovStats:
    lookups: int = 0
    hits: int = 0
    trains: int = 0
    inserts: int = 0
    target_replacements: int = 0
    replacements_blocked_by_confidence: int = 0
    confidence_promotions: int = 0
    evictions: int = 0
    rearrangements: int = 0
    entries_dropped_on_rearrange: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


@dataclass(slots=True)
class MarkovEntry:
    valid: bool = False
    tag: int = 0
    target: EncodedTarget | None = None
    confidence: bool = False
    pc: int | None = None


@dataclass(slots=True)
class TrainOutcome:
    """What a single training event did to the table."""

    action: str  # "inserted" | "replaced" | "confirmed" | "blocked" | "unchanged" | "dropped"
    evicted_tag: int | None = None


class MarkovTable:
    """The partition-resident Markov table shared by Triage and Triangel."""

    def __init__(
        self,
        l3_sets: int,
        max_ways: int,
        metadata_format: MetadataFormat,
        tag_bits: int = 10,
        replacement: str = "lru",
        initial_ways: int = 0,
    ) -> None:
        if l3_sets <= 0 or max_ways <= 0:
            raise ValueError("l3_sets and max_ways must be positive")
        self.l3_sets = l3_sets
        self.max_ways = max_ways
        self.format = metadata_format
        self.tag_bits = tag_bits
        self.entries_per_line = metadata_format.entries_per_line
        # Each set's ``max_ways`` lines, built by the first training event
        # that touches the set (see :meth:`_build_set`); ``None`` until then.
        self._lines: list[list[list[MarkovEntry]] | None] = [None] * l3_sets
        # One replacement-policy "set" per (cache set, way) line.
        self._policy: ReplacementPolicy = make_replacement_policy(
            replacement, l3_sets * max_ways, self.entries_per_line
        )
        self._indexing_ways = [initial_ways] * l3_sets
        self._ways = initial_ways
        # Valid entries, kept as a running count: capped configurations
        # read it on every training event (see :meth:`occupancy`).
        self._occupancy = 0
        self.stats = MarkovStats()

    # -- geometry -------------------------------------------------------------
    @property
    def ways(self) -> int:
        """Number of L3 ways currently reserved for the table."""

        return self._ways

    @property
    def capacity(self) -> int:
        """Entries storable at the current partition size."""

        return self.l3_sets * self._ways * self.entries_per_line

    @property
    def max_capacity(self) -> int:
        """Entries storable at the maximum partition size (the paper's MaxSize)."""

        return self.l3_sets * self.max_ways * self.entries_per_line

    def entries_per_way(self) -> int:
        return self.l3_sets * self.entries_per_line

    def set_ways(self, ways: int) -> None:
        """Resize the partition; sets are rearranged lazily on next touch."""

        if not 0 <= ways <= self.max_ways:
            raise ValueError(f"ways {ways} outside [0, {self.max_ways}]")
        self._ways = ways

    # -- address decomposition --------------------------------------------------
    def locate(self, line_address: int) -> tuple[int, int]:
        """Return ``(set_index, hashed_tag)`` for a line-aligned address."""

        line_number = line_address >> CACHE_LINE_BITS
        set_index = line_number % self.l3_sets
        tag = fold_hash(line_number // self.l3_sets, self.tag_bits)
        return set_index, tag

    def _sub_set(self, tag: int) -> int:
        return tag % self._ways

    def _policy_set(self, set_index: int, way: int) -> int:
        return set_index * self.max_ways + way

    # -- sets built on first touch ----------------------------------------------
    def _build_set(self, set_index: int) -> list[list[MarkovEntry]]:
        """Build a set's lines of empty entries (its first training event).

        A set nothing has trained holds no entry, so every read treats an
        unbuilt set as empty: a fresh table costs nothing per set, and a
        short run builds only the sets it trains.
        """

        lines = [
            [MarkovEntry() for _ in range(self.entries_per_line)]
            for _ in range(self.max_ways)
        ]
        self._lines[set_index] = lines
        return lines

    # -- rearrangement on resize ----------------------------------------------
    def _maybe_rearrange(self, set_index: int) -> None:
        if self._indexing_ways[set_index] == self._ways:
            return
        lines = self._lines[set_index]
        if lines is None or not any(entry.valid for line in lines for entry in line):
            # Nothing to move: adopt the new indexing policy silently.
            self._indexing_ways[set_index] = self._ways
            return
        self.stats.rearrangements += 1
        survivors: list[MarkovEntry] = []
        for line in lines:
            for entry in line:
                if entry.valid:
                    survivors.append(
                        MarkovEntry(
                            valid=True,
                            tag=entry.tag,
                            target=entry.target,
                            confidence=entry.confidence,
                            pc=entry.pc,
                        )
                    )
                entry.valid = False
                entry.target = None
                entry.confidence = False
                entry.pc = None
        self._indexing_ways[set_index] = self._ways
        if self._ways == 0:
            self.stats.entries_dropped_on_rearrange += len(survivors)
            self._occupancy -= len(survivors)
            return
        for entry in survivors:
            placed = self._place_rearranged(set_index, entry)
            if not placed:
                self.stats.entries_dropped_on_rearrange += 1
                self._occupancy -= 1

    def _place_rearranged(self, set_index: int, entry: MarkovEntry) -> bool:
        way = self._sub_set(entry.tag)
        line = self._lines[set_index][way]
        for slot, existing in enumerate(line):
            if not existing.valid:
                line[slot] = entry
                self._policy.on_fill(self._policy_set(set_index, way), slot, entry.pc)
                return True
        return False

    # -- lookup -------------------------------------------------------------------
    def lookup(self, line_address: int) -> int | None:
        """Return the decoded prefetch target trained for ``line_address``."""

        self.stats.lookups += 1
        if self._ways == 0:
            return None
        set_index, tag = self.locate(line_address)
        self._maybe_rearrange(set_index)
        lines = self._lines[set_index]
        if lines is None:
            return None
        way = self._sub_set(tag)
        line = lines[way]
        policy_set = self._policy_set(set_index, way)
        for slot, entry in enumerate(line):
            if entry.valid and entry.tag == tag:
                self.stats.hits += 1
                self._policy.on_hit(policy_set, slot, entry.pc)
                if entry.target is None:
                    return None
                return self.format.decode(entry.target)
        return None

    def peek(self, line_address: int) -> MarkovEntry | None:
        """Return the entry for ``line_address`` without touching any state."""

        if self._ways == 0:
            return None
        set_index, tag = self.locate(line_address)
        lines = self._lines[set_index]
        if lines is None or self._indexing_ways[set_index] != self._ways:
            return None
        for entry in lines[self._sub_set(tag)]:
            if entry.valid and entry.tag == tag:
                return entry
        return None

    # -- training -------------------------------------------------------------------
    def train(
        self, index_line_address: int, target_line_address: int, pc: int | None = None
    ) -> TrainOutcome:
        """Record that ``target`` followed ``index`` in the miss stream.

        Implements the confidence-bit behaviour of section 3.4: a stored
        target is only replaced when its confidence bit is clear; re-training
        with the same target sets the bit.
        """

        self.stats.trains += 1
        if self._ways == 0:
            return TrainOutcome(action="dropped")
        set_index, tag = self.locate(index_line_address)
        self._maybe_rearrange(set_index)
        lines = self._lines[set_index]
        if lines is None:
            lines = self._build_set(set_index)
        way = self._sub_set(tag)
        line = lines[way]
        policy_set = self._policy_set(set_index, way)

        for slot, entry in enumerate(line):
            if entry.valid and entry.tag == tag:
                existing_target = (
                    self.format.decode(entry.target) if entry.target is not None else None
                )
                self._policy.on_hit(policy_set, slot, pc)
                if existing_target == target_line_address:
                    if not entry.confidence:
                        entry.confidence = True
                        self.stats.confidence_promotions += 1
                        return TrainOutcome(action="confirmed")
                    return TrainOutcome(action="unchanged")
                if entry.confidence:
                    # Keep the confident target, but a contradiction clears
                    # the bit so persistent change eventually wins.
                    entry.confidence = False
                    self.stats.replacements_blocked_by_confidence += 1
                    return TrainOutcome(action="blocked")
                entry.target = self.format.encode(target_line_address)
                entry.pc = pc
                self.stats.target_replacements += 1
                return TrainOutcome(action="replaced")

        # No entry for this index yet: insert, evicting if the line is full.
        victim_slot = None
        for slot, entry in enumerate(line):
            if not entry.valid:
                victim_slot = slot
                break
        evicted_tag = None
        if victim_slot is None:
            victim_slot = self._policy.victim(
                policy_set, list(range(self.entries_per_line))
            )
            evicted_tag = line[victim_slot].tag
            self.stats.evictions += 1
        else:
            self._occupancy += 1
        entry = line[victim_slot]
        entry.valid = True
        entry.tag = tag
        entry.target = self.format.encode(target_line_address)
        entry.confidence = False
        entry.pc = pc
        self._policy.on_fill(policy_set, victim_slot, pc)
        self.stats.inserts += 1
        return TrainOutcome(action="inserted", evicted_tag=evicted_tag)

    # -- diagnostics ----------------------------------------------------------------
    def occupancy(self) -> int:
        """Number of valid entries currently stored.

        A running count: :meth:`train` adds one when it fills an invalid
        slot, and a rearrangement subtracts each entry it drops (the
        entries ``entries_dropped_on_rearrange`` counts).
        """

        return self._occupancy
