"""Triage's PC-indexed training table (paper section 2, figure 1).

The training table remembers, for each PC, the previous L2 miss or tagged
prefetch hit observed at that PC.  When the next one arrives, the pair
(previous, current) is written into the Markov table.  Triage's table stores
a single previous address; Triangel extends the entry with a second history
slot and several confidence counters (:mod:`repro.core.training_table`),
which is why this class keeps its shift register length configurable.

The table is set-associative and identifies entries with a hashed PC tag,
like Triage-ISR's hashed tags (paper section 4.2's PC-Tag-# field).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.utils.hashing import fold_hash, mix64


@dataclass
class TrainingTableStats:
    lookups: int = 0
    hits: int = 0
    allocations: int = 0
    evictions: int = 0


@dataclass(slots=True)
class TriageTrainingEntry:
    """Per-PC training state: a short shift register of previous addresses."""

    valid: bool = False
    pc_tag: int = 0
    last_addresses: list = field(default_factory=list)
    last_use: int = 0

    def push(self, line_address: int, depth: int) -> None:
        """Shift ``line_address`` into the history, keeping ``depth`` entries."""

        self.last_addresses.insert(0, line_address)
        del self.last_addresses[depth:]

    def history(self, lookahead: int) -> int | None:
        """Return the address ``lookahead`` positions back, if recorded.

        ``lookahead=1`` is the previous miss (Triage's behaviour);
        ``lookahead=2`` is the one before that (Triangel's aggressive mode).
        """

        index = lookahead - 1
        if index < len(self.last_addresses):
            return self.last_addresses[index]
        return None


class TriageTrainingTable:
    """Set-associative, PC-indexed table of per-PC miss history."""

    def __init__(
        self,
        entries: int = 512,
        assoc: int = 4,
        pc_tag_bits: int = 10,
        history_depth: int = 1,
    ) -> None:
        if entries <= 0 or assoc <= 0 or entries % assoc != 0:
            raise ValueError("entries must be a positive multiple of assoc")
        self.entries = entries
        self.assoc = assoc
        self.num_sets = entries // assoc
        self.pc_tag_bits = pc_tag_bits
        self.history_depth = history_depth
        self._sets = [
            [TriageTrainingEntry() for _ in range(assoc)] for _ in range(self.num_sets)
        ]
        self._clock = 0
        self.stats = TrainingTableStats()

    def _locate(self, pc: int) -> tuple[int, int]:
        return mix64(pc) % self.num_sets, fold_hash(pc, self.pc_tag_bits)

    def find(self, pc: int) -> TriageTrainingEntry | None:
        """Return the entry for ``pc`` if present (updates recency)."""

        self.stats.lookups += 1
        self._clock += 1
        set_index, tag = self._locate(pc)
        for entry in self._sets[set_index]:
            if entry.valid and entry.pc_tag == tag:
                entry.last_use = self._clock
                self.stats.hits += 1
                return entry
        return None

    def find_or_allocate(self, pc: int) -> tuple[TriageTrainingEntry, bool]:
        """Return ``(entry, allocated)``; evicts the LRU entry when needed.

        One locate and one pass over the set: the lookup is counted exactly
        as :meth:`find` counts it.
        """

        stats = self.stats
        stats.lookups += 1
        self._clock += 1
        set_index, tag = self._locate(pc)
        ways = self._sets[set_index]
        victim = None
        for entry in ways:
            if entry.valid:
                if entry.pc_tag == tag:
                    entry.last_use = self._clock
                    stats.hits += 1
                    return entry, False
            elif victim is None:
                victim = entry
        if victim is None:
            victim = min(ways, key=lambda candidate: candidate.last_use)
            stats.evictions += 1
        victim.valid = True
        victim.pc_tag = tag
        victim.last_addresses = []
        victim.last_use = self._clock
        stats.allocations += 1
        return victim, True
