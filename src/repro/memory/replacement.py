"""Cache replacement policies.

The paper touches several replacement policies:

* the L3 data cache and the smaller caches use conventional policies (we
  default to LRU for data caches and tree-PLRU is available for the L1);
* Triage's Markov partition uses HawkEye (:mod:`repro.memory.hawkeye`),
  while Triangel uses the much simpler SRRIP (paper sections 3.3 and 4.8);
* the Metadata Reuse Buffer uses FIFO because its entries are accessed a
  bounded number of times and should then leave (section 4.6, footnote 9);
* section 3.3 and footnote 4 compare LRU, RRIP and HawkEye for the Markov
  partition under constrained capacity — the replacement-study benchmark
  reproduces that comparison.

All policies share one interface so that any structure in the model can be
configured with any of them.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Sequence


#: The error every policy raises when asked to choose among no ways.
NO_CANDIDATES = "victim() needs at least one candidate way"


class ReplacementPolicy(ABC):
    """Interface for per-set replacement state.

    The owning cache calls :meth:`on_fill` when a line is inserted,
    :meth:`on_hit` when a line is re-referenced, :meth:`victim` to choose a
    way to evict (restricted to ``candidates``, which lets a partitioned
    cache exclude reserved ways), and :meth:`on_invalidate` when a line is
    removed for a reason other than replacement.

    A fill into a full set replaces the victim in place: the cache calls
    :meth:`victim`, then :meth:`on_fill` for the same way, and never
    :meth:`on_invalidate` in between.  :meth:`on_fill` must therefore
    overwrite every piece of per-way state that :meth:`on_invalidate`
    resets.  Every :meth:`victim` raises :class:`ValueError` on an empty
    ``candidates``.
    """

    def __init__(self, num_sets: int, assoc: int) -> None:
        if num_sets <= 0 or assoc <= 0:
            raise ValueError("num_sets and assoc must be positive")
        self.num_sets = num_sets
        self.assoc = assoc

    @abstractmethod
    def on_fill(self, set_index: int, way: int, pc: int | None = None) -> None:
        """Record that a new line was inserted into ``way``."""

    @abstractmethod
    def on_hit(self, set_index: int, way: int, pc: int | None = None) -> None:
        """Record a re-reference of the line in ``way``."""

    @abstractmethod
    def victim(self, set_index: int, candidates: Sequence[int]) -> int:
        """Choose a way to evict from ``candidates`` (all currently valid)."""

    def on_invalidate(self, set_index: int, way: int) -> None:
        """Hook for policies that keep per-way state; default is a no-op."""

    def name(self) -> str:
        return type(self).__name__.replace("Policy", "")


class LRUPolicy(ReplacementPolicy):
    """Least-recently-used replacement via a per-set recency stack."""

    def __init__(self, num_sets: int, assoc: int) -> None:
        super().__init__(num_sets, assoc)
        self._stamp = 0
        self._last_use = [[-1] * assoc for _ in range(num_sets)]

    def on_hit(self, set_index: int, way: int, pc: int | None = None) -> None:
        self._stamp += 1
        self._last_use[set_index][way] = self._stamp

    # A fill, like a hit, makes the way the most recently used.
    on_fill = on_hit

    def victim(self, set_index: int, candidates: Sequence[int]) -> int:
        # One C-level min keyed by the list's own __getitem__ (no Python
        # frame per way); ties keep the first candidate.
        if not candidates:
            raise ValueError(NO_CANDIDATES)
        return min(candidates, key=self._last_use[set_index].__getitem__)

    def on_invalidate(self, set_index: int, way: int) -> None:
        self._last_use[set_index][way] = -1


class FIFOPolicy(ReplacementPolicy):
    """First-in-first-out replacement (used by the Metadata Reuse Buffer)."""

    def __init__(self, num_sets: int, assoc: int) -> None:
        super().__init__(num_sets, assoc)
        self._stamp = 0
        self._fill_time = [[-1] * assoc for _ in range(num_sets)]

    def on_fill(self, set_index: int, way: int, pc: int | None = None) -> None:
        self._stamp += 1
        self._fill_time[set_index][way] = self._stamp

    def on_hit(self, set_index: int, way: int, pc: int | None = None) -> None:
        # FIFO deliberately ignores re-references.
        return

    def victim(self, set_index: int, candidates: Sequence[int]) -> int:
        if not candidates:
            raise ValueError(NO_CANDIDATES)
        return min(candidates, key=self._fill_time[set_index].__getitem__)

    def on_invalidate(self, set_index: int, way: int) -> None:
        self._fill_time[set_index][way] = -1


class RandomPolicy(ReplacementPolicy):
    """Uniform-random replacement, deterministic under a fixed seed."""

    def __init__(self, num_sets: int, assoc: int, seed: int = 0xC0FFEE) -> None:
        super().__init__(num_sets, assoc)
        self._rng = random.Random(seed)

    def on_fill(self, set_index: int, way: int, pc: int | None = None) -> None:
        return

    def on_hit(self, set_index: int, way: int, pc: int | None = None) -> None:
        return

    def victim(self, set_index: int, candidates: Sequence[int]) -> int:
        if not candidates:
            raise ValueError(NO_CANDIDATES)
        return candidates[self._rng.randrange(len(candidates))]


class TreePLRUPolicy(ReplacementPolicy):
    """Tree pseudo-LRU, as used by Arm L1 caches (paper reference [3]).

    Each set's internal-node bits are packed into one int, node ``n`` at
    bit ``n``; a bit of 0 points to the left subtree as the "older" half.
    Associativity is rounded up to a power of two internally; candidate
    filtering falls back to recency order among the requested candidates
    when the tree's choice is not a candidate (which happens only for the
    partitioned cache).
    """

    def __init__(self, num_sets: int, assoc: int) -> None:
        super().__init__(num_sets, assoc)
        self._leaves = 1
        while self._leaves < assoc:
            self._leaves *= 2
        self._trees = [0] * num_sets
        # Fallback recency for candidate-restricted victim selection.
        self._lru = LRUPolicy(num_sets, assoc)
        # A touch points every node on the way's root-to-leaf walk away
        # from the touched half: ``tree & _keep[way] | _point[way]`` clears
        # the walk's bits and sets those that must point right.
        keep = []
        point = []
        for way in range(assoc):
            walk = 0
            right = 0
            node = 0
            low, high = 0, self._leaves
            while high - low > 1:
                mid = (low + high) // 2
                walk |= 1 << node
                if way < mid:
                    right |= 1 << node
                    node = 2 * node + 1
                    high = mid
                else:
                    node = 2 * node + 2
                    low = mid
            keep.append(~walk)
            point.append(right)
        self._keep = tuple(keep)
        self._point = tuple(point)

    def on_hit(self, set_index: int, way: int, pc: int | None = None) -> None:
        # The tree update and the fallback-LRU stamp are written out inline:
        # this runs on every hit of every PLRU cache (the L1's entire hot
        # path), where a call chain per touch was measurable.
        trees = self._trees
        trees[set_index] = trees[set_index] & self._keep[way] | self._point[way]
        lru = self._lru
        lru._stamp += 1
        lru._last_use[set_index][way] = lru._stamp

    # Fills update exactly the same state.
    on_fill = on_hit

    def victim(self, set_index: int, candidates: Sequence[int]) -> int:
        tree = self._trees[set_index]
        node = 0
        low, high = 0, self._leaves
        while high - low > 1:
            mid = (low + high) // 2
            if not tree >> node & 1:
                node = 2 * node + 1
                high = mid
            else:
                node = 2 * node + 2
                low = mid
        choice = low
        if choice in candidates:
            return choice
        return self._lru.victim(set_index, candidates)

    def on_invalidate(self, set_index: int, way: int) -> None:
        self._lru.on_invalidate(set_index, way)


class SRRIPPolicy(ReplacementPolicy):
    """Static re-reference interval prediction (RRIP) [Jaleel et al., ISCA'10].

    Triangel replaces HawkEye with SRRIP for its Markov partition to save the
    13 KiB HawkEye dueller (paper section 4.8).  New lines are inserted with
    a "long" re-reference prediction (RRPV = max-1); hits promote to 0;
    victims are lines with RRPV == max, aging everyone when none exists.
    """

    def __init__(self, num_sets: int, assoc: int, rrpv_bits: int = 2) -> None:
        super().__init__(num_sets, assoc)
        if rrpv_bits <= 0:
            raise ValueError("rrpv_bits must be positive")
        self.max_rrpv = (1 << rrpv_bits) - 1
        self._rrpv = [[self.max_rrpv] * assoc for _ in range(num_sets)]

    def on_fill(self, set_index: int, way: int, pc: int | None = None) -> None:
        self._rrpv[set_index][way] = self.max_rrpv - 1

    def on_hit(self, set_index: int, way: int, pc: int | None = None) -> None:
        self._rrpv[set_index][way] = 0

    def victim(self, set_index: int, candidates: Sequence[int]) -> int:
        if not candidates:
            raise ValueError(NO_CANDIDATES)
        rrpvs = self._rrpv[set_index]
        max_rrpv = self.max_rrpv
        while True:
            for way in candidates:
                if rrpvs[way] >= max_rrpv:
                    return way
            for way in candidates:
                rrpvs[way] += 1

    def on_invalidate(self, set_index: int, way: int) -> None:
        self._rrpv[set_index][way] = self.max_rrpv


class BRRIPPolicy(SRRIPPolicy):
    """Bimodal RRIP: mostly-distant insertion with occasional long insertion.

    Included for completeness of the replacement study; it behaves like SRRIP
    but inserts with the maximum RRPV most of the time, which protects the
    cache against scanning workloads.
    """

    def __init__(
        self,
        num_sets: int,
        assoc: int,
        rrpv_bits: int = 2,
        long_insert_probability: float = 1.0 / 32.0,
        seed: int = 0xB1BB,
    ) -> None:
        super().__init__(num_sets, assoc, rrpv_bits)
        self._probability = long_insert_probability
        self._rng = random.Random(seed)

    def on_fill(self, set_index: int, way: int, pc: int | None = None) -> None:
        if self._rng.random() < self._probability:
            self._rrpv[set_index][way] = self.max_rrpv - 1
        else:
            self._rrpv[set_index][way] = self.max_rrpv


_POLICY_FACTORIES = {
    "lru": LRUPolicy,
    "fifo": FIFOPolicy,
    "random": RandomPolicy,
    "plru": TreePLRUPolicy,
    "srrip": SRRIPPolicy,
    "brrip": BRRIPPolicy,
}


def make_replacement_policy(name: str, num_sets: int, assoc: int) -> ReplacementPolicy:
    """Create a replacement policy by name (``lru``, ``fifo``, ``random``,
    ``plru``, ``srrip``, ``brrip`` or ``hawkeye``)."""

    key = name.lower()
    if key == "hawkeye":
        # Imported lazily to avoid a circular import with hawkeye.py.
        from repro.memory.hawkeye import HawkEyePolicy

        return HawkEyePolicy(num_sets, assoc)
    try:
        factory = _POLICY_FACTORIES[key]
    except KeyError as exc:
        raise ValueError(
            f"unknown replacement policy {name!r}; expected one of "
            f"{sorted(_POLICY_FACTORIES) + ['hawkeye']}"
        ) from exc
    return factory(num_sets, assoc)
