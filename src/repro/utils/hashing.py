"""Hardware-style hashing and sampling primitives.

The Markov table and the training table in both Triage and Triangel identify
entries by *hashed tags* rather than full addresses (paper sections 3.1 and
4.2): the upper bits of an address (or PC) are XOR-folded down to a small
number of bits.  The History Sampler inserts entries probabilistically using
a cheap pseudo-random source; the paper notes a linear congruential generator
is sufficient (section 4.4.3, footnote 6).

These helpers are deliberately dependency-free and deterministic so that
every simulation run is exactly reproducible.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1


def mix64(value: int) -> int:
    """Mix the bits of ``value`` with a splitmix64-style finalizer.

    This is used wherever the model needs a well-distributed hash of an
    address (Bloom filters, sampled-set selection).  It is *not* meant to
    model a specific hardware circuit; hardware would use a simpler XOR tree,
    but the statistical behaviour (uniform spread of indices) is what matters
    for the simulation.
    """

    value &= _MASK64
    value = (value ^ (value >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    value = (value ^ (value >> 27)) * 0x94D049BB133111EB & _MASK64
    return (value ^ (value >> 31)) & _MASK64


def fold_hash(value: int, bits: int) -> int:
    """XOR-fold ``value`` down to ``bits`` bits.

    This mirrors the tag-hash generation used by Triage-ISR and Triangel:
    the address is split into ``bits``-wide chunks which are XORed together.
    Folding (rather than truncating) means that high-order address bits still
    influence the tag, which is what lets a 10-bit hashed tag distinguish
    most addresses that share a cache index (paper section 3.1, footnote 3).

    Parameters
    ----------
    value:
        Non-negative integer to fold.
    bits:
        Width of the result in bits; must be positive.
    """

    if bits <= 0:
        raise ValueError(f"bits must be positive, got {bits}")
    if value < 0:
        raise ValueError(f"value must be non-negative, got {value}")
    if not value >> bits:
        return value
    # Fold in log2 steps rather than one chunk at a time: start from the
    # smallest width ``bits * 2**k`` that covers the value, then XOR its
    # upper half onto its lower half until ``bits`` remain.  Halves stay
    # chunk-aligned, so the result is the XOR of every chunk.
    width = bits << ((value.bit_length() - 1) // bits).bit_length()
    while width > bits:
        width >>= 1
        value = (value >> width) ^ (value & ((1 << width) - 1))
    return value


def tag_hash(address: int, bits: int = 10) -> int:
    """Return the hashed tag used to identify Markov/training entries.

    The paper increases the hashed-tag size to 10 bits (from Triage-ISR's 7)
    because the collision probability of a 7-bit tag over the 128 candidate
    entries of a set is ~0.63 (section 3.1, footnote 3).  The default here is
    therefore 10 bits.
    """

    return fold_hash(address, bits)


class LinearCongruentialSampler:
    """Deterministic pseudo-random source for sampling decisions.

    Models the cheap LCG the paper says is good enough for the History
    Sampler's probabilistic insertion (section 4.4.3).  The generator
    produces values in ``[0, 1)`` via :meth:`uniform` and supports the
    "sample with probability p" idiom through :meth:`sample`.
    """

    _A = 6364136223846793005
    _C = 1442695040888963407

    def __init__(self, seed: int = 0x5EED) -> None:
        self._state = mix64(seed)

    def next_raw(self) -> int:
        """Advance the generator and return the raw 64-bit state."""

        self._state = (self._state * self._A + self._C) & _MASK64
        return self._state

    def uniform(self) -> float:
        """Return a deterministic pseudo-uniform value in ``[0, 1)``."""

        return (self.next_raw() >> 11) / float(1 << 53)

    def sample(self, probability: float) -> bool:
        """Return ``True`` with the given probability.

        Probabilities outside ``[0, 1]`` are clamped, matching the hardware
        behaviour where a probability register simply saturates.
        """

        if probability <= 0.0:
            # Still advance the generator so call sites remain in lock-step
            # regardless of the probability value; this keeps experiments
            # comparable when only thresholds change.
            self.next_raw()
            return False
        if probability >= 1.0:
            self.next_raw()
            return True
        return self.uniform() < probability

    def randint(self, upper: int) -> int:
        """Return a deterministic pseudo-random integer in ``[0, upper)``."""

        if upper <= 0:
            raise ValueError(f"upper must be positive, got {upper}")
        return self.next_raw() % upper
