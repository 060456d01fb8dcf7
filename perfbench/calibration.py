"""Host-speed calibration for the benchmark's timings.

The reference host is shared: other tenants slow it by up to 2x, in
phases that last from seconds to many minutes.  Process CPU time moves
with wall time, and no within-run statistic can remove a slow phase that
covers a whole run.  So the benchmark runs a :class:`Probe`, a fixed
pure-Python loop, between its operations.  Each stretch of work between
two probes is divided by the host's slowdown over it: the mean of the two
probes' medians over the probe's quiet-host time.  Reported times are
thus host seconds at the reference speed.  A change to the program cannot
move a probe, so it still moves every calibrated time; run records keep
the raw times and slowdowns.

There are two probes, because tenants slow the interpreter and the shared
L3 cache differently:

* :data:`INTERPRETER` touches 1024 objects that stay in the L1 cache.  It
  tracks work whose data does, like a replay of an L1-resident chase or a
  warm request.
* :data:`MEMORY` looks up a 512Ki-entry dict (34 MiB, beyond the
  per-core L2) at scattered keys.  It tracks the simulator's cold runs,
  whose caches, Markov tables and traces live in the L3.  On the
  reference host it brought two runs of one seed from 8% apart to 2%,
  but it over-reacts on a quiet host and under-reacts on a busy one
  (perfbench/README.md gives the figures).
"""

from __future__ import annotations

import statistics
import sys
from time import perf_counter

_ROUNDS = 40000
#: Loop runs per probe; their median ignores one that an interrupt hit.
_SAMPLES = 3


class _Line:
    __slots__ = ("tag", "uses")

    def __init__(self, tag: int) -> None:
        self.tag = tag
        self.uses = 0

    def touch(self, tag: int) -> bool:
        self.uses += 1
        return self.tag == tag


def _interpreter_loop(lines) -> float:
    hits = 0
    start = perf_counter()
    for step in range(_ROUNDS):
        if lines[(step * 7919) & 1023].touch(step & 255):
            hits += 1
    return perf_counter() - start


_MEMORY_MASK = (1 << 19) - 1


def _memory_loop(table) -> float:
    hits = 0
    start = perf_counter()
    for step in range(_ROUNDS):
        key = (step * 245549) & _MEMORY_MASK
        if table[key] == (step & 1):
            hits += 1
        table[key] = step & 1
    return perf_counter() - start


def _memory_table() -> dict:
    # Keys and values are ints, so the cycle collector never tracks the
    # table and the program's own collections do not slow down.
    return dict.fromkeys(range(_MEMORY_MASK + 1), 0)


def _memory_table_mb(table: dict) -> float:
    # The dict's arrays and its int keys, each in a 16-byte-aligned block of
    # the object allocator; every value is the shared 0 or 1.
    keys = sum(-(-sys.getsizeof(key) // 16) * 16 for key in table)
    return (sys.getsizeof(table) + keys) / 2**20


class Probe:
    """One calibration loop, its data (built once; the loop allocates
    nothing) and its time on the reference host."""

    def __init__(self, loop, build, reference_s: float, size_mb=None) -> None:
        self._loop = loop
        self._build = build
        self._size_mb = size_mb
        self._data = None
        self.reference_s = reference_s
        #: MiB the probe's data keeps resident (when it is large enough
        #: to count).
        self.resident_mb = 0.0

    def build(self) -> None:
        if self._data is None:
            self._data = self._build()
            if self._size_mb is not None:
                self.resident_mb = self._size_mb(self._data)

    def slowdown(self) -> float:
        """The host's slowdown now: median probe time over the reference."""

        self.build()
        samples = [self._loop(self._data) for _ in range(_SAMPLES)]
        return statistics.median(samples) / self.reference_s


#: Reference times: the probe's median in a quiet phase of the reference
#: host (Intel Xeon, 2.0 GHz, 2 vCPUs, 105 MiB L3, CPython 3.11.7).
INTERPRETER = Probe(
    _interpreter_loop, lambda: {key: _Line(key & 255) for key in range(1024)}, 0.0050
)
#: Build it before the program is imported: growing the dict briefly holds
#: its old and new arrays, and that transient must stay below the peak the
#: program later reaches on top of the finished table.
MEMORY = Probe(_memory_loop, _memory_table, 0.022, size_mb=_memory_table_mb)
