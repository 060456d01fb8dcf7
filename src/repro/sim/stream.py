"""The columnar access-stream protocol the fast kernel runs on.

Every simulated access used to cross the engine boundary as one
:class:`~repro.memory.request.MemoryAccess` object — even when the trace was
already stored as packed columns (:class:`~repro.traces.format.PackedTrace`),
iteration re-materialised one frozen object per access.  This module defines
the protocol that removes those objects from the hot path:

* :class:`AccessColumns` — the exchange value: a ``pcs`` column, an
  ``addresses`` column, a per-access ``writes`` flag buffer and the record
  count, all indexable by access position;
* :class:`AccessStream` — anything that can hand over its columns:
  :class:`~repro.traces.format.PackedTrace` exposes its storage directly,
  and the object-backed :class:`~repro.workloads.trace.Trace` packs once and
  memoises;
* :func:`access_columns` — the adapter the kernels call: it accepts any
  trace-like object (a stream, or a plain iterable of accesses used by
  tests) and returns its columns, packing as a last resort.

The ``writes`` buffer holds one byte per access (``0`` or ``1``) rather than
a bitset: the kernel indexes it once per access, and a single subscript is
cheaper than the shift-and-mask a bitset lookup needs.
:func:`expand_write_bitset` converts the on-disk LSB-first bitset spelling.
"""

from __future__ import annotations

from typing import NamedTuple, Protocol, Sequence, runtime_checkable


class AccessColumns(NamedTuple):
    """One access stream as parallel, position-indexed columns.

    ``pcs[i]``, ``addresses[i]`` and ``writes[i]`` describe the ``i``-th
    access; ``length`` is the record count (columns may be longer — the
    ``writes`` buffer of a bitset expansion rounds up — but never shorter).
    """

    pcs: Sequence[int]
    addresses: Sequence[int]
    writes: Sequence[int]
    length: int


@runtime_checkable
class AccessStream(Protocol):
    """A workload that can expose its accesses as columns.

    Implementations must return the *same* column identity on repeated
    calls while the stream is unchanged (the packing is done once, at build
    or first-use time), so the kernels can ask for columns without worrying
    about repeated conversion cost.
    """

    def __len__(self) -> int: ...

    def access_columns(self) -> AccessColumns: ...


def expand_write_bitset(bits: bytes, count: int) -> bytearray:
    """Expand an LSB-first write bitset into one 0/1 byte per access."""

    flags = bytearray(count)
    if count == 0:
        return flags
    position = 0
    for byte in bits[: (count + 7) // 8]:
        if byte:
            limit = min(8, count - position)
            for offset in range(limit):
                if byte >> offset & 1:
                    flags[position + offset] = 1
        position += 8
    return flags


def pack_columns(accesses) -> AccessColumns:
    """Pack any iterable of access objects into fresh columns (fallback)."""

    from array import array

    pcs = array("Q")
    addresses = array("Q")
    writes = bytearray()
    for access in accesses:
        pcs.append(access.pc)
        addresses.append(access.address)
        writes.append(1 if access.is_write else 0)
    return AccessColumns(pcs=pcs, addresses=addresses, writes=writes, length=len(pcs))


def slice_columns(columns: AccessColumns, start: int, stop: int) -> AccessColumns:
    """A zero-copy view of one contiguous window of a column set.

    Buffer-backed columns — ``array('Q')``, ``bytearray``, ``bytes``,
    ``memoryview`` — are sliced through
    :class:`memoryview`, which shares the underlying storage; slicing the
    containers directly would copy the window.  Plain sequences (the test
    fallback) fall back to an ordinary copying slice.
    """

    start, stop, _ = slice(start, stop).indices(columns.length)
    stop = max(start, stop)

    def view(column):
        try:
            window = memoryview(column)
        except TypeError:
            return column[start:stop]
        return window[start:stop]

    return AccessColumns(
        pcs=view(columns.pcs),
        addresses=view(columns.addresses),
        writes=view(columns.writes),
        length=stop - start,
    )


def access_columns(trace) -> AccessColumns:
    """The columns of any trace-like object (the kernels' single entry).

    Streams that satisfy :class:`AccessStream` — :class:`PackedTrace`, the
    column-backed :class:`Trace`, anything else exposing
    ``access_columns()`` — hand over their storage without copying.  Plain
    iterables of access objects (lists in tests, ad-hoc generators) are
    packed on the spot; that path re-packs per call, so it is kept off the
    experiment layer's hot path.
    """

    getter = getattr(trace, "access_columns", None)
    if getter is not None:
        return getter()
    return pack_columns(trace)
