"""The ``.rtrc`` packed binary trace format and its array-backed container.

Every workload in the repository used to exist only as a Python generator
that rebuilt its :class:`~repro.workloads.trace.Trace` — a list of
per-access :class:`~repro.memory.request.MemoryAccess` objects — on every
cold run.  This module makes access streams first-class on-disk artefacts:

* :class:`PackedTrace` holds an access stream as three parallel columns —
  ``array('Q')`` program counters, ``array('Q')`` physical addresses and a
  write bitset — and satisfies the :class:`~repro.workloads.trace.Trace`
  iteration protocol (``__iter__``/``__len__``/``__getitem__``/``slice``/
  ``unique_lines``/``unique_pcs``) without ever materialising a list of
  per-access objects;
* :func:`save_trace` / :func:`load_trace` round-trip any trace-like object
  through the versioned ``.rtrc`` container described below, optionally
  gzip-compressed (a ``.gz`` suffix compresses on save; loads sniff the
  gzip magic, so either spelling reads either file);
* :func:`read_header` inspects a file without decoding its payload, and
  :func:`trace_file_digest` content-addresses a file for the experiment
  layer's spec hashing (see :mod:`repro.experiments.jobs`).

Version 1 layout (raw columns; all integers little-endian)::

    offset  size  field
    0       4     magic  b"RTRC"
    4       2     format version (1)
    6       2     flags (reserved, 0)
    8       1     line shift (LINE_SHIFT at save time; readers check it)
    9       3     reserved (zero)
    12      8     record count N
    20      4     header-JSON length H
    24      H     header JSON: {"name": ..., "metadata": {...}}
    24+H    8*N   program counters, uint64 each
    ...     8*N   physical addresses, uint64 each
    ...     ⌈N/8⌉ write bitset, LSB-first within each byte

Version 2 layout (chunked delta/varint; the default write format)::

    offset  size  field
    0       24    fixed header as in v1, version field = 2
    24      H     header JSON (unchanged)
    24+H    ...   C chunk bodies, back to back
    F       32*C  chunk index: per chunk <file offset, record count,
                  first pc, first address>, four uint64 each
    EOF-28  28    trailer: <footer offset F, chunk count C,
                  records per chunk, magic b"RTC2">

    chunk body:
    0       12    section lengths <pc bytes, address bytes, write bytes>,
                  three uint32
    12      ...   pc column: zig-zag deltas, LEB128 varints (the chunk's
                  first record is anchored in the chunk index)
    ...     ...   address column: same encoding
    ...     ...   write flags: run lengths as LEB128 varints, alternating
                  read/write runs (first run is reads, possibly zero),
                  summing to the chunk's record count

Every chunk holds exactly ``records per chunk`` records except the last,
so a record position maps to its chunk by one integer division and any
record range decodes by touching only the chunks that cover it — the
chunk index is what lets window sampling skip the rest
of a multi-gigabyte capture.  :class:`ChunkedTrace` is the lazy container
over this layout; v1 files load into :class:`PackedTrace` exactly as
before, and :func:`save_trace` still writes v1 on request.

The line shift travels in the header so a stream packed under one line
geometry is never silently interpreted under another — it is the same
:data:`~repro.workloads.trace.LINE_SHIFT` constant trace statistics use.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import os
import struct
import sys
from array import array
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from repro.memory.request import MemoryAccess
from repro.sim.stream import AccessColumns, expand_write_bitset, slice_columns
from repro.workloads.trace import LINE_SHIFT, Trace, distinct_line_count

#: Magic bytes opening every ``.rtrc`` file.
MAGIC = b"RTRC"

#: Current (default write) format version.
FORMAT_VERSION = 2

#: Every version this build reads.  v1 is the raw-column layout; v2 is the
#: chunked delta/varint layout (see the module docstring).
SUPPORTED_VERSIONS = (1, 2)

#: Records per chunk in a v2 file.  64Ki keeps a decoded chunk's columns
#: around 1 MiB while making the chunk index negligible (32 bytes per 64Ki
#: records); :func:`save_trace` takes an override for tests and tooling.
CHUNK_RECORDS = 65536

#: Decoded chunks a :class:`ChunkedTrace` keeps hot (LRU).  Sequential
#: window replay needs at most two (a window straddling one boundary);
#: the slack covers samplers hopping between a few regions.
CHUNK_CACHE_LIMIT = 8

#: The canonical file suffixes, in resolution-preference order.  The
#: workload registry's ``trace:`` resolution and directory scans, the
#: writers' suffix choice (:func:`trace_suffix`) and the sibling cleanup
#: (:func:`remove_stale_sibling`) all derive from this tuple, so a new
#: suffix added here is discovered everywhere.
TRACE_SUFFIXES = (".rtrc", ".rtrc.gz")


def trace_suffix(compress: bool) -> str:
    """The file suffix a writer should use (single source: TRACE_SUFFIXES)."""

    return TRACE_SUFFIXES[1] if compress else TRACE_SUFFIXES[0]

_FIXED_HEADER = struct.Struct("<4sHHB3xQI")
_GZIP_MAGIC = b"\x1f\x8b"

# -- version 2 framing -------------------------------------------------------
#: Per-chunk section lengths: pc bytes, address bytes, write-run bytes.
_V2_CHUNK_HEADER = struct.Struct("<III")
#: One chunk-index entry: file offset, record count, first pc, first address.
_V2_FOOTER_ENTRY = struct.Struct("<QQQQ")
#: End-of-file trailer: footer offset, chunk count, records per chunk, magic.
_V2_TRAILER = struct.Struct("<QQQ4s")
_V2_TRAILER_MAGIC = b"RTC2"

#: uint64 wrap mask for delta reconstruction.
_MASK64 = (1 << 64) - 1


class TraceFormatError(ValueError):
    """A file is not a readable ``.rtrc`` trace (bad magic, version, size)."""


def _pack_bits(flags: Iterable[bool], count: int) -> bytearray:
    """Pack booleans into an LSB-first bitset of ``ceil(count / 8)`` bytes."""

    bits = bytearray((count + 7) // 8)
    for index, flag in enumerate(flags):
        if flag:
            bits[index >> 3] |= 1 << (index & 7)
    return bits


# ---------------------------------------------------------------------------
# Version 2 codecs: zig-zag delta varints and write-run RLE
# ---------------------------------------------------------------------------
def _encode_varint(out: bytearray, value: int) -> None:
    """Append ``value`` (non-negative) to ``out`` as an LEB128 varint."""

    while value > 0x7F:
        out.append(value & 0x7F | 0x80)
        value >>= 7
    out.append(value)


def _encode_deltas(column, start: int, stop: int) -> bytes:
    """Records ``(start, stop)`` of a uint64 column as zig-zag delta varints.

    The first record (``column[start]``) is *not* encoded — it travels in
    the chunk index as the anchor the decoder starts from.  Deltas are
    signed differences of consecutive uint64 values, so they span
    ±(2^64−1); the zig-zag fold uses a 64-bit arithmetic shift over
    Python's arbitrary-precision ints (``delta >> 64`` is 0 for positive
    deltas and −1 for negative ones), which keeps the whole range
    reversible.
    """

    out = bytearray()
    append = out.append
    prev = column[start]
    for index in range(start + 1, stop):
        value = column[index]
        delta = value - prev
        prev = value
        z = (delta << 1) ^ (delta >> 64)
        while z > 0x7F:
            append(z & 0x7F | 0x80)
            z >>= 7
        append(z)
    return bytes(out)


def _decode_deltas(section: bytes, first: int, count: int, context: str) -> array:
    """Invert :func:`_encode_deltas` into a fresh ``array('Q')`` column."""

    column = array("Q", bytes(8 * count))
    if count:
        column[0] = first & _MASK64
    prev = first
    position = 0
    try:
        for index in range(1, count):
            byte = section[position]
            position += 1
            if byte < 0x80:
                z = byte
            else:
                z = byte & 0x7F
                shift = 7
                while True:
                    byte = section[position]
                    position += 1
                    z |= (byte & 0x7F) << shift
                    if byte < 0x80:
                        break
                    shift += 7
            prev = (prev + ((z >> 1) ^ -(z & 1))) & _MASK64
            column[index] = prev
    except IndexError:
        raise TraceFormatError(f"{context}: delta section truncated") from None
    if position != len(section):
        raise TraceFormatError(
            f"{context}: {len(section) - position} stray bytes after the "
            f"last delta (torn chunk?)"
        )
    return column


def _encode_write_runs(flags, start: int, stop: int) -> bytes:
    """Write flags of ``(start, stop)`` as alternating run-length varints.

    Runs alternate read/write starting with a read run (zero when the
    window opens on a store) and sum to the window length.  Run boundaries
    are found with ``bytes.find`` over the expanded 0/1 flag bytes — a
    C-level scan, not a per-access Python loop.
    """

    window = bytes(flags[start:stop])
    out = bytearray()
    position = 0
    length = len(window)
    needle = b"\x01"
    while position < length:
        boundary = window.find(needle, position)
        if boundary < 0:
            boundary = length
        _encode_varint(out, boundary - position)
        position = boundary
        needle = b"\x00" if needle == b"\x01" else b"\x01"
    return bytes(out)


def _decode_varints(section: bytes, context: str) -> list[int]:
    """Every LEB128 varint in ``section``, in order."""

    values = []
    position = 0
    length = len(section)
    while position < length:
        value = 0
        shift = 0
        while True:
            if position >= length:
                raise TraceFormatError(f"{context}: truncated varint")
            byte = section[position]
            position += 1
            value |= (byte & 0x7F) << shift
            if byte < 0x80:
                break
            shift += 7
        values.append(value)
    return values


def _decode_write_runs(section: bytes, count: int, context: str) -> bytearray:
    """Invert :func:`_encode_write_runs` into one 0/1 flag byte per record."""

    flags = bytearray(count)
    at = 0
    writing = False
    for run in _decode_varints(section, context):
        end = at + run
        if end > count:
            raise TraceFormatError(
                f"{context}: write runs cover {end} of {count} records "
                f"(torn chunk?)"
            )
        if writing and run:
            flags[at:end] = b"\x01" * run
        at = end
        writing = not writing
    if at != count:
        raise TraceFormatError(
            f"{context}: write runs cover {at} of {count} records (torn chunk?)"
        )
    return flags


class PackedTrace:
    """An access stream stored as parallel columns instead of objects.

    Satisfies the same iteration protocol as
    :class:`~repro.workloads.trace.Trace` — the simulator, the experiment
    layer and the statistics helpers accept either interchangeably — while
    holding the stream as two ``array('Q')`` columns plus a write bitset,
    about 17 bytes per access instead of a boxed object.  Iteration yields
    :class:`~repro.memory.request.MemoryAccess` values created on the fly;
    nothing per-access is retained.
    """

    __slots__ = (
        "name",
        "metadata",
        "line_shift",
        "_pcs",
        "_addresses",
        "_writes",
        "_write_flags",
        "_write_count",
        "_buffer",
    )

    def __init__(
        self,
        name: str,
        pcs: array,
        addresses: array,
        writes: bytearray | bytes,
        metadata: dict | None = None,
        line_shift: int = LINE_SHIFT,
    ) -> None:
        if len(pcs) != len(addresses):
            raise ValueError("pc and address columns must have equal length")
        if len(writes) < (len(pcs) + 7) // 8:
            raise ValueError("write bitset shorter than the record count")
        self.name = name
        self.metadata = dict(metadata or {})
        self.line_shift = line_shift
        self._pcs = pcs
        self._addresses = addresses
        self._writes = bytes(writes)
        self._write_flags: bytearray | None = None
        self._write_count: int | None = None
        # The mmap (or other buffer) the columns are views into, when the
        # trace was opened zero-copy; holding it here pins the mapping for
        # the life of the trace.  ``None`` for materialised columns.
        self._buffer = None

    # -- construction --------------------------------------------------------
    @classmethod
    def from_accesses(
        cls,
        name: str,
        accesses: Iterable[MemoryAccess],
        metadata: dict | None = None,
    ) -> "PackedTrace":
        """Pack any iterable of accesses (e.g. a live generator's trace)."""

        pcs = array("Q")
        addresses = array("Q")
        write_flags: list[bool] = []
        for access in accesses:
            pcs.append(access.pc)
            addresses.append(access.address)
            write_flags.append(access.is_write)
        return cls(
            name=name,
            pcs=pcs,
            addresses=addresses,
            writes=_pack_bits(write_flags, len(pcs)),
            metadata=metadata,
        )

    # -- the Trace protocol --------------------------------------------------
    def __len__(self) -> int:
        return len(self._pcs)

    def __iter__(self) -> Iterator[MemoryAccess]:
        writes = self._writes
        for index, (pc, address) in enumerate(zip(self._pcs, self._addresses)):
            yield MemoryAccess(
                pc=pc,
                address=address,
                is_write=bool(writes[index >> 3] >> (index & 7) & 1),
            )

    def __getitem__(self, index: int) -> MemoryAccess:
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError("trace index out of range")
        return MemoryAccess(
            pc=self._pcs[index],
            address=self._addresses[index],
            is_write=bool(self._writes[index >> 3] >> (index & 7) & 1),
        )

    # -- the columnar protocol (see repro.sim.stream) ------------------------
    def access_columns(self) -> AccessColumns:
        """The stream as position-indexed columns, sharing the storage.

        The pc/address columns are handed over as-is; the on-disk write
        bitset is expanded to one flag byte per access on first use and
        memoised (a :class:`PackedTrace` is immutable, so the expansion can
        never go stale).
        """

        flags = self._write_flags
        if flags is None:
            flags = expand_write_bitset(self._writes, len(self._pcs))
            self._write_flags = flags
        return AccessColumns(
            pcs=self._pcs,
            addresses=self._addresses,
            writes=flags,
            length=len(self._pcs),
        )

    def is_write(self, index: int) -> bool:
        """Whether the ``index``-th access is a store (bitset lookup)."""

        return bool(self._writes[index >> 3] >> (index & 7) & 1)

    def write_count(self) -> int:
        """Number of stores in the trace (bitset popcount, not a scan).

        The whole bitset pops as one big-int ``bit_count`` — no per-byte
        Python loop — and the result is memoised (the trace is immutable),
        so repeated inspection never recounts.  Bits beyond the record
        count in the final byte are masked out, so a foreign file with
        stray tail bits can never inflate the count.
        """

        cached = self._write_count
        if cached is None:
            count = len(self)
            used = (count + 7) // 8
            total = int.from_bytes(self._writes[:used], "little").bit_count()
            tail_bits = count & 7
            if tail_bits and used:
                stray = self._writes[used - 1] >> tail_bits
                total -= stray.bit_count()
            self._write_count = cached = total
        return cached

    def unique_lines(self) -> int:
        """Number of distinct cache lines touched (the trace's footprint)."""

        return distinct_line_count(self._addresses, self.line_shift)

    def unique_pcs(self) -> int:
        """Number of distinct PCs appearing in the trace."""

        return len(set(self._pcs))

    def slice(self, start: int, stop: int) -> "PackedTrace":
        """A sub-trace covering records ``[start:stop)``, columns re-sliced."""

        start, stop, _ = slice(start, stop).indices(len(self))
        write_flags = (self.is_write(index) for index in range(start, stop))
        return PackedTrace(
            name=f"{self.name}[{start}:{stop}]",
            pcs=self._pcs[start:stop],
            addresses=self._addresses[start:stop],
            writes=_pack_bits(write_flags, max(0, stop - start)),
            metadata=dict(self.metadata),
            line_shift=self.line_shift,
        )

    def to_trace(self) -> Trace:
        """Materialise a plain object-backed :class:`Trace` (tests, tooling)."""

        return Trace(name=self.name, accesses=list(self), metadata=dict(self.metadata))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PackedTrace(name={self.name!r}, records={len(self)})"


class ChunkedTrace:
    """A v2 ``.rtrc`` stream decoded chunk by chunk, on demand.

    Satisfies the same :class:`~repro.workloads.trace.Trace` iteration
    protocol and the :class:`~repro.sim.stream.AccessStream` columnar
    protocol as :class:`PackedTrace`, but holds only the *encoded* chunk
    bytes (an mmap view for uncompressed files) plus a small LRU of decoded
    chunks.  Consumers that need one record range — the samplers — call
    :meth:`window_columns` and decode only the chunks the
    range covers; :attr:`chunks_decoded` counts real decodes so tests can
    assert that selectivity.  A full :meth:`access_columns` materialisation
    is memoised, after which window views are zero-copy slices of it.
    """

    __slots__ = (
        "name",
        "metadata",
        "line_shift",
        "_data",
        "_entries",
        "_footer_offset",
        "_chunk_records",
        "_length",
        "_cache",
        "_cache_limit",
        "chunks_decoded",
        "_columns",
        "_write_count",
        "_packed",
        "_buffer",
    )

    def __init__(
        self,
        name: str,
        data,
        entries: list[tuple],
        footer_offset: int,
        chunk_records: int,
        records: int,
        metadata: dict | None = None,
        line_shift: int = LINE_SHIFT,
        cache_chunks: int = CHUNK_CACHE_LIMIT,
    ) -> None:
        self.name = name
        self.metadata = dict(metadata or {})
        self.line_shift = line_shift
        self._data = data
        self._entries = entries
        self._footer_offset = footer_offset
        self._chunk_records = max(1, chunk_records)
        self._length = records
        self._cache: OrderedDict = OrderedDict()
        self._cache_limit = max(1, cache_chunks)
        #: Chunks actually decoded over this trace's lifetime (cache misses
        #: only) — the observable the selective-decode tests count.
        self.chunks_decoded = 0
        self._columns: AccessColumns | None = None
        self._write_count: int | None = None
        self._packed: PackedTrace | None = None
        # Pins the mmap the encoded bytes are a view into (see PackedTrace).
        self._buffer = None

    # -- chunk plumbing ------------------------------------------------------
    @property
    def chunk_count(self) -> int:
        """Number of chunks in the underlying file."""

        return len(self._entries)

    @property
    def chunk_records(self) -> int:
        """Nominal records per chunk (every chunk but the last is full)."""

        return self._chunk_records

    @property
    def payload_bytes(self) -> int:
        """Encoded size of the chunk payload (headers and footer excluded)."""

        if not self._entries:
            return 0
        return self._footer_offset - self._entries[0][0]

    def _chunk_bounds(self, index: int) -> tuple[int, int]:
        start = self._entries[index][0]
        if index + 1 < len(self._entries):
            end = self._entries[index + 1][0]
        else:
            end = self._footer_offset
        return start, end

    def _decode_chunk(self, index: int) -> tuple[array, array, bytearray]:
        offset, records, first_pc, first_address = self._entries[index]
        start, end = self._chunk_bounds(index)
        context = f"{self.name}: chunk {index}"
        data = self._data
        if end - start < _V2_CHUNK_HEADER.size:
            raise TraceFormatError(f"{context}: chunk header torn")
        pc_bytes, address_bytes, write_bytes = _V2_CHUNK_HEADER.unpack_from(
            data, start
        )
        body = start + _V2_CHUNK_HEADER.size
        if body + pc_bytes + address_bytes + write_bytes != end:
            raise TraceFormatError(
                f"{context}: section lengths do not match the chunk extent "
                f"(torn chunk?)"
            )
        pc_section = bytes(data[body : body + pc_bytes])
        address_section = bytes(
            data[body + pc_bytes : body + pc_bytes + address_bytes]
        )
        write_section = bytes(data[body + pc_bytes + address_bytes : end])
        pcs = _decode_deltas(pc_section, first_pc, records, f"{context} pc column")
        addresses = _decode_deltas(
            address_section, first_address, records, f"{context} address column"
        )
        flags = _decode_write_runs(write_section, records, f"{context} write runs")
        self.chunks_decoded += 1
        return pcs, addresses, flags

    def _chunk(self, index: int) -> tuple[array, array, bytearray]:
        """The decoded columns of one chunk, through the LRU cache."""

        cache = self._cache
        chunk = cache.get(index)
        if chunk is not None:
            cache.move_to_end(index)
            return chunk
        chunk = self._decode_chunk(index)
        cache[index] = chunk
        if len(cache) > self._cache_limit:
            cache.popitem(last=False)
        return chunk

    # -- the Trace protocol --------------------------------------------------
    def __len__(self) -> int:
        return self._length

    def __iter__(self) -> Iterator[MemoryAccess]:
        for index in range(len(self._entries)):
            pcs, addresses, flags = self._chunk(index)
            for pc, address, flag in zip(pcs, addresses, flags):
                yield MemoryAccess(pc=pc, address=address, is_write=bool(flag))

    def __getitem__(self, index: int) -> MemoryAccess:
        if index < 0:
            index += self._length
        if not 0 <= index < self._length:
            raise IndexError("trace index out of range")
        pcs, addresses, flags = self._chunk(index // self._chunk_records)
        position = index % self._chunk_records
        return MemoryAccess(
            pc=pcs[position],
            address=addresses[position],
            is_write=bool(flags[position]),
        )

    def is_write(self, index: int) -> bool:
        """Whether the ``index``-th access is a store (chunk flag lookup)."""

        flags = self._chunk(index // self._chunk_records)[2]
        return bool(flags[index % self._chunk_records])

    def write_count(self) -> int:
        """Number of stores (write-run sums alone — no column decode).

        Walks each chunk's run-length section and sums the write runs; the
        delta-encoded pc/address columns are never touched, so footprint
        inspection of a huge capture stays proportional to the *encoded*
        write sections, not the record count.  Memoised (the trace is
        immutable).
        """

        cached = self._write_count
        if cached is None:
            total = 0
            data = self._data
            for index, (offset, records, _pc, _address) in enumerate(
                self._entries
            ):
                start, _end = self._chunk_bounds(index)
                context = f"{self.name}: chunk {index} write runs"
                pc_bytes, address_bytes, write_bytes = (
                    _V2_CHUNK_HEADER.unpack_from(data, start)
                )
                begin = start + _V2_CHUNK_HEADER.size + pc_bytes + address_bytes
                runs = _decode_varints(
                    bytes(data[begin : begin + write_bytes]), context
                )
                if sum(runs) != records:
                    raise TraceFormatError(
                        f"{context}: runs cover {sum(runs)} of {records} records"
                    )
                total += sum(runs[1::2])
            self._write_count = cached = total
        return cached

    def unique_lines(self) -> int:
        """Number of distinct cache lines touched (the trace's footprint)."""

        return distinct_line_count(self.access_columns().addresses, self.line_shift)

    def unique_pcs(self) -> int:
        """Number of distinct PCs appearing in the trace."""

        return len(set(self.access_columns().pcs))

    def slice(self, start: int, stop: int) -> PackedTrace:
        """A sub-trace over ``[start:stop)``, decoding only covering chunks."""

        start, stop, _ = slice(start, stop).indices(self._length)
        stop = max(start, stop)
        pcs, addresses, flags, length = self.window_columns(start, stop)
        if not isinstance(pcs, array):
            pcs = array("Q", pcs)
            addresses = array("Q", addresses)
        return PackedTrace(
            name=f"{self.name}[{start}:{stop}]",
            pcs=pcs,
            addresses=addresses,
            writes=_pack_bits(flags, length),
            metadata=dict(self.metadata),
            line_shift=self.line_shift,
        )

    def to_trace(self) -> Trace:
        """Materialise a plain object-backed :class:`Trace` (tests, tooling)."""

        return Trace(name=self.name, accesses=list(self), metadata=dict(self.metadata))

    def materialise(self) -> PackedTrace:
        """The whole stream as a :class:`PackedTrace` (memoised)."""

        packed = self._packed
        if packed is None:
            columns = self.access_columns()
            packed = PackedTrace(
                name=self.name,
                pcs=columns.pcs,
                addresses=columns.addresses,
                writes=_pack_bits(columns.writes, self._length),
                metadata=dict(self.metadata),
                line_shift=self.line_shift,
            )
            # The expanded flags are already in hand; seed the memo so the
            # packed view never re-expands its bitset.
            packed._write_flags = columns.writes
            self._packed = packed
        return packed

    # -- the columnar protocol (see repro.sim.stream) ------------------------
    def access_columns(self) -> AccessColumns:
        """The full stream as columns (all chunks decoded once, memoised)."""

        columns = self._columns
        if columns is None:
            pcs = array("Q")
            addresses = array("Q")
            flags = bytearray()
            for index in range(len(self._entries)):
                chunk_pcs, chunk_addresses, chunk_flags = self._chunk(index)
                pcs.extend(chunk_pcs)
                addresses.extend(chunk_addresses)
                flags.extend(chunk_flags)
            columns = AccessColumns(
                pcs=pcs, addresses=addresses, writes=flags, length=self._length
            )
            self._columns = columns
            # The per-chunk copies are now redundant with the materialised
            # columns every later consumer slices from.
            self._cache.clear()
        return columns

    def window_columns(self, start: int, stop: int) -> AccessColumns:
        """Columns for records ``[start:stop)``, touching only their chunks.

        The chunk-selective counterpart of ``access_columns() +
        slice_columns(...)``: the samplers call this so a window of a huge
        capture decodes a handful of chunks instead of the whole payload.
        Once the trace has been fully materialised the window is a
        zero-copy view of those columns.
        """

        start, stop, _ = slice(start, stop).indices(self._length)
        stop = max(start, stop)
        columns = self._columns
        if columns is not None:
            return slice_columns(columns, start, stop)
        if start >= stop:
            return AccessColumns(
                pcs=array("Q"), addresses=array("Q"), writes=bytearray(), length=0
            )
        size = self._chunk_records
        first = start // size
        last = (stop - 1) // size
        if first == last:
            pcs, addresses, flags = self._chunk(first)
            low = start - first * size
            high = stop - first * size
            return AccessColumns(
                pcs=pcs[low:high],
                addresses=addresses[low:high],
                writes=flags[low:high],
                length=stop - start,
            )
        pcs = array("Q")
        addresses = array("Q")
        flags = bytearray()
        for index in range(first, last + 1):
            chunk_pcs, chunk_addresses, chunk_flags = self._chunk(index)
            low = max(start - index * size, 0)
            high = min(stop - index * size, len(chunk_pcs))
            pcs.extend(chunk_pcs[low:high])
            addresses.extend(chunk_addresses[low:high])
            flags.extend(chunk_flags[low:high])
        return AccessColumns(
            pcs=pcs, addresses=addresses, writes=flags, length=stop - start
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ChunkedTrace(name={self.name!r}, records={len(self)}, "
            f"chunks={self.chunk_count})"
        )


@dataclass(frozen=True)
class TraceHeader:
    """The decoded fixed header + JSON header of one ``.rtrc`` file."""

    name: str
    records: int
    line_shift: int
    version: int
    compressed: bool
    metadata: dict


def _column_bytes(column) -> bytes:
    """The column's records as little-endian bytes regardless of host order."""

    if sys.byteorder == "big":  # pragma: no cover - exercised on BE hosts only
        # Zero-copy (memoryview) columns only exist on little-endian hosts,
        # so rebuilding through array('Q') here always sees plain values.
        column = array("Q", column)
        column.byteswap()
    return column.tobytes()


def _column_from_bytes(data: bytes) -> array:
    column = array("Q")
    column.frombytes(data)
    if sys.byteorder == "big":  # pragma: no cover - exercised on BE hosts only
        column.byteswap()
    return column


def pack_trace(trace, name: str | None = None) -> PackedTrace:
    """Pack any trace-like object; a :class:`PackedTrace` passes through.

    Renaming an already-packed trace shares its columns and keeps its
    recorded ``line_shift`` — re-packing access by access would silently
    reset a foreign file's geometry to this build's default.  A
    :class:`ChunkedTrace` materialises (all chunks decoded, memoised on the
    trace) and then follows the same sharing rules.
    """

    if isinstance(trace, ChunkedTrace):
        trace = trace.materialise()
    if isinstance(trace, PackedTrace):
        if name in (None, trace.name):
            return trace
        return PackedTrace(
            name=name,
            pcs=trace._pcs,
            addresses=trace._addresses,
            writes=trace._writes,
            metadata=dict(trace.metadata),
            line_shift=trace.line_shift,
        )
    return PackedTrace.from_accesses(
        name=name or getattr(trace, "name", "trace"),
        accesses=trace,
        metadata=dict(getattr(trace, "metadata", {}) or {}),
    )


def _encode_v2_container(
    packed: PackedTrace, header_json: bytes, chunk_records: int
) -> bytes:
    """Assemble the whole v2 container (chunks, index, trailer) as bytes."""

    if chunk_records < 1:
        raise ValueError("chunk_records must be at least 1")
    count = len(packed)
    columns = packed.access_columns()
    pcs = columns.pcs
    addresses = columns.addresses
    flags = columns.writes
    parts = [
        _FIXED_HEADER.pack(
            MAGIC, 2, 0, packed.line_shift, count, len(header_json)
        ),
        header_json,
    ]
    offset = _FIXED_HEADER.size + len(header_json)
    footer = bytearray()
    chunk_count = 0
    for start in range(0, count, chunk_records):
        stop = min(start + chunk_records, count)
        pc_section = _encode_deltas(pcs, start, stop)
        address_section = _encode_deltas(addresses, start, stop)
        write_section = _encode_write_runs(flags, start, stop)
        body = b"".join(
            (
                _V2_CHUNK_HEADER.pack(
                    len(pc_section), len(address_section), len(write_section)
                ),
                pc_section,
                address_section,
                write_section,
            )
        )
        footer += _V2_FOOTER_ENTRY.pack(
            offset, stop - start, pcs[start], addresses[start]
        )
        parts.append(body)
        offset += len(body)
        chunk_count += 1
    parts.append(bytes(footer))
    parts.append(
        _V2_TRAILER.pack(offset, chunk_count, chunk_records, _V2_TRAILER_MAGIC)
    )
    return b"".join(parts)


def save_trace(
    trace,
    path: str | Path,
    name: str | None = None,
    version: int | None = None,
    chunk_records: int | None = None,
) -> Path:
    """Write a trace-like object to ``path`` in ``.rtrc`` form.

    ``version`` selects the layout — ``2`` (chunked delta/varint, the
    default) or ``1`` (raw columns, for interchange with older readers).
    ``chunk_records`` overrides the v2 chunk size (tests and tooling; the
    default :data:`CHUNK_RECORDS` is right for real captures).  A ``.gz``
    suffix gzip-compresses the file (the whole container, so the reader
    sniffs the gzip magic and either spelling loads either file).  Returns
    the path written.
    """

    if version is None:
        version = FORMAT_VERSION
    if version not in SUPPORTED_VERSIONS:
        raise ValueError(
            f"unsupported .rtrc version {version}; this build writes "
            f"{', '.join(str(v) for v in SUPPORTED_VERSIONS)}"
        )
    packed = pack_trace(trace, name)
    metadata = {
        key: value
        for key, value in packed.metadata.items()
        if _json_safe(value)
    }
    header_json = json.dumps(
        {"name": packed.name, "metadata": metadata}, sort_keys=True
    ).encode("utf-8")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if version == 1:
        container = b"".join(
            (
                _FIXED_HEADER.pack(
                    MAGIC,
                    1,
                    0,
                    packed.line_shift,
                    len(packed),
                    len(header_json),
                ),
                header_json,
                _column_bytes(packed._pcs),
                _column_bytes(packed._addresses),
                packed._writes[: (len(packed) + 7) // 8],
            )
        )
    else:
        container = _encode_v2_container(
            packed, header_json, chunk_records or CHUNK_RECORDS
        )
    if path.suffix == ".gz":
        # gzip.compress with mtime=0 embeds neither a timestamp nor a
        # filename, so the same stream produces the same bytes whenever
        # (and wherever) it is saved — the file-content digests keying the
        # result store must not churn on a byte-identical re-record.
        container = gzip.compress(container, mtime=0)
    # Write-then-rename: re-recording a file another process is replaying
    # must never expose a torn half-written container to its readers.
    staging = path.with_name(path.name + ".tmp")
    staging.write_bytes(container)
    os.replace(staging, path)
    # This process just changed the file: drop its memoised digests, so a
    # same-size rewrite inside the filesystem's mtime granularity can never
    # serve the old digest to subsequent spec creation/verification.
    _drop_memoised_digests(path)
    return path


def _json_safe(value) -> bool:
    try:
        json.dumps(value)
        return True
    except (TypeError, ValueError):
        return False


def _read_container(path: Path) -> tuple[bytes, bool]:
    """The file's raw container bytes and whether it was gzip-compressed.

    Every load primes the digest memo from the bytes just read (guarded by
    a stat taken on both sides, so a concurrent rewrite can't memoise a
    digest under the wrong key): ``trace info`` and the executor's
    load-then-digest sequences touch the file once, not twice.
    """

    try:
        stat_before = path.stat()
    except OSError:
        stat_before = None
    raw = path.read_bytes()
    if stat_before is not None:
        try:
            stat_after = path.stat()
        except OSError:
            stat_after = None
        if stat_after is not None and (
            stat_before.st_size,
            stat_before.st_mtime_ns,
        ) == (stat_after.st_size, stat_after.st_mtime_ns):
            key = (str(path.resolve()), stat_after.st_size, stat_after.st_mtime_ns)
            _DIGEST_MEMO.setdefault(key, hashlib.sha256(raw).hexdigest())
    if raw[:2] == _GZIP_MAGIC:
        return gzip.decompress(raw), True
    return raw, False


def _decode_header(
    data: bytes, path: Path, compressed: bool = False
) -> tuple[TraceHeader, int]:
    """Decode the fixed + JSON header; returns it and the payload offset."""

    if len(data) < _FIXED_HEADER.size:
        raise TraceFormatError(f"{path}: truncated header")
    magic, version, _flags, line_shift, count, json_length = _FIXED_HEADER.unpack_from(
        data
    )
    if magic != MAGIC:
        raise TraceFormatError(f"{path}: not an .rtrc trace (bad magic)")
    if version not in SUPPORTED_VERSIONS:
        raise TraceFormatError(
            f"{path}: unsupported .rtrc version {version} (this build reads "
            f"versions {', '.join(str(v) for v in SUPPORTED_VERSIONS)})"
        )
    offset = _FIXED_HEADER.size + json_length
    if len(data) < offset:
        raise TraceFormatError(f"{path}: truncated JSON header")
    try:
        # bytes() also unwraps the memoryview the mmap path passes in
        # (json.loads takes str/bytes/bytearray only).
        described = json.loads(bytes(data[_FIXED_HEADER.size : offset]))
    except json.JSONDecodeError as error:
        raise TraceFormatError(f"{path}: corrupt JSON header ({error})") from None
    header = TraceHeader(
        name=str(described.get("name", path.stem)),
        records=count,
        line_shift=line_shift,
        version=version,
        compressed=compressed,
        metadata=dict(described.get("metadata", {})),
    )
    return header, offset


#: Bytes read per step while probing for a file's header.
_HEADER_PROBE = 1 << 16


def _header_prefix(path: Path) -> tuple[bytes, bool]:
    """At least the fixed + JSON header bytes, without reading the payload.

    Plain files are read in 64 KiB steps until the header is complete;
    gzip files are *stream*-decompressed just as far — reading the header
    of a multi-gigabyte ``.rtrc.gz`` must not inflate the whole payload to
    report twenty header bytes.
    """

    with open(path, "rb") as handle:
        probe = handle.read(_HEADER_PROBE)
        if probe[:2] == _GZIP_MAGIC:
            import zlib

            decompressor = zlib.decompressobj(wbits=31)
            data = bytearray(decompressor.decompress(probe))
            compressed = True

            def more() -> bool:
                chunk = handle.read(_HEADER_PROBE)
                if not chunk:
                    return False
                data.extend(decompressor.decompress(chunk))
                return True

        else:
            data = bytearray(probe)
            compressed = False

            def more() -> bool:
                chunk = handle.read(_HEADER_PROBE)
                if not chunk:
                    return False
                data.extend(chunk)
                return True

        while len(data) < _FIXED_HEADER.size:
            if not more():
                return bytes(data), compressed
        json_length = _FIXED_HEADER.unpack_from(data)[5]
        needed = _FIXED_HEADER.size + json_length
        while len(data) < needed:
            if not more():
                break
        return bytes(data), compressed


def read_header(path: str | Path) -> TraceHeader:
    """Decode a file's header (name, counts, shift, metadata) only.

    Reads — and for gzip files decompresses — just enough of the file to
    cover the header, never the payload, so inspecting a huge capture is
    O(header) regardless of encoding.
    """

    path = Path(path)
    data, compressed = _header_prefix(path)
    header, _ = _decode_header(data, path, compressed)
    return header


def load_trace(path: str | Path):
    """Load an ``.rtrc`` file (gzip sniffed) into its natural container.

    v1 files load into a :class:`PackedTrace`; v2 files into a lazy
    :class:`ChunkedTrace`.  Both satisfy the same trace and columnar
    protocols, so callers need not care which they get.
    """

    return open_trace(path)[0]


def _mapped_container(path: Path):
    """Map an uncompressed file read-only; ``None`` when mapping can't help.

    Gzip files must be decompressed into memory anyway, empty/over-truncated
    files can't be mapped (or aren't worth it), and byteswapping on a
    big-endian host would force a copy regardless — all of those return
    ``None`` and the caller takes the plain read path.
    """

    if sys.byteorder != "little":  # pragma: no cover - BE hosts copy+swap
        return None
    import mmap

    with open(path, "rb") as handle:
        if handle.read(2) == _GZIP_MAGIC:
            return None
        try:
            mapping = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        except (ValueError, OSError):  # empty file, exotic filesystem
            return None
    return memoryview(mapping)


def _open_chunked(data, path: Path, header: TraceHeader, offset: int) -> ChunkedTrace:
    """Validate a v2 container's framing and build its lazy trace.

    ``data`` is the whole container (an mmap view or bytes); only the
    trailer and the chunk index are decoded here — chunk bodies stay
    encoded until a consumer asks for their records.
    """

    total = len(data)
    count = header.records
    if total < offset + _V2_TRAILER.size:
        raise TraceFormatError(f"{path}: truncated v2 container (no trailer)")
    footer_offset, chunk_count, chunk_records, trailer_magic = _V2_TRAILER.unpack_from(
        data, total - _V2_TRAILER.size
    )
    if trailer_magic != _V2_TRAILER_MAGIC:
        raise TraceFormatError(
            f"{path}: v2 trailer magic missing (file truncated or torn?)"
        )
    footer_size = chunk_count * _V2_FOOTER_ENTRY.size
    if (
        footer_offset < offset
        or footer_offset + footer_size + _V2_TRAILER.size != total
    ):
        raise TraceFormatError(
            f"{path}: chunk index does not fit the file (truncated footer?)"
        )
    if count and chunk_records < 1:
        raise TraceFormatError(f"{path}: invalid chunk size {chunk_records}")
    expected_chunks = (
        (count + chunk_records - 1) // chunk_records if count else 0
    )
    if chunk_count != expected_chunks:
        raise TraceFormatError(
            f"{path}: chunk index lists {chunk_count} chunks, expected "
            f"{expected_chunks} for {count} records of {chunk_records}"
        )
    entries = list(
        _V2_FOOTER_ENTRY.iter_unpack(
            bytes(data[footer_offset : footer_offset + footer_size])
        )
    )
    remaining = count
    previous = offset
    for index, (chunk_offset, records, _pc, _address) in enumerate(entries):
        expected_records = min(chunk_records, remaining)
        if records != expected_records:
            raise TraceFormatError(
                f"{path}: chunk {index} claims {records} records, expected "
                f"{expected_records}"
            )
        if chunk_offset < previous or chunk_offset >= footer_offset:
            raise TraceFormatError(
                f"{path}: chunk {index} offset {chunk_offset} outside the "
                f"payload (torn chunk index?)"
            )
        previous = chunk_offset + _V2_CHUNK_HEADER.size
        remaining -= records
    return ChunkedTrace(
        name=header.name,
        data=data,
        entries=entries,
        footer_offset=footer_offset,
        chunk_records=chunk_records,
        records=count,
        metadata=header.metadata,
        line_shift=header.line_shift,
    )


def open_trace(path: str | Path):
    """Load a file *and* its decoded header in a single read/decompress.

    ``repro trace info`` wants both the stream and the container facts
    (version, compressed flag); calling :func:`load_trace` plus
    :func:`read_header` would read — and for ``.gz`` files decompress — the
    container twice.

    Uncompressed files on little-endian hosts are **memory-mapped**: a v1
    file's pc/address columns become ``uint64`` views straight into the
    page cache, and a v2 file's *encoded* chunks stay on disk until a
    record range asks for them — either way nothing is copied up front and
    the returned trace pins the mapping for its lifetime.  Gzip files
    decompress into memory; a gzipped v2 file still decodes chunks
    selectively from the in-memory container.
    """

    path = Path(path)
    view = _mapped_container(path)
    if view is not None:
        data, compressed = view, False
    else:
        data, compressed = _read_container(path)
    header, offset = _decode_header(data, path, compressed)
    if header.line_shift != LINE_SHIFT:
        # The simulator's hierarchy has one fixed line geometry; replaying
        # a stream recorded under another shift would silently skew every
        # footprint and statistic.  (read_header still decodes such files
        # for inspection.)
        raise TraceFormatError(
            f"{path}: recorded under line shift {header.line_shift}, but "
            f"this build simulates {1 << LINE_SHIFT}-byte lines (shift "
            f"{LINE_SHIFT})"
        )
    if header.version == 2:
        trace = _open_chunked(data, path, header, offset)
        if view is not None:
            trace._buffer = view
        return trace, header
    count = header.records
    column_size = 8 * count
    bitset_size = (count + 7) // 8
    expected = offset + 2 * column_size + bitset_size
    if len(data) < expected:
        raise TraceFormatError(
            f"{path}: payload truncated ({len(data)} bytes, expected {expected})"
        )
    if view is not None:
        pcs = view[offset : offset + column_size].cast("Q")
        addresses = view[offset + column_size : offset + 2 * column_size].cast("Q")
        writes = bytes(view[offset + 2 * column_size : expected])
    else:
        pcs = _column_from_bytes(data[offset : offset + column_size])
        addresses = _column_from_bytes(
            data[offset + column_size : offset + 2 * column_size]
        )
        writes = data[offset + 2 * column_size : expected]
    trace = PackedTrace(
        name=header.name,
        pcs=pcs,
        addresses=addresses,
        writes=writes,
        metadata=header.metadata,
        line_shift=header.line_shift,
    )
    if view is not None:
        trace._buffer = view
    return trace, header


def remove_stale_sibling(path: str | Path) -> Path | None:
    """Delete any other-suffix spelling of a just-written trace.

    Every :data:`TRACE_SUFFIXES` spelling of ``<name>`` resolves to the
    *same* workload name (in preference order) — so re-recording a trace
    under a different suffix would otherwise leave a stale sibling
    shadowing (or shadowed by) the new file, and ``trace:<name>`` could
    silently replay old data.  Returns the first removed path, if any.
    """

    path = Path(path)
    name = path.name
    # Longest suffix first, so ".rtrc.gz" is not misread as ".rtrc".
    for suffix in sorted(TRACE_SUFFIXES, key=len, reverse=True):
        if name.endswith(suffix):
            stem = name[: -len(suffix)]
            removed = None
            for other in TRACE_SUFFIXES:
                if other == suffix:
                    continue
                sibling = path.with_name(stem + other)
                if sibling.is_file():
                    sibling.unlink()
                    removed = removed or sibling
            return removed
    return None


# ---------------------------------------------------------------------------
# Content digests: the experiment layer's identity for trace-file workloads
# ---------------------------------------------------------------------------
# Keyed by (path, size, mtime_ns) so repeated spec hashing over a big batch
# reads each file once per version of its contents.  In-process writers
# (:func:`save_trace`) additionally evict their path outright, closing the
# stale-digest window a same-size rewrite inside the filesystem's mtime
# granularity would otherwise leave open.
_DIGEST_MEMO: dict[tuple, str] = {}


def _drop_memoised_digests(path: Path) -> None:
    """Evict every memoised digest of one file (writers call this)."""

    resolved = str(path.resolve())
    for key in [key for key in _DIGEST_MEMO if key[0] == resolved]:
        del _DIGEST_MEMO[key]


def trace_file_digest(path: str | Path) -> str:
    """SHA-256 of the file's bytes (memoised on path + size + mtime).

    This is what :mod:`repro.experiments.jobs` folds into the content hash
    of any spec whose workload resolves to a trace file, so the persistent
    result store keys on *what the file contains*, not what it is called:
    re-importing different data under the same name can never replay stale
    results, and renaming a file never invalidates them.
    """

    path = Path(path)
    stat = path.stat()
    key = (str(path.resolve()), stat.st_size, stat.st_mtime_ns)
    digest = _DIGEST_MEMO.get(key)
    if digest is None:
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        _DIGEST_MEMO[key] = digest
    return digest


def clear_digest_memo() -> None:
    """Drop memoised file digests (tests that rewrite files in place)."""

    _DIGEST_MEMO.clear()
