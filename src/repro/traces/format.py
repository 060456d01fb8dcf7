"""The ``.rtrc`` packed binary trace format and its two containers.

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
* :class:`ChunkedTrace` is the file-backed container: it holds a file's
  compressed chunks and inflates only the ones a record range asks for;
* :func:`save_trace` / :func:`load_trace` round-trip any trace-like object
  through the ``.rtrc`` container described below;
* :func:`read_header` inspects a file without decoding its payload, and
  :func:`trace_file_digest` content-addresses a file for the experiment
  layer's spec hashing (see :mod:`repro.experiments.jobs`).

Layout (format version 3; all integers little-endian)::

    offset  size  field
    0       4     magic  b"RTRC"
    4       2     format version (3)
    6       2     flags (reserved, 0)
    8       1     line shift (LINE_SHIFT at save time; readers check it)
    9       3     reserved (zero)
    12      8     record count N
    20      4     header-JSON length H
    24      H     header JSON: {"name": ..., "metadata": {...}}
    24+H    ...   C chunk bodies, back to back
    F       8*C   chunk index: each chunk's file offset, one uint64 each
    EOF-28  28    trailer: <index offset F, chunk count C,
                  records per chunk R, magic b"RTC3">

    chunk body of n records: one zlib stream (level ZLIB_LEVEL) over
    n uint64 pcs, n uint64 addresses and the ⌈n/8⌉-byte LSB-first write
    bitset — 16·n + ⌈n/8⌉ bytes once inflated.

Every chunk holds exactly R records except the last, so a record position
maps to its chunk by one integer division and any record range decodes by
inflating only the chunks that cover it — the chunk index is what lets
window sampling skip the rest of a multi-gigabyte capture.

Files written by earlier builds (the raw v1 layout, the delta/varint v2
layout, or either wrapped in whole-file gzip) are refused with one
:class:`TraceFormatError` naming the fix: every file's header records the
``repro trace record|import|sample`` that regenerates it.

The line shift travels in the header so a stream packed under one line
geometry is never silently interpreted under another — it is the same
:data:`~repro.workloads.trace.LINE_SHIFT` constant trace statistics use.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import sys
import zlib
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

#: The one format version this build reads and writes.
FORMAT_VERSION = 3

#: Records per chunk.  64Ki keeps a decoded chunk's columns around 1 MiB
#: while making the chunk index negligible (8 bytes per 64Ki records).
#: Read at save time, so tests can shrink it to get multi-chunk files.
CHUNK_RECORDS = 65536

#: zlib level of every chunk body: zlib's own default, pinned here so the
#: bytes a stream saves to (and hence its content digest) never depend on
#: what a zlib build picks as its default.
ZLIB_LEVEL = 6

#: Decoded chunks a :class:`ChunkedTrace` keeps hot (LRU).  Sequential
#: window replay needs at most two (a window straddling one boundary);
#: the slack covers samplers hopping between a few regions.
CHUNK_CACHE_LIMIT = 8

_FIXED_HEADER = struct.Struct("<4sHHB3xQI")
_GZIP_MAGIC = b"\x1f\x8b"
#: One chunk-index entry: the chunk body's file offset.
_INDEX_ENTRY = struct.Struct("<Q")
#: End-of-file trailer: index offset, chunk count, records per chunk, magic.
_TRAILER = struct.Struct("<QQQ4s")
_TRAILER_MAGIC = b"RTC3"

#: Deflate's ceiling on inflated/compressed size: a record count claiming
#: more than this many bytes per payload byte is refused at open, before
#: anything is inflated.
_MAX_INFLATE_RATIO = 1032


class TraceFormatError(ValueError):
    """A file is not a readable ``.rtrc`` trace (bad magic, version, size)."""


def _unreadable(path: Path, found: str) -> TraceFormatError:
    """The one error for files in an encoding this build does not read."""

    return TraceFormatError(
        f"{path}: {found}, but this build reads only .rtrc format version "
        f"{FORMAT_VERSION}; regenerate the file with "
        f"`repro trace record|import|sample`"
    )


def _pack_bits(flags: Iterable[bool], count: int) -> bytearray:
    """Pack booleans into an LSB-first bitset of ``ceil(count / 8)`` bytes."""

    bits = bytearray((count + 7) // 8)
    for index, flag in enumerate(flags):
        if flag:
            bits[index >> 3] |= 1 << (index & 7)
    return bits


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
    """An ``.rtrc`` stream inflated chunk by chunk, on demand.

    Satisfies the same :class:`~repro.workloads.trace.Trace` iteration
    protocol and the :class:`~repro.sim.stream.AccessStream` columnar
    protocol as :class:`PackedTrace`, but holds only the file's compressed
    bytes plus a small LRU of decoded chunks.  Consumers that need one
    record range — the samplers — call :meth:`window_columns` and inflate
    only the chunks the range covers; :attr:`chunks_decoded` counts real
    decodes so tests can assert that selectivity.  A full
    :meth:`access_columns` materialisation is memoised, after which window
    views are zero-copy slices of it.
    """

    __slots__ = (
        "name",
        "metadata",
        "line_shift",
        "_data",
        "_offsets",
        "_index_offset",
        "_chunk_records",
        "_length",
        "_cache",
        "_cache_limit",
        "chunks_decoded",
        "_columns",
        "_write_count",
        "_packed",
    )

    def __init__(
        self,
        name: str,
        data: bytes,
        offsets: list[int],
        index_offset: int,
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
        self._offsets = offsets
        self._index_offset = index_offset
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

    # -- chunk plumbing ------------------------------------------------------
    @property
    def chunk_count(self) -> int:
        """Number of chunks in the underlying file."""

        return len(self._offsets)

    @property
    def chunk_records(self) -> int:
        """Nominal records per chunk (every chunk but the last is full)."""

        return self._chunk_records

    @property
    def payload_bytes(self) -> int:
        """Compressed size of the chunk payload (header and index excluded)."""

        if not self._offsets:
            return 0
        return self._index_offset - self._offsets[0]

    def _decode_chunk(self, index: int) -> tuple[array, array, bytearray]:
        offsets = self._offsets
        start = offsets[index]
        end = offsets[index + 1] if index + 1 < len(offsets) else self._index_offset
        records = min(self._chunk_records, self._length - index * self._chunk_records)
        column = 8 * records
        expected = 2 * column + (records + 7) // 8
        context = f"{self.name}: chunk {index}"
        # The inflated size is capped at what the chunk's record count needs,
        # so a corrupt body can never balloon an allocation.
        inflater = zlib.decompressobj()
        try:
            raw = inflater.decompress(self._data[start:end], expected)
            if not inflater.eof:
                # Output filled before the stream ended: one more byte
                # proves the body holds more than its records.
                raw += inflater.decompress(inflater.unconsumed_tail, 1)
        except zlib.error as error:
            raise TraceFormatError(
                f"{context}: corrupt zlib stream ({error}; torn chunk?)"
            ) from None
        if len(raw) != expected or not inflater.eof or inflater.unused_data:
            raise TraceFormatError(
                f"{context}: body does not inflate to the {expected} bytes "
                f"of its {records} records (torn chunk?)"
            )
        view = memoryview(raw)
        pcs = _column_from_bytes(view[:column])
        addresses = _column_from_bytes(view[column : 2 * column])
        flags = expand_write_bitset(raw[2 * column :], records)
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
        for index in range(len(self._offsets)):
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
        """Number of stores (a C-level count over the write flags, memoised)."""

        cached = self._write_count
        if cached is None:
            self._write_count = cached = self.access_columns().writes.count(1)
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
            for index in range(len(self._offsets)):
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
    metadata: dict


def _column_bytes(column) -> bytes:
    """The column's records as little-endian bytes regardless of host order."""

    if sys.byteorder == "big":  # pragma: no cover - exercised on BE hosts only
        column = array("Q", column)
        column.byteswap()
    return column.tobytes()


def _column_from_bytes(data) -> array:
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


def _encode_container(packed: PackedTrace, header_json: bytes) -> bytes:
    """Assemble the whole container (header, chunks, index, trailer)."""

    count = len(packed)
    size = CHUNK_RECORDS
    pcs = _column_bytes(packed._pcs)
    addresses = _column_bytes(packed._addresses)
    flags = packed.access_columns().writes
    parts = [
        _FIXED_HEADER.pack(
            MAGIC, FORMAT_VERSION, 0, packed.line_shift, count, len(header_json)
        ),
        header_json,
    ]
    offset = _FIXED_HEADER.size + len(header_json)
    index = []
    for start in range(0, count, size):
        stop = min(start + size, count)
        body = zlib.compress(
            b"".join(
                (
                    pcs[8 * start : 8 * stop],
                    addresses[8 * start : 8 * stop],
                    _pack_bits(flags[start:stop], stop - start),
                )
            ),
            ZLIB_LEVEL,
        )
        index.append(_INDEX_ENTRY.pack(offset))
        parts.append(body)
        offset += len(body)
    parts += index
    parts.append(_TRAILER.pack(offset, len(index), size, _TRAILER_MAGIC))
    return b"".join(parts)


def save_trace(trace, path: str | Path, name: str | None = None) -> Path:
    """Write a trace-like object to ``path`` in ``.rtrc`` form.

    The same stream always saves to the same bytes, so re-recording it
    never changes its content digest.  Returns the path written.
    """

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
    # Write-then-rename: re-recording a file another process is replaying
    # must never expose a torn half-written container to its readers.
    staging = path.with_name(path.name + ".tmp")
    staging.write_bytes(_encode_container(packed, header_json))
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


def _read_file(path: Path) -> bytes:
    """The file's bytes, priming the digest memo from the same read.

    The memo entry is guarded by a stat taken on both sides, so a
    concurrent rewrite can't memoise a digest under the wrong key:
    ``trace info`` and the executor's load-then-digest sequences touch the
    file once, not twice.
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
    return raw


def _decode_header(data: bytes, path: Path) -> tuple[TraceHeader, int]:
    """Decode the fixed + JSON header; returns it and the payload offset.

    Any version decodes, so ``repro trace info`` can show what an earlier
    build's file records; :func:`open_trace` refuses all but this one.
    """

    if data[:2] == _GZIP_MAGIC:
        raise _unreadable(path, "gzip-wrapped (an earlier build's encoding)")
    if len(data) < _FIXED_HEADER.size:
        raise TraceFormatError(f"{path}: truncated header")
    magic, version, _flags, line_shift, count, json_length = _FIXED_HEADER.unpack_from(
        data
    )
    if magic != MAGIC:
        raise TraceFormatError(f"{path}: not an .rtrc trace (bad magic)")
    offset = _FIXED_HEADER.size + json_length
    if len(data) < offset:
        raise TraceFormatError(f"{path}: truncated JSON header")
    try:
        described = json.loads(data[_FIXED_HEADER.size : offset])
    except (json.JSONDecodeError, UnicodeDecodeError) as error:
        raise TraceFormatError(f"{path}: corrupt JSON header ({error})") from None
    if not isinstance(described, dict) or not isinstance(
        described.get("metadata", {}), dict
    ):
        raise TraceFormatError(f"{path}: corrupt JSON header (not an object)")
    header = TraceHeader(
        name=str(described.get("name", path.stem)),
        records=count,
        line_shift=line_shift,
        version=version,
        metadata=dict(described.get("metadata", {})),
    )
    return header, offset


#: Bytes read per step while probing for a file's header.
_HEADER_PROBE = 1 << 16


def read_header(path: str | Path) -> TraceHeader:
    """Decode a file's header (name, counts, shift, metadata) only.

    Reads just enough of the file to cover the header, in 64 KiB steps,
    never the payload, so inspecting a huge capture is O(header).  The
    version is not checked: an earlier build's file still shows its
    header and provenance.
    """

    path = Path(path)
    with open(path, "rb") as handle:
        data = handle.read(_HEADER_PROBE)
        if len(data) >= _FIXED_HEADER.size:
            needed = _FIXED_HEADER.size + _FIXED_HEADER.unpack_from(data)[5]
            while len(data) < needed:
                more = handle.read(_HEADER_PROBE)
                if not more:
                    break
                data += more
    return _decode_header(data, path)[0]


def load_trace(path: str | Path) -> ChunkedTrace:
    """Load an ``.rtrc`` file into a lazily inflating :class:`ChunkedTrace`."""

    return open_trace(path)[0]


def _open_chunked(
    data: bytes, path: Path, header: TraceHeader, offset: int
) -> ChunkedTrace:
    """Validate the container's framing and build its lazy trace.

    Only the trailer and the chunk index are decoded here — chunk bodies
    stay compressed until a consumer asks for their records.
    """

    total = len(data)
    count = header.records
    if total < offset + _TRAILER.size:
        raise TraceFormatError(f"{path}: truncated container (no trailer)")
    index_offset, chunk_count, chunk_records, trailer_magic = _TRAILER.unpack_from(
        data, total - _TRAILER.size
    )
    if trailer_magic != _TRAILER_MAGIC:
        raise TraceFormatError(
            f"{path}: trailer magic missing (file truncated or torn?)"
        )
    if (
        index_offset < offset
        or index_offset + chunk_count * _INDEX_ENTRY.size + _TRAILER.size != total
    ):
        raise TraceFormatError(
            f"{path}: chunk index does not fit the file (truncated index?)"
        )
    if count and chunk_records < 1:
        raise TraceFormatError(f"{path}: invalid chunk size {chunk_records}")
    expected_chunks = -(-count // chunk_records) if count else 0
    if chunk_count != expected_chunks:
        raise TraceFormatError(
            f"{path}: chunk index lists {chunk_count} chunks, expected "
            f"{expected_chunks} for {count} records of {chunk_records}"
        )
    if 16 * count > _MAX_INFLATE_RATIO * (index_offset - offset):
        raise TraceFormatError(
            f"{path}: {count} records cannot inflate from a "
            f"{index_offset - offset}-byte payload"
        )
    offsets = [
        chunk_offset
        for (chunk_offset,) in _INDEX_ENTRY.iter_unpack(
            data[index_offset : total - _TRAILER.size]
        )
    ]
    # Chunks sit back to back from the end of the header to the index.
    ends = offsets[1:] + [index_offset]
    if (offsets[0] if offsets else index_offset) != offset or any(
        end <= start for start, end in zip(offsets, ends)
    ):
        raise TraceFormatError(
            f"{path}: chunk offsets do not tile the payload (torn chunk index?)"
        )
    return ChunkedTrace(
        name=header.name,
        data=data,
        offsets=offsets,
        index_offset=index_offset,
        chunk_records=chunk_records,
        records=count,
        metadata=header.metadata,
        line_shift=header.line_shift,
    )


def open_trace(path: str | Path) -> tuple[ChunkedTrace, TraceHeader]:
    """Load a file *and* its decoded header in a single read.

    ``repro trace info`` wants both the stream and the container facts;
    calling :func:`load_trace` plus :func:`read_header` would read the file
    twice.  The whole file is read into memory — it is the compressed form,
    a few bytes per access — and chunks inflate as record ranges ask for
    them.
    """

    path = Path(path)
    data = _read_file(path)
    header, offset = _decode_header(data, path)
    if header.version != FORMAT_VERSION:
        raise _unreadable(path, f"written as .rtrc format version {header.version}")
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
    return _open_chunked(data, path, header, offset), header


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
