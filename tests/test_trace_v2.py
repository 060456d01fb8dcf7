"""Tests for the chunked ``.rtrc`` container (format version 3).

Covers the save -> load -> save round trip (property-tested over random
streams and chunk sizes: byte-stable and digest-stable), chunk-boundary
edge cases (windows spanning chunks, empty traces, record counts landing
exactly on a chunk edge, single-record chunks), torn/truncated-file
rejection with actionable errors, a fuzzer that truncates and bit-flips a
multi-chunk file (every mutant raises ``TraceFormatError`` or loads the
original columns), the chunk-selective decode contract of window sampling
(a window decodes only the chunks its range covers, proven by counting
decodes), zero-copy column slicing, bit-identical replay of a recorded
multi-chunk file against the live stream for every registered
configuration, header reads that never need the payload, and ``trace
info`` through the CLI.  Tests shrink ``CHUNK_RECORDS`` to get multi-chunk
files from short streams.

The module keeps its historical name so its test ids stay stable.
"""

from __future__ import annotations

import gzip
import json
import struct
from array import array
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments.configs import CONFIGS
from repro.experiments.jobs import clear_trace_memo, execute_spec
from repro.experiments.runner import ExperimentRunner
from repro.sim.stream import access_columns, slice_columns
from repro.traces import format as trace_format
from repro.traces.format import (
    CHUNK_RECORDS,
    MAGIC,
    ChunkedTrace,
    PackedTrace,
    TraceFormatError,
    _FIXED_HEADER,
    _pack_bits,
    clear_digest_memo,
    load_trace,
    read_header,
    save_trace,
    trace_file_digest,
)
from repro.workloads.registry import generate_workload
from repro.workloads.trace import LINE_SHIFT


def packed(pcs, addresses, writes, name="t") -> PackedTrace:
    flags = list(writes)
    return PackedTrace(
        name,
        array("Q", pcs),
        array("Q", addresses),
        _pack_bits(flags, len(flags)),
    )


def stride_trace(n: int, name: str = "t") -> PackedTrace:
    return packed(
        [0x400000 + (i % 7) * 4 for i in range(n)],
        [0x10000000 + i * 64 for i in range(n)],
        [i % 5 == 0 for i in range(n)],
        name=name,
    )


RECORDS = st.lists(
    st.tuples(
        st.integers(0, 2**64 - 1),  # pc
        st.integers(0, 2**64 - 1),  # address
        st.booleans(),  # write
    ),
    max_size=200,
)


class TestRoundTripProperties:
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(records=RECORDS, chunk_records=st.integers(1, 48))
    def test_save_load_save_byte_and_digest_stable(
        self, tmp_path, monkeypatch, records, chunk_records
    ):
        """save -> load -> save reproduces the first file's bytes, so a
        re-recorded stream never changes its content digest."""

        monkeypatch.setattr(trace_format, "CHUNK_RECORDS", chunk_records)
        trace = packed(
            [r[0] for r in records],
            [r[1] for r in records],
            [r[2] for r in records],
        )
        first = save_trace(trace, tmp_path / "a.rtrc")

        loaded = load_trace(first)
        assert isinstance(loaded, ChunkedTrace)
        assert loaded.chunk_count == -(-len(records) // chunk_records)
        assert list(loaded) == list(trace)
        assert loaded.write_count() == trace.write_count()

        again = save_trace(loaded, tmp_path / "b.rtrc", name="t")
        assert again.read_bytes() == first.read_bytes()
        assert trace_file_digest(again) == trace_file_digest(first)

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        n=st.integers(0, 150),
        chunk_records=st.integers(1, 32),
        start=st.integers(0, 150),
        length=st.integers(1, 150),
    )
    def test_window_views_match_full_columns(
        self, tmp_path, monkeypatch, n, chunk_records, start, length
    ):
        monkeypatch.setattr(trace_format, "CHUNK_RECORDS", chunk_records)
        trace = stride_trace(n)
        chunked = load_trace(save_trace(trace, tmp_path / "w.rtrc"))
        start = min(start, n)
        stop = min(start + length, n)
        window = chunked.window_columns(start, stop)
        full = trace.access_columns()
        assert list(window.pcs) == list(full.pcs[start:stop])
        assert list(window.addresses) == list(full.addresses[start:stop])
        assert bytes(window.writes) == bytes(full.writes[start:stop])


def chunked_file(tmp_path, monkeypatch, trace, chunk_records) -> Path:
    """Save ``trace`` in chunks of ``chunk_records`` records."""

    monkeypatch.setattr(trace_format, "CHUNK_RECORDS", chunk_records)
    return save_trace(trace, tmp_path / "t.rtrc")


class TestChunkBoundaries:
    def test_count_exactly_on_chunk_edge(self, tmp_path, monkeypatch):
        trace = stride_trace(128)
        path = chunked_file(tmp_path, monkeypatch, trace, 64)
        chunked = load_trace(path)
        assert chunked.chunk_count == 2
        assert list(chunked) == list(trace)
        assert chunked[127].address == trace[127].address

    def test_single_record_chunks(self, tmp_path, monkeypatch):
        trace = stride_trace(5)
        path = chunked_file(tmp_path, monkeypatch, trace, 1)
        chunked = load_trace(path)
        assert chunked.chunk_count == 5
        assert list(chunked) == list(trace)
        assert chunked.write_count() == trace.write_count()

    def test_empty_trace(self, tmp_path):
        trace = packed([], [], [])
        path = save_trace(trace, tmp_path / "empty.rtrc")
        chunked = load_trace(path)
        assert len(chunked) == 0
        assert list(chunked) == []
        assert chunked.write_count() == 0
        assert chunked.window_columns(0, 0).length == 0
        header = read_header(path)
        assert header.records == 0 and header.version == 3

    def test_window_spanning_chunks_decodes_only_those(self, tmp_path, monkeypatch):
        trace = stride_trace(1000)
        path = chunked_file(tmp_path, monkeypatch, trace, 64)
        chunked = load_trace(path)
        window = chunked.window_columns(100, 200)  # chunks 1..3
        assert list(window.addresses) == [
            trace[i].address for i in range(100, 200)
        ]
        assert chunked.chunks_decoded == 3

    def test_lru_cache_stays_bounded(self, tmp_path, monkeypatch):
        trace = stride_trace(600)
        path = chunked_file(tmp_path, monkeypatch, trace, 32)
        chunked = load_trace(path)
        chunked._cache_limit = 4
        for access, expected in zip(chunked, trace):
            assert access == expected
        assert chunked.chunks_decoded == chunked.chunk_count
        assert len(chunked._cache) <= 4

    def test_default_chunk_size_used_by_recorder(self, tmp_path, monkeypatch):
        from repro.traces.recorder import record_workload

        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path))
        path = record_workload(
            "pointer_chase",
            directory=tmp_path,
            overrides={"nodes": 16, "repeats": 20},
        )
        chunked = load_trace(path)
        assert isinstance(chunked, ChunkedTrace)
        assert chunked.chunk_records == CHUNK_RECORDS
        assert chunked.chunk_count == 1  # 320 records, far below 64Ki


class TestTornFiles:
    @pytest.fixture(autouse=True)
    def _file(self, tmp_path, monkeypatch):
        self.path = chunked_file(tmp_path, monkeypatch, stride_trace(300), 64)

    def test_truncated_trailer_rejected(self, tmp_path):
        path = self.path
        raw = path.read_bytes()
        (tmp_path / "torn.rtrc").write_bytes(raw[:-5])
        with pytest.raises(TraceFormatError, match="trailer"):
            load_trace(tmp_path / "torn.rtrc")

    def test_corrupt_trailer_magic_rejected(self, tmp_path):
        path = self.path
        raw = bytearray(path.read_bytes())
        raw[-4:] = b"XXXX"
        (tmp_path / "magic.rtrc").write_bytes(bytes(raw))
        with pytest.raises(TraceFormatError, match="trailer magic"):
            load_trace(tmp_path / "magic.rtrc")

    def test_footer_offset_outside_file_rejected(self, tmp_path):
        path = self.path
        raw = bytearray(path.read_bytes())
        offset, count, per_chunk, magic = struct.unpack_from("<QQQ4s", raw, len(raw) - 28)
        struct.pack_into(
            "<QQQ4s", raw, len(raw) - 28, offset + 999, count, per_chunk, magic
        )
        (tmp_path / "foot.rtrc").write_bytes(bytes(raw))
        with pytest.raises(TraceFormatError, match="(footer|chunk index)"):
            load_trace(tmp_path / "foot.rtrc")

    def test_torn_chunk_body_rejected_on_decode(self, tmp_path):
        path = self.path
        raw = bytearray(path.read_bytes())
        header = read_header(path)
        # Corrupt the first chunk's zlib header: the file opens (the index
        # is intact) but decoding that chunk must fail loudly.
        json_length = _FIXED_HEADER.unpack_from(raw)[5]
        body = _FIXED_HEADER.size + json_length
        struct.pack_into("<I", raw, body, 0xFFFF)
        (tmp_path / "chunk.rtrc").write_bytes(bytes(raw))
        chunked = load_trace(tmp_path / "chunk.rtrc")
        assert len(chunked) == header.records  # header and index still readable
        with pytest.raises(TraceFormatError, match="torn|truncated"):
            chunked[0]

    def test_unsupported_version_still_rejected(self, tmp_path):
        path = self.path
        raw = bytearray(path.read_bytes())
        raw[4] = 0x7F  # version field of the fixed header
        (tmp_path / "vers.rtrc").write_bytes(bytes(raw))
        with pytest.raises(TraceFormatError, match="version"):
            load_trace(tmp_path / "vers.rtrc")

    @pytest.mark.parametrize("damage", ["checksum cut", "trailing bytes"])
    def test_last_chunk_must_be_exactly_one_stream(self, tmp_path, damage):
        """A body whose zlib stream never reaches its checksum, or is
        followed by stray bytes, is refused even though its records inflate
        to the right size.  The trailer is patched so the index still fits."""

        raw = bytearray(self.path.read_bytes())
        trailer = len(raw) - 28
        index_offset, chunks, per_chunk, magic = struct.unpack_from("<QQQ4s", raw, trailer)
        if damage == "checksum cut":
            del raw[index_offset - 4 : index_offset]
            index_offset -= 4
        else:
            raw[index_offset:index_offset] = b"\0\0\0\0"
            index_offset += 4
        struct.pack_into("<QQQ4s", raw, len(raw) - 28, index_offset, chunks, per_chunk, magic)
        (tmp_path / "damaged.rtrc").write_bytes(bytes(raw))
        chunked = load_trace(tmp_path / "damaged.rtrc")
        assert chunked[0] == stride_trace(300)[0]  # earlier chunks are intact
        with pytest.raises(TraceFormatError, match="torn chunk"):
            chunked[len(chunked) - 1]

    @pytest.mark.parametrize("described", [b"[]", b'{"metadata": []}'])
    def test_non_object_json_header_refused(self, tmp_path, described):
        raw = self.path.read_bytes()
        fixed = list(_FIXED_HEADER.unpack_from(raw))
        payload = raw[_FIXED_HEADER.size + fixed[5] :]
        fixed[5] = len(described)
        path = tmp_path / "json.rtrc"
        path.write_bytes(_FIXED_HEADER.pack(*fixed) + described + payload)
        for reader in (read_header, load_trace):
            with pytest.raises(TraceFormatError, match="not an object"):
                reader(path)

    def test_record_count_beyond_the_payload_refused(self, tmp_path):
        """Counts that agree with each other but not with the payload size
        are refused at open, before any allocation is sized by them."""

        raw = bytearray(self.path.read_bytes())
        trailer = len(raw) - 28
        index_offset, chunks, _per_chunk, magic = struct.unpack_from("<QQQ4s", raw, trailer)
        huge = 1 << 61
        struct.pack_into("<Q", raw, 12, (chunks - 1) * huge + 1)  # header count
        struct.pack_into("<QQQ4s", raw, trailer, index_offset, chunks, huge, magic)
        (tmp_path / "huge.rtrc").write_bytes(bytes(raw))
        with pytest.raises(TraceFormatError, match="cannot inflate"):
            load_trace(tmp_path / "huge.rtrc")


class TestSelectiveDecode:
    def test_sample_window_decodes_only_covered_chunks(self, tmp_path, monkeypatch):
        from repro.traces.samplers import sample_window

        trace = stride_trace(1024)
        path = chunked_file(tmp_path, monkeypatch, trace, 64)
        chunked = load_trace(path)
        sampled = sample_window(chunked, 130, 70, name="mid")
        assert chunked.chunks_decoded == 2  # records 130..199: chunks 2, 3
        assert [a.address for a in sampled] == [
            trace[i].address for i in range(130, 200)
        ]
        assert sampled.metadata["sampled"]["source"] == "t"


class TestSliceColumns:
    def test_buffer_columns_are_views(self):
        columns = access_columns(generate_workload("xalan", length=64))
        window = slice_columns(columns, 10, 30)
        assert window.length == 20
        assert isinstance(window.pcs, memoryview)
        assert list(window.pcs) == list(columns.pcs[10:30])
        assert list(window.writes) == list(columns.writes[10:30])

    def test_out_of_range_clamps(self):
        columns = access_columns(generate_workload("xalan", length=16))
        assert slice_columns(columns, 10, 99).length == 6
        assert slice_columns(columns, 30, 40).length == 0


#: The live stream the parity matrix records: 1400 xalan accesses, saved in
#: 256-record chunks (six of them) so replay crosses chunk edges.
PARITY_OVERRIDES = {"length": 1400}


@pytest.fixture(scope="module")
def chunked_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("chunked")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(trace_format, "CHUNK_RECORDS", 256)
        path = save_trace(
            generate_workload("xalan", **PARITY_OVERRIDES), directory / "bh.rtrc"
        )
    assert load_trace(path).chunk_count == 6
    return directory


class TestEncodingParityMatrix:
    """Replaying a recorded multi-chunk file equals simulating the live
    generated stream, under every registered configuration."""

    @pytest.mark.parametrize("configuration", CONFIGS.names())
    def test_bit_identical_across_encodings(
        self, configuration, chunked_dir, monkeypatch
    ):
        monkeypatch.setenv("REPRO_TRACE_DIR", str(chunked_dir))
        clear_trace_memo()
        clear_digest_memo()
        runner = ExperimentRunner(
            max_accesses=500,
            trace_overrides=PARITY_OVERRIDES,
            warmup_fraction=0.3,
            use_cache=False,
        )
        params = (
            {"max_entries": 192} if CONFIGS.takes_params(configuration) else None
        )
        results = {}
        for workload in ("xalan", "trace:bh"):
            spec = runner.spec_for(workload, configuration, params)
            stats = asdict(execute_spec(spec))
            stats["workload"] = "trace"  # the only legitimate difference
            results[workload] = stats
        assert results["trace:bh"] == results["xalan"]


class TestTraceInfo:
    def test_header_reads_without_the_payload(self, tmp_path):
        """``read_header`` works from the header alone — proven on a file
        whose payload is torn off after the header."""

        from repro.cli import main

        trace = stride_trace(5000)
        raw = save_trace(trace, tmp_path / "big.rtrc").read_bytes()
        json_length = _FIXED_HEADER.unpack_from(raw)[5]
        header_end = _FIXED_HEADER.size + json_length
        torn = tmp_path / "big_torn.rtrc"
        torn.write_bytes(raw[: header_end + 16])

        header = read_header(torn)
        assert header.records == 5000
        assert header.version == 3

        # Plain info genuinely needs the payload, so the torn file fails —
        # demonstrating the header read really is header-only.
        assert main(["trace", "info", str(torn)]) != 0

    def test_info_reports_encoding_ratio(self, tmp_path, monkeypatch, capsys):
        path = chunked_file(tmp_path, monkeypatch, stride_trace(4000), 512)
        from repro.cli import main

        assert main(["trace", "info", str(path)]) == 0
        out = capsys.readouterr().out
        assert "format:       .rtrc v3, line shift 6" in out
        assert "encoding:     8 chunk(s) x 512 records, zlib payload" in out
        assert "B/access vs 16 raw" in out


def legacy_file(path: Path, version: int) -> Path:
    """An earlier build's file, built by hand: its 24-byte fixed header and
    JSON block (which both old layouts share) over a stand-in payload."""

    header_json = json.dumps(
        {
            "metadata": {"recorded": {"workload": "mcf", "accesses": 10}},
            "name": "old",
        }
    ).encode()
    path.write_bytes(
        _FIXED_HEADER.pack(MAGIC, version, 0, LINE_SHIFT, 10, len(header_json))
        + header_json
        + bytes(170)
    )
    return path


class TestLegacyFiles:
    """v1, v2 and gzip-wrapped files fail once, with the fix in the error."""

    @pytest.mark.parametrize("version", [1, 2])
    def test_earlier_versions_refused(self, tmp_path, version):
        path = legacy_file(tmp_path / "old.rtrc", version)
        with pytest.raises(TraceFormatError) as caught:
            load_trace(path)
        message = str(caught.value)
        assert f"format version {version}," in message
        assert "reads only .rtrc format version 3" in message
        assert "`repro trace record|import|sample`" in message
        # The header still decodes, so `trace info` can show provenance.
        header = read_header(path)
        assert header.version == version
        assert header.metadata["recorded"]["workload"] == "mcf"

    def test_gzip_wrapped_refused(self, tmp_path):
        raw = legacy_file(tmp_path / "old.rtrc", 2).read_bytes()
        path = tmp_path / "wrapped.rtrc"
        path.write_bytes(gzip.compress(raw))
        for reader in (load_trace, read_header):
            with pytest.raises(TraceFormatError) as caught:
                reader(path)
            message = str(caught.value)
            assert "gzip-wrapped" in message
            assert "reads only .rtrc format version 3" in message
            assert "`repro trace record|import|sample`" in message

    def test_info_shows_header_and_provenance(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path))
        clear_trace_memo()
        legacy_file(tmp_path / "old.rtrc", 2)
        assert main(["trace", "info", "trace:old"]) == 0
        out = capsys.readouterr().out
        assert "format:       .rtrc v2, line shift 6" in out
        assert "accesses:     10" in out
        assert "recorded:     accesses=10, workload=mcf" in out
        assert "repro trace record|import|sample" in out
        assert "header shown only" in out
        # Simulating it fails with the same one error.
        assert main(["run", "trace:old", "--config", "baseline", "--no-cache"]) == 2
        assert "reads only .rtrc format version 3" in capsys.readouterr().err


class TestFuzzedFiles:
    """Truncations and bit flips of a multi-chunk file: each mutant raises
    ``TraceFormatError`` or loads exactly the original columns — never a
    zlib, struct, index or memory error, and never a hang (the deadline)."""

    @pytest.fixture(autouse=True)
    def _original(self, tmp_path, monkeypatch):
        trace = stride_trace(300)
        self.raw = chunked_file(tmp_path, monkeypatch, trace, 64).read_bytes()
        self.columns = trace.access_columns()
        self.mutant = tmp_path / "mutant.rtrc"
        header_end = _FIXED_HEADER.size + _FIXED_HEADER.unpack_from(self.raw)[5]
        trailer = len(self.raw) - 28
        index = struct.unpack_from("<Q", self.raw, trailer)[0]
        self.regions = {
            "header": (0, header_end),
            "chunks": (header_end, index),
            "index": (index, trailer),
            "trailer": (trailer, len(self.raw)),
        }

    def _check(self, mutated: bytes) -> None:
        self.mutant.write_bytes(mutated)
        clear_digest_memo()
        try:
            read_header(self.mutant)
        except TraceFormatError:
            pass
        try:
            columns = load_trace(self.mutant).access_columns()
        except TraceFormatError:
            return
        assert columns.length == self.columns.length
        assert list(columns.pcs) == list(self.columns.pcs)
        assert list(columns.addresses) == list(self.columns.addresses)
        assert bytes(columns.writes) == bytes(self.columns.writes)

    @settings(
        max_examples=150,
        deadline=2000,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_truncation_at_any_offset(self, data):
        cut = data.draw(st.integers(0, len(self.raw) - 1))
        self._check(self.raw[:cut])

    @settings(
        max_examples=400,
        deadline=2000,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        region=st.sampled_from(["header", "chunks", "index", "trailer"]),
        data=st.data(),
    )
    def test_bit_flips_anywhere(self, region, data):
        low, high = self.regions[region]
        mutated = bytearray(self.raw)
        for _ in range(data.draw(st.integers(1, 3))):
            position = data.draw(st.integers(low, high - 1))
            mutated[position] ^= 1 << data.draw(st.integers(0, 7))
        self._check(bytes(mutated))
