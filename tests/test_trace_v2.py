"""Tests for the chunked delta/varint ``.rtrc`` v2 container.

Covers the v1 <-> v2 round trip (property-tested over random streams:
byte-stable and digest-stable per version), chunk-boundary edge cases
(windows spanning chunks, empty traces, record counts landing exactly on a
chunk edge, single-record chunks), torn/truncated-file rejection with
actionable errors, the chunk-selective decode contract of window sampling
(a window decodes only the chunks its range covers, proven by counting
decodes), zero-copy column slicing, bit-identical replay statistics across
the v1 / v2 / gzip encodings for every registered configuration, header
reads of gzip files that never inflate the payload, and ``trace info`` /
``trace pack`` through the CLI.
"""

from __future__ import annotations

import gzip
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
from repro.traces.format import (
    CHUNK_RECORDS,
    ChunkedTrace,
    PackedTrace,
    TraceFormatError,
    _FIXED_HEADER,
    _pack_bits,
    clear_digest_memo,
    load_trace,
    open_trace,
    read_header,
    save_trace,
    trace_file_digest,
)
from repro.workloads.registry import generate_workload


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
    def test_v1_v2_round_trip_byte_and_digest_stable(
        self, tmp_path, records, chunk_records
    ):
        """v1 -> v2 -> v1 reproduces the original bytes; both encodings are
        deterministic, so digests are stable per version."""

        unique = f"{len(records)}_{chunk_records}_{hash(tuple(records)) & 0xFFFF}"
        d = tmp_path / unique
        d.mkdir(exist_ok=True)
        trace = packed(
            [r[0] for r in records],
            [r[1] for r in records],
            [r[2] for r in records],
        )
        v1_first = save_trace(trace, d / "a.rtrc", version=1)
        v1_bytes = v1_first.read_bytes()
        v2_path = save_trace(
            trace, d / "b.rtrc", version=2, chunk_records=chunk_records
        )
        v2_bytes = v2_path.read_bytes()

        via_v2 = load_trace(v2_path)
        assert isinstance(via_v2, ChunkedTrace)
        assert list(via_v2) == list(trace)
        assert via_v2.write_count() == trace.write_count()

        # v2 -> v1: bit-identical to the original v1 encoding.
        back = save_trace(via_v2, d / "c.rtrc", version=1, name="t")
        assert back.read_bytes() == v1_bytes
        assert trace_file_digest(back) == trace_file_digest(v1_first)

        # v1 -> v2 again: the v2 writer is deterministic too.
        via_v1 = load_trace(v1_first)
        again = save_trace(
            via_v1, d / "e.rtrc", version=2, name="t", chunk_records=chunk_records
        )
        assert again.read_bytes() == v2_bytes

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
        self, tmp_path, n, chunk_records, start, length
    ):
        d = tmp_path / f"{n}_{chunk_records}_{start}_{length}"
        d.mkdir(exist_ok=True)
        trace = stride_trace(n)
        path = save_trace(trace, d / "w.rtrc", chunk_records=chunk_records)
        chunked = load_trace(path)
        start = min(start, n)
        stop = min(start + length, n)
        window = chunked.window_columns(start, stop)
        full = trace.access_columns()
        assert list(window.pcs) == list(full.pcs[start:stop])
        assert list(window.addresses) == list(full.addresses[start:stop])
        assert bytes(window.writes) == bytes(full.writes[start:stop])


class TestChunkBoundaries:
    def test_count_exactly_on_chunk_edge(self, tmp_path):
        trace = stride_trace(128)
        path = save_trace(trace, tmp_path / "edge.rtrc", chunk_records=64)
        chunked = load_trace(path)
        assert chunked.chunk_count == 2
        assert list(chunked) == list(trace)
        assert chunked[127].address == trace[127].address

    def test_single_record_chunks(self, tmp_path):
        trace = stride_trace(5)
        path = save_trace(trace, tmp_path / "one.rtrc", chunk_records=1)
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
        assert header.records == 0 and header.version == 2

    def test_window_spanning_chunks_decodes_only_those(self, tmp_path):
        trace = stride_trace(1000)
        path = save_trace(trace, tmp_path / "span.rtrc", chunk_records=64)
        chunked = load_trace(path)
        window = chunked.window_columns(100, 200)  # chunks 1..3
        assert list(window.addresses) == [
            trace[i].address for i in range(100, 200)
        ]
        assert chunked.chunks_decoded == 3

    def test_lru_cache_stays_bounded(self, tmp_path):
        trace = stride_trace(600)
        path = save_trace(trace, tmp_path / "lru.rtrc", chunk_records=32)
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
    def _v2_file(self, tmp_path, n=300, chunk_records=64) -> Path:
        return save_trace(
            stride_trace(n), tmp_path / "t.rtrc", chunk_records=chunk_records
        )

    def test_truncated_trailer_rejected(self, tmp_path):
        path = self._v2_file(tmp_path)
        raw = path.read_bytes()
        (tmp_path / "torn.rtrc").write_bytes(raw[:-5])
        with pytest.raises(TraceFormatError, match="trailer"):
            load_trace(tmp_path / "torn.rtrc")

    def test_corrupt_trailer_magic_rejected(self, tmp_path):
        path = self._v2_file(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[-4:] = b"XXXX"
        (tmp_path / "magic.rtrc").write_bytes(bytes(raw))
        with pytest.raises(TraceFormatError, match="trailer magic"):
            load_trace(tmp_path / "magic.rtrc")

    def test_footer_offset_outside_file_rejected(self, tmp_path):
        path = self._v2_file(tmp_path)
        raw = bytearray(path.read_bytes())
        offset, count, per_chunk, magic = struct.unpack_from("<QQQ4s", raw, len(raw) - 28)
        struct.pack_into(
            "<QQQ4s", raw, len(raw) - 28, offset + 999, count, per_chunk, magic
        )
        (tmp_path / "foot.rtrc").write_bytes(bytes(raw))
        with pytest.raises(TraceFormatError, match="(footer|chunk index)"):
            load_trace(tmp_path / "foot.rtrc")

    def test_torn_chunk_body_rejected_on_decode(self, tmp_path):
        path = self._v2_file(tmp_path)
        raw = bytearray(path.read_bytes())
        header = read_header(path)
        # Corrupt the first chunk's section lengths: the file opens (the
        # footer is intact) but decoding that chunk must fail loudly.
        json_length = _FIXED_HEADER.unpack_from(raw)[5]
        body = _FIXED_HEADER.size + json_length
        struct.pack_into("<I", raw, body, 0xFFFF)
        (tmp_path / "chunk.rtrc").write_bytes(bytes(raw))
        chunked = load_trace(tmp_path / "chunk.rtrc")
        assert len(chunked) == header.records  # header/footer still readable
        with pytest.raises(TraceFormatError, match="torn|truncated"):
            chunked[0]

    def test_unsupported_version_still_rejected(self, tmp_path):
        path = self._v2_file(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[4] = 0x7F  # version field of the fixed header
        (tmp_path / "vers.rtrc").write_bytes(bytes(raw))
        with pytest.raises(TraceFormatError, match="version"):
            load_trace(tmp_path / "vers.rtrc")


class TestSelectiveDecode:
    def test_sample_window_decodes_only_covered_chunks(self, tmp_path):
        from repro.traces.samplers import sample_window

        trace = stride_trace(1024)
        path = save_trace(trace, tmp_path / "s.rtrc", chunk_records=64)
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


# A module-scoped directory holding the same 1400-access xalan stream under
# every encoding, so the full-matrix parity test records once, not per cell.
@pytest.fixture(scope="module")
def encoding_dir(tmp_path_factory):
    from repro.traces.format import pack_trace

    directory = tmp_path_factory.mktemp("encodings")
    stream = pack_trace(generate_workload("xalan", length=1400), name="bh")
    save_trace(stream, directory / "bh_v1.rtrc", name="bh_v1", version=1)
    save_trace(
        stream, directory / "bh_v2.rtrc", name="bh_v2", version=2, chunk_records=256
    )
    save_trace(
        stream,
        directory / "bh_gz.rtrc.gz",
        name="bh_gz",
        version=2,
        chunk_records=256,
    )
    return directory


class TestEncodingParityMatrix:
    """Replay statistics must not depend on the container encoding."""

    @pytest.mark.parametrize("configuration", CONFIGS.names())
    def test_bit_identical_across_encodings(
        self, configuration, encoding_dir, monkeypatch
    ):
        monkeypatch.setenv("REPRO_TRACE_DIR", str(encoding_dir))
        clear_trace_memo()
        clear_digest_memo()
        runner = ExperimentRunner(
            max_accesses=500,
            trace_overrides={},
            warmup_fraction=0.3,
            use_cache=False,
        )
        params = (
            {"max_entries": 192} if CONFIGS.takes_params(configuration) else None
        )
        results = {}
        for stem in ("bh_v1", "bh_v2", "bh_gz"):
            spec = runner.spec_for(f"trace:{stem}", configuration, params)
            stats = asdict(execute_spec(spec, kernel="fast"))
            stats["workload"] = "trace"  # the only legitimate difference
            results[stem] = stats
        assert results["bh_v1"] == results["bh_v2"] == results["bh_gz"]


class TestTraceInfoAndPack:
    def test_gzip_header_reads_without_the_payload(self, tmp_path, capsys):
        """``read_header`` works from the header alone — proven on a gzip
        file whose payload is torn off after the header."""

        from repro.cli import main

        trace = stride_trace(5000)
        plain = save_trace(trace, tmp_path / "big.rtrc", version=1)
        raw = plain.read_bytes()
        json_length = _FIXED_HEADER.unpack_from(raw)[5]
        header_end = _FIXED_HEADER.size + json_length
        torn = tmp_path / "big_torn.rtrc.gz"
        torn.write_bytes(gzip.compress(raw[: header_end + 16]))

        header = read_header(torn)
        assert header.records == 5000
        assert header.compressed

        # Plain info genuinely needs the payload, so the torn file fails —
        # demonstrating the header read really is header-only.
        assert main(["trace", "info", str(torn)]) != 0

    def test_info_reports_v2_encoding_ratio(self, tmp_path, capsys):
        trace = stride_trace(4000)
        save_trace(trace, tmp_path / "enc.rtrc", chunk_records=512)
        from repro.cli import main

        assert main(["trace", "info", str(tmp_path / "enc.rtrc")]) == 0
        out = capsys.readouterr().out
        assert "encoding:     8 chunk(s) x 512 records" in out
        assert "B/access vs 16 raw" in out

    def test_pack_round_trips_and_reports_rekey(self, tmp_path, capsys):
        from repro.cli import main

        trace = stride_trace(2000, name="pk")
        source = save_trace(trace, tmp_path / "pk.rtrc", version=1)
        assert (
            main(
                [
                    "trace",
                    "pack",
                    str(source),
                    "--name",
                    "pk2",
                    "--dir",
                    str(tmp_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "packed" in out and "re-keyed" in out
        repacked = load_trace(tmp_path / "pk2.rtrc")
        assert isinstance(repacked, ChunkedTrace)
        assert list(repacked) == list(trace)
        # v2 back to v1 reproduces the original bytes (name restored).
        assert main(
            [
                "trace",
                "pack",
                str(tmp_path / "pk2.rtrc"),
                "--version",
                "1",
                "--name",
                "pk",
                "--dir",
                str(tmp_path / "back"),
            ]
        ) == 0
        capsys.readouterr()
        assert (tmp_path / "back" / "pk.rtrc").read_bytes() == source.read_bytes()
