"""Tests for the trace I/O subsystem (:mod:`repro.traces`).

Covers the ``.rtrc`` format round-trip, the array-backed
:class:`PackedTrace` protocol, the ChampSim importer, the recorder, the
samplers' provenance, ``trace:`` workload resolution through the registry,
content-digest spec hashing, and the acceptance property: replaying a
recorded synthetic workload through the simulator yields bit-identical
statistics to the live generator, cold and against a warm store.
"""

from __future__ import annotations

import dataclasses
import gzip
import warnings

import pytest

from repro.experiments.jobs import RunSpec, clear_trace_memo, execute_spec
from repro.experiments.runner import ExperimentRunner
from repro.experiments.store import default_store
from repro.memory.request import MemoryAccess
from repro.sim.config import SystemConfig
from repro.traces import (
    ChampSimParseError,
    PackedTrace,
    TraceFormatError,
    import_champsim_trace,
    load_trace,
    pack_trace,
    read_header,
    record_workload,
    sample_systematic,
    sample_window,
    save_trace,
    trace_file_digest,
)
from repro.traces.format import clear_digest_memo
from repro.workloads.micro import generate_pointer_chase_trace
from repro.workloads.registry import (
    TRACE_PREFIX,
    add_trace_directory,
    available_trace_workloads,
    available_workloads,
    generate_workload,
    remove_trace_directory,
    resolve_trace_path,
    trace_search_path,
)
from repro.workloads.trace import LINE_SHIFT, Trace


@pytest.fixture
def trace_dir(tmp_path, monkeypatch):
    """An isolated trace search path for each test."""

    directory = tmp_path / "traces"
    directory.mkdir()
    monkeypatch.setenv("REPRO_TRACE_DIR", str(directory))
    clear_trace_memo()
    clear_digest_memo()
    yield directory
    clear_trace_memo()


def small_trace(accesses: int = 300, name: str = "unit") -> Trace:
    trace = Trace(name=name)
    for index in range(accesses):
        trace.append(
            MemoryAccess(
                pc=0x400000 + (index % 5) * 8,
                address=0x7000_0000 + (index % 37) * 64,
                is_write=index % 11 == 0,
            )
        )
    trace.metadata = {"generator": "unit", "accesses": accesses}
    return trace


class TestPackedTrace:
    def test_satisfies_the_trace_protocol(self):
        live = small_trace()
        packed = pack_trace(live)
        assert len(packed) == len(live)
        assert list(packed) == list(live.accesses)
        assert packed[0] == live[0]
        assert packed[-1] == live[len(live) - 1]
        assert packed.unique_lines() == live.unique_lines()
        assert packed.unique_pcs() == live.unique_pcs()
        assert packed.name == live.name
        assert packed.metadata == live.metadata

    def test_write_bits_round_trip(self):
        live = small_trace()
        packed = pack_trace(live)
        for index, access in enumerate(live):
            assert packed.is_write(index) == access.is_write
            assert packed[index].is_write == access.is_write

    @pytest.mark.parametrize("accesses", [1, 7, 8, 9, 300])
    def test_write_count_matches_scan_and_masks_tail_bits(self, accesses):
        packed = pack_trace(small_trace(accesses))
        expected = sum(packed.is_write(index) for index in range(len(packed)))
        assert packed.write_count() == expected
        # Stray bits beyond the record count must not inflate the count.
        dirty = PackedTrace(
            name=packed.name,
            pcs=packed._pcs,
            addresses=packed._addresses,
            writes=bytes(0xFF for _ in packed._writes),
            metadata=packed.metadata,
        )
        assert dirty.write_count() == accesses

    def test_slice_matches_list_slice(self):
        live = small_trace()
        packed = pack_trace(live)
        window = packed.slice(13, 90)
        assert list(window) == live.accesses[13:90]
        assert window.line_shift == LINE_SHIFT

    def test_index_out_of_range(self):
        packed = pack_trace(small_trace(10))
        with pytest.raises(IndexError):
            packed[10]

    def test_pack_trace_rename_preserves_columns_and_line_shift(self):
        packed = pack_trace(small_trace(40))
        foreign = PackedTrace(
            name=packed.name,
            pcs=packed._pcs,
            addresses=packed._addresses,
            writes=packed._writes,
            metadata=packed.metadata,
            line_shift=7,  # a foreign file's recorded geometry
        )
        renamed = pack_trace(foreign, name="renamed")
        assert renamed.name == "renamed"
        assert renamed.line_shift == 7
        assert list(renamed) == list(foreign)

    def test_line_shift_shared_with_trace_stats(self):
        """Satellite: both containers derive footprints from LINE_SHIFT."""

        from repro.memory.address import CACHE_LINE_BITS

        assert LINE_SHIFT == CACHE_LINE_BITS
        live = small_trace()
        assert pack_trace(live).unique_lines() == len(
            {access.address >> LINE_SHIFT for access in live}
        )


class TestFormatRoundTrip:
    def test_save_load_round_trip(self, tmp_path):
        live = small_trace()
        path = save_trace(live, tmp_path / "unit.rtrc")
        loaded = load_trace(path)
        assert list(loaded) == list(live.accesses)
        assert loaded.name == "unit"
        assert loaded.metadata == live.metadata
        assert loaded.line_shift == LINE_SHIFT

    def test_output_is_deterministic_across_time(self, tmp_path, monkeypatch):
        """Identical streams must produce identical bytes whenever saved —
        the file-content digest keys the result store."""

        import time

        live = small_trace(200)
        monkeypatch.setattr(time, "time", lambda: 1_000_000.0)
        first = save_trace(live, tmp_path / "a.rtrc").read_bytes()
        monkeypatch.setattr(time, "time", lambda: 2_000_000.0)
        second = save_trace(live, tmp_path / "b.rtrc").read_bytes()
        assert first == second

    def test_header_readable_without_payload_decode(self, tmp_path):
        path = save_trace(small_trace(123), tmp_path / "h.rtrc")
        header = read_header(path)
        assert header.records == 123
        assert header.name == "unit"
        assert header.line_shift == LINE_SHIFT
        assert header.metadata["generator"] == "unit"

    def test_open_trace_returns_stream_and_header_from_one_read(self, tmp_path):
        from repro.traces import open_trace

        path = save_trace(small_trace(50), tmp_path / "o.rtrc")
        trace, header = open_trace(path)
        assert len(trace) == header.records == 50
        assert header.version == 3

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.rtrc"
        path.write_bytes(b"NOPE" + bytes(64))
        with pytest.raises(TraceFormatError, match="bad magic"):
            load_trace(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = save_trace(small_trace(100), tmp_path / "t.rtrc")
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(TraceFormatError, match="truncated"):
            load_trace(path)

    def test_unsupported_version_rejected(self, tmp_path):
        path = save_trace(small_trace(10), tmp_path / "v.rtrc")
        data = bytearray(path.read_bytes())
        data[4] = 0xFF  # bump the version field
        path.write_bytes(bytes(data))
        with pytest.raises(TraceFormatError, match="version"):
            load_trace(path)

    def test_foreign_line_shift_refused_on_load_but_inspectable(self, tmp_path):
        """Loading enforces this build's geometry; read_header still decodes."""

        path = save_trace(small_trace(10), tmp_path / "s.rtrc")
        data = bytearray(path.read_bytes())
        data[8] = 7  # the header's line-shift byte
        path.write_bytes(bytes(data))
        with pytest.raises(TraceFormatError, match="line shift 7"):
            load_trace(path)
        assert read_header(path).line_shift == 7

    def test_save_trace_evicts_the_digest_memo_for_its_path(self, tmp_path):
        """An in-process rewrite must never serve the pre-rewrite digest,
        even when size and mtime granularity would collide."""

        import os

        path = save_trace(small_trace(64, name="a"), tmp_path / "m.rtrc")
        before = trace_file_digest(path)
        stat = path.stat()
        save_trace(small_trace(64, name="b"), tmp_path / "m.rtrc")
        # Force the memo-key collision the eviction protects against.
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert trace_file_digest(path) != before


class TestChampSimImport:
    def test_import_decimal_text_trace(self, tmp_path):
        """A file with only 0x-prefixed and digit-only bare fields is
        sniffed as decimal for the bare ones."""

        source = tmp_path / "dump.trace"
        source.write_text(
            "# ChampSim LS dump\n"
            "0x400400 0x70000000 L\n"
            "0x400404 0x70000040 S\n"
            "\n"
            "4195336 1879048320 W\n"
        )
        trace = import_champsim_trace(source)
        assert len(trace) == 3
        assert trace[0] == MemoryAccess(pc=0x400400, address=0x70000000)
        assert trace[1].is_write and trace[2].is_write
        assert trace[2] == MemoryAccess(pc=4195336, address=1879048320, is_write=True)
        assert trace.name == "dump"
        assert trace.metadata["imported"]["writes"] == 2
        assert trace.metadata["imported"]["bare_radix"] == 10

    def test_bare_hex_radix_applies_to_the_whole_file(self, tmp_path):
        """One radix per file: digit-only values in a bare-hex dump must
        parse as hex too, never silently flip to decimal per token."""

        source = tmp_path / "hexdump.trace"
        source.write_text("7f1a400 deadbeef L\n41000200 41000240 L\n")
        trace = import_champsim_trace(source)
        assert trace.metadata["imported"]["bare_radix"] == 16
        assert trace[0] == MemoryAccess(pc=0x7F1A400, address=0xDEADBEEF)
        assert trace[1] == MemoryAccess(pc=0x41000200, address=0x41000240)

    def test_explicit_radix_overrides_the_sniff(self, tmp_path):
        source = tmp_path / "digits.trace"
        source.write_text("1024 2048 L\n")
        as_hex = import_champsim_trace(source, radix="hex")
        assert as_hex[0] == MemoryAccess(pc=0x1024, address=0x2048)
        # An explicit radix skips the sniff, so no ambiguity warning fires.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            as_dec = import_champsim_trace(source, radix="dec")
        assert as_dec[0] == MemoryAccess(pc=1024, address=2048)
        with pytest.raises(ValueError, match="radix"):
            import_champsim_trace(source, radix="octal")

    def test_ambiguous_auto_sniff_warns_but_prefixed_files_do_not(self, tmp_path):
        """All-digit bare fields are genuinely ambiguous under auto; a file
        of only 0x-prefixed fields is not and must stay silent."""

        ambiguous = tmp_path / "ambiguous.trace"
        ambiguous.write_text("400400 70001040 L\n")
        with pytest.warns(UserWarning, match="--radix hex"):
            trace = import_champsim_trace(ambiguous)
        assert trace.metadata["imported"]["bare_radix"] == 10
        prefixed = tmp_path / "prefixed.trace"
        prefixed.write_text("0x400400 0x70001040 L\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            import_champsim_trace(prefixed)

    def test_forced_decimal_rejects_hex_letters_with_line_number(self, tmp_path):
        source = tmp_path / "hexdump.trace"
        source.write_text("0x1 0x40 L\ndeadbeef 7f1a400 L\n")
        with pytest.raises(ChampSimParseError, match=":2:"):
            import_champsim_trace(source, radix="dec")

    def test_import_gzip_trace(self, tmp_path):
        source = tmp_path / "dump.trace.gz"
        with gzip.open(source, "wt") as handle:
            handle.write("0x1 0x40 L\n0x2 0x80 S\n")
        trace = import_champsim_trace(source, name="gz")
        assert len(trace) == 2
        assert trace.name == "gz"

    def test_unparsable_line_names_its_number(self, tmp_path):
        source = tmp_path / "bad.trace"
        source.write_text("0x1 0x40 L\nwhat even is this line\n")
        with pytest.raises(ChampSimParseError, match=":2:"):
            import_champsim_trace(source)

    def test_unknown_access_type_rejected(self, tmp_path):
        source = tmp_path / "bad.trace"
        source.write_text("0x1 0x40 Q\n")
        with pytest.raises(ChampSimParseError, match="unknown access type"):
            import_champsim_trace(source)

    @pytest.mark.parametrize("value", ["-1", str(1 << 64)])
    def test_out_of_uint64_range_values_rejected_with_line_number(
        self, tmp_path, value
    ):
        source = tmp_path / "bad.trace"
        source.write_text(f"0x1 0x40 L\n0x400 {value} L\n")
        with pytest.raises(ChampSimParseError, match=":2:.*uint64"):
            import_champsim_trace(source)

    def test_empty_file_rejected(self, tmp_path):
        source = tmp_path / "empty.trace"
        source.write_text("# nothing here\n")
        with pytest.raises(ChampSimParseError, match="no accesses"):
            import_champsim_trace(source)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            import_champsim_trace(tmp_path / "absent.trace")


class TestSamplers:
    def test_window_slices_and_records_provenance(self):
        live = small_trace(200)
        window = sample_window(live, 50, 30)
        assert list(window) == live.accesses[50:80]
        assert window.metadata["sampled"] == {
            "sampler": "window",
            "start": 50,
            "length": 30,
            "source": "unit",
            "source_accesses": 200,
        }

    def test_window_clips_at_the_end(self):
        window = sample_window(small_trace(100), 90, 50)
        assert len(window) == 10
        assert window.metadata["sampled"]["length"] == 10

    def test_systematic_keeps_every_period(self):
        live = small_trace(100)
        sampled = sample_systematic(live, 10, block=2, offset=3)
        expected = [
            access
            for index, access in enumerate(live)
            if index >= 3 and (index - 3) % 10 < 2
        ]
        assert list(sampled) == expected
        assert sampled.metadata["sampled"]["sampler"] == "systematic"

    def test_validation(self):
        live = small_trace(20)
        with pytest.raises(ValueError):
            sample_window(live, -1, 5)
        with pytest.raises(ValueError):
            sample_window(live, 0, 0)
        with pytest.raises(ValueError):
            sample_systematic(live, 0)
        with pytest.raises(ValueError):
            sample_systematic(live, 4, block=5)
        with pytest.raises(ValueError):
            sample_systematic(live, 4, offset=4)


class TestRegistryResolution:
    def test_recorded_workload_resolves_and_lists(self, trace_dir):
        record_workload("pointer_chase", trace_dir, overrides={"nodes": 32})
        assert f"{TRACE_PREFIX}pointer_chase" in available_trace_workloads()
        assert f"{TRACE_PREFIX}pointer_chase" in available_workloads()
        trace = generate_workload(f"{TRACE_PREFIX}pointer_chase")
        assert trace.name == f"{TRACE_PREFIX}pointer_chase"
        live = generate_pointer_chase_trace(nodes=32)
        assert list(trace) == list(live.accesses)

    def test_rerecording_a_trace_workload_strips_the_prefix(self, trace_dir):
        """`record trace:<name>` re-encodes the file under the bare stem."""

        first = record_workload("pointer_chase", trace_dir, overrides={"nodes": 16})
        path = record_workload(f"{TRACE_PREFIX}pointer_chase", trace_dir)
        assert path == first and path.name == "pointer_chase.rtrc"
        assert resolve_trace_path("pointer_chase") == path

    def test_length_override_truncates(self, trace_dir):
        record_workload("pointer_chase", trace_dir, overrides={"nodes": 64})
        truncated = generate_workload(f"{TRACE_PREFIX}pointer_chase", length=100)
        assert len(truncated) == 100

    def test_other_overrides_rejected(self, trace_dir):
        record_workload("pointer_chase", trace_dir)
        with pytest.raises(ValueError, match="only the 'length' override"):
            generate_workload(f"{TRACE_PREFIX}pointer_chase", seed=9)

    def test_unknown_trace_name_lists_search_path(self, trace_dir):
        with pytest.raises(ValueError, match="no trace file"):
            generate_workload(f"{TRACE_PREFIX}absent")

    def test_runtime_directories_take_precedence(self, trace_dir, tmp_path):
        extra = tmp_path / "extra"
        extra.mkdir()
        record_workload("pointer_chase", trace_dir, name="which", overrides={"nodes": 16})
        record_workload("sequential", extra, name="which", overrides={"lines": 8})
        added = add_trace_directory(extra)
        try:
            assert trace_search_path()[0] == added
            assert resolve_trace_path("which").parent == extra
        finally:
            assert remove_trace_directory(extra)
        assert trace_search_path()[0] == trace_dir

    def test_runtime_registration_is_inherited_by_child_processes(
        self, trace_dir, tmp_path
    ):
        """add_trace_directory writes through the environment variable, so
        pool workers (which re-import the registry, e.g. under spawn) see
        the same search path as the parent."""

        import os

        extra = tmp_path / "extra"
        extra.mkdir()
        add_trace_directory(extra)
        try:
            assert str(extra) in os.environ["REPRO_TRACE_DIR"]
            assert str(trace_dir) in os.environ["REPRO_TRACE_DIR"]
        finally:
            assert remove_trace_directory(extra)

    def test_degenerate_search_path_env_falls_back_to_default(self, monkeypatch):
        import os

        monkeypatch.setenv("REPRO_TRACE_DIR", os.pathsep)
        path = trace_search_path()
        assert path  # never empty: [0] is the write target
        assert path[0].name == "traces"


class TestSpecHashing:
    def make_spec(self, workload: str, **overrides) -> RunSpec:
        defaults = dict(
            workload=workload,
            configuration="baseline",
            system=SystemConfig.scaled(),
            max_accesses=100,
            warmup_fraction=0.0,
        )
        defaults.update(overrides)
        return RunSpec.create(**defaults)

    def test_trace_spec_carries_the_file_digest(self, trace_dir):
        record_workload("pointer_chase", trace_dir, name="hashed")
        spec = self.make_spec(f"{TRACE_PREFIX}hashed")
        payload = spec.as_dict()
        digest = trace_file_digest(resolve_trace_path("hashed"))
        assert payload["trace_digests"] == {f"{TRACE_PREFIX}hashed": digest}

    def test_generated_specs_carry_no_digest_entry(self):
        assert "trace_digests" not in self.make_spec("xalan").as_dict()

    def test_rewriting_the_file_changes_the_hash(self, trace_dir):
        """Acceptance: the store keys on what a trace file contains."""

        record_workload("pointer_chase", trace_dir, name="mutable", overrides={"nodes": 32})
        before = self.make_spec(f"{TRACE_PREFIX}mutable").content_hash()
        clear_digest_memo()
        save_trace(small_trace(500), trace_dir / "mutable.rtrc", name="mutable")
        after = self.make_spec(f"{TRACE_PREFIX}mutable").content_hash()
        assert before != after

    def test_hash_is_frozen_at_creation_and_hashing_does_no_io(self, trace_dir):
        """The digest is a spec field: rewriting the file never mutates an
        existing spec's key, and content_hash works after file deletion."""

        record_workload("pointer_chase", trace_dir, name="frozen", overrides={"nodes": 32})
        spec = self.make_spec(f"{TRACE_PREFIX}frozen")
        before = spec.content_hash()
        clear_digest_memo()
        save_trace(small_trace(500), trace_dir / "frozen.rtrc", name="frozen")
        assert spec.content_hash() == before  # identity fixed at create()
        (trace_dir / "frozen.rtrc").unlink()
        assert spec.content_hash() == before  # no filesystem dependence

    def test_execute_refuses_a_changed_trace_file(self, trace_dir):
        """A spec compiled against one file version never simulates another."""

        record_workload("pointer_chase", trace_dir, name="guard", overrides={"nodes": 32})
        spec = self.make_spec(f"{TRACE_PREFIX}guard")
        clear_digest_memo()
        save_trace(small_trace(500), trace_dir / "guard.rtrc", name="guard")
        with pytest.raises(ValueError, match="changed since"):
            execute_spec(spec)

    def test_multiprogram_specs_hash_trace_files_too(self, trace_dir):
        from repro.experiments.jobs import MultiProgramSpec

        record_workload("pointer_chase", trace_dir, name="mp")
        spec = MultiProgramSpec.create(
            workloads=(f"{TRACE_PREFIX}mp", "xalan"),
            configuration="baseline",
            system=SystemConfig.scaled(),
        )
        assert f"{TRACE_PREFIX}mp" in spec.as_dict()["trace_digests"]


class TestRecordReplayParity:
    """Acceptance: replay is bit-identical to the live generator."""

    def assert_stats_identical(self, live, replayed):
        live_dict = dataclasses.asdict(live)
        replayed_dict = dataclasses.asdict(replayed)
        # The workload label necessarily differs (the axis name is the
        # identity); every simulated counter must match exactly.
        live_dict.pop("workload")
        replayed_dict.pop("workload")
        assert live_dict == replayed_dict

    def test_cold_replay_matches_live_generation(self, trace_dir):
        record_workload("pointer_chase", trace_dir, name="parity")
        common = dict(
            configuration="triangel",
            system=SystemConfig.scaled(),
            warmup_fraction=0.4,
            max_accesses=2000,
        )
        live = execute_spec(RunSpec.create(workload="pointer_chase", **common))
        replayed = execute_spec(
            RunSpec.create(workload=f"{TRACE_PREFIX}parity", **common)
        )
        assert replayed.accesses > 0
        self.assert_stats_identical(live, replayed)

    def test_warm_store_replay_stays_identical(self, trace_dir):
        """Cold run persists; the warm run replays the identical payload."""

        record_workload("pointer_chase", trace_dir, name="parity")
        runner = ExperimentRunner(max_accesses=1500, warmup_fraction=0.3)
        cold = runner.run(f"{TRACE_PREFIX}parity", "triage")
        store = default_store()
        puts = store.puts
        warm = runner.run(f"{TRACE_PREFIX}parity", "triage")
        assert store.puts == puts  # zero re-executions
        assert dataclasses.asdict(warm) == dataclasses.asdict(cold)
        # And a fresh store instance (a later process, in effect) replays
        # the exact persisted counters.
        fresh = ExperimentRunner(max_accesses=1500, warmup_fraction=0.3).run(
            f"{TRACE_PREFIX}parity", "triage"
        )
        assert dataclasses.asdict(fresh) == dataclasses.asdict(cold)

    def test_imported_trace_runs_through_a_study(self, trace_dir, tmp_path):
        """Acceptance: an imported ChampSim trace runs an existing study
        end-to-end with results persisted, re-executing zero simulations
        on the warm second run."""

        from repro.experiments.studies import STUDIES

        source = tmp_path / "ext.trace"
        with source.open("w") as handle:
            for index in range(3000):
                pc = 0x400400 + (index % 3) * 8
                address = 0x70000000 + (index % 97) * 64
                handle.write(f"{pc:#x} {address:#x} {'S' if index % 13 == 0 else 'L'}\n")
        save_trace(import_champsim_trace(source, name="ext"), trace_dir / "ext.rtrc")

        study = STUDIES.get("fig10").overridden(
            workloads=[f"{TRACE_PREFIX}ext"], configurations=["triangel"]
        )
        runner = study.make_runner(max_accesses=800, warmup_fraction=0.3)
        first = study.run(runner)
        store = default_store()
        puts = store.puts
        assert puts == len(study.compile(runner))
        second = study.run(runner)
        assert store.puts == puts  # warm run re-executes nothing
        assert second.rendered == first.rendered
        assert f"{TRACE_PREFIX}ext" in first.rendered
