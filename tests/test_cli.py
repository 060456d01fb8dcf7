"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.experiments.runner import clear_caches


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_arguments(self):
        args = build_parser().parse_args(
            ["run", "xalan", "--config", "triangel", "--max-accesses", "500"]
        )
        assert args.workload == "xalan"
        assert args.config == ["triangel"]
        assert args.max_accesses == 500

    def test_unknown_figure_rejected(self):
        # Every figure has one spelling, `study run NAME`: there is no
        # `figure` verb to take a figure name.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig10"])


class TestCommands:
    def test_list_prints_workloads_and_configs(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "xalan" in output
        assert "triangel" in output

    def test_run_prints_metrics_table(self, capsys):
        clear_caches()
        code = main(
            [
                "run",
                "xalan",
                "--config",
                "triage",
                "--trace-length",
                "2000",
                "--max-accesses",
                "800",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "speedup" in output
        assert "triage" in output

    def test_run_graph500_with_trace_length(self, capsys):
        code = main(
            [
                "run",
                "graph500_s16",
                "--config",
                "triangel",
                "--trace-length",
                "600",
                "--no-cache",
            ]
        )
        assert code == 0
        assert "360 sampled accesses" in capsys.readouterr().out

    def test_figure_table1_is_analytic_and_fast(self, capsys):
        assert main(["study", "run", "table1"]) == 0
        output = capsys.readouterr().out
        assert "Training Table" in output

    def test_figure_table2(self, capsys):
        assert main(["study", "run", "table2"]) == 0
        assert "L3 Cache" in capsys.readouterr().out


class TestStudyCommands:
    def test_study_list_names_every_study(self, capsys):
        from repro.experiments.studies import STUDIES

        assert main(["study", "list"]) == 0
        output = capsys.readouterr().out
        for name in STUDIES.names():
            assert name in output

    def test_study_describe_shows_axes(self, capsys):
        assert main(["study", "describe", "fig16"]) == 0
        output = capsys.readouterr().out
        assert "multiprogram" in output
        assert "xalan & omnet" in output
        assert "batch:" in output

    def test_study_run_with_overrides(self, capsys):
        clear_caches()
        code = main(
            [
                "study",
                "run",
                "replacement-study",
                "--workloads",
                "xalan",
                "--set",
                "max_entries=64",
                "--trace-length",
                "1200",
                "--max-accesses",
                "500",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "capacity capped at 64 entries" in output
        assert "triage-hawkeye" in output
        assert "xalan" in output

    def test_study_run_name_lists_tolerate_whitespace(self, capsys):
        clear_caches()
        code = main(
            [
                "study",
                "run",
                "fig10",
                "--workloads",
                "xalan, mcf",
                "--configs",
                " triage ,triangel",
                "--trace-length",
                "1200",
                "--max-accesses",
                "400",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "xalan" in output and "mcf" in output

    def test_study_run_rejects_empty_name_lists(self, capsys):
        assert main(["study", "run", "fig10", "--workloads", ", "]) == 2
        assert "--workloads: no names given" in capsys.readouterr().err

    def test_study_run_rejects_max_accesses_on_multiprogram(self, capsys):
        assert main(["study", "run", "fig16", "--max-accesses", "500"]) == 2
        assert "--max-accesses does not apply" in capsys.readouterr().err

    def test_study_run_rejects_non_positive_trace_length(self, capsys):
        assert main(["study", "run", "fig10", "--trace-length", "0"]) == 2
        assert "--trace-length must be positive" in capsys.readouterr().err

    def test_validation_errors_exit_cleanly_not_with_tracebacks(self, capsys):
        """User input problems print one line to stderr and return 2."""

        assert main(["study", "run", "fig10", "--configs", "trianglee"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: ")
        assert "unknown configuration" in err

    def test_study_run_analytic(self, capsys):
        assert main(["study", "run", "table1"]) == 0
        assert "Training Table" in capsys.readouterr().out

    def test_study_run_requires_name_or_all(self, capsys):
        assert main(["study", "run"]) == 2
        assert "study name or --all" in capsys.readouterr().err

    def test_study_run_all_rejects_axis_overrides(self, capsys):
        assert main(["study", "run", "--all", "--set", "scale=0.5"]) == 2
        assert "does not take axis overrides" in capsys.readouterr().err

    def test_study_run_all_rejects_a_study_name(self, capsys):
        assert main(["study", "run", "fig10", "--all"]) == 2
        assert "not both" in capsys.readouterr().err

    def test_study_run_all_rejects_truncation_flags(self, capsys):
        assert main(["study", "run", "--all", "--max-accesses", "500"]) == 2
        assert "truncation flags" in capsys.readouterr().err
        assert main(["study", "run", "--all", "--trace-length", "1000"]) == 2
        assert "truncation flags" in capsys.readouterr().err

    def test_study_run_no_cache_executes_each_cell_once(self, capsys):
        """--no-cache must not double-simulate (no store to warm up front)."""

        from unittest.mock import patch

        from repro.experiments.jobs import execute_spec

        calls = []

        def counting(spec, *args, **kwargs):
            calls.append(spec)
            return execute_spec(spec, *args, **kwargs)

        with patch("repro.experiments.jobs.execute", side_effect=counting):
            code = main(
                [
                    "study",
                    "run",
                    "fig10",
                    "--workloads",
                    "xalan",
                    "--configs",
                    "triangel",
                    "--trace-length",
                    "1200",
                    "--max-accesses",
                    "400",
                    "--no-cache",
                    # The counting mock lives in this process; a pool
                    # worker (REPRO_JOBS) could neither receive nor call it.
                    "--jobs",
                    "1",
                ]
            )
        assert code == 0
        assert "Figure 10" in capsys.readouterr().out
        assert len(calls) == len(set(calls)) == 2  # baseline + triangel, once each

    def test_study_run_no_cache_two_metric_study_executes_each_cell_once(self, capsys):
        """fig20's two-metric reduction must share one submission per cell."""

        from unittest.mock import patch

        from repro.experiments.jobs import execute_spec

        calls = []

        def counting(spec, *args, **kwargs):
            calls.append(spec)
            return execute_spec(spec, *args, **kwargs)

        with patch("repro.experiments.jobs.execute", side_effect=counting):
            code = main(
                [
                    "study",
                    "run",
                    "fig20",
                    "--workloads",
                    "xalan",
                    "--configs",
                    "ablation-Triage-Deg-4",
                    "--trace-length",
                    "1200",
                    "--max-accesses",
                    "400",
                    "--no-cache",
                    # The counting mock lives in this process; a pool
                    # worker (REPRO_JOBS) could neither receive nor call it.
                    "--jobs",
                    "1",
                ]
            )
        assert code == 0
        assert "Figure 20" in capsys.readouterr().out
        assert len(calls) == len(set(calls)) == 2  # baseline + one ladder step

    def test_unknown_study_rejected(self, capsys):
        assert main(["study", "describe", "fig99"]) == 2
        assert "unknown study" in capsys.readouterr().err

    def test_list_shows_parameter_signatures(self, capsys):
        """Acceptance: parameterised configs are visible with signatures."""

        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "triage-lru(max_entries=1024)" in output
        assert "Studies:" in output
        assert "replacement-study" in output


class TestTraceCommands:
    """The ``repro trace record|import|info|sample`` workflow end-to-end."""

    @pytest.fixture(autouse=True)
    def _trace_dir(self, tmp_path, monkeypatch):
        from repro.experiments.jobs import clear_trace_memo
        from repro.traces.format import clear_digest_memo

        self.directory = tmp_path / "traces"
        self.directory.mkdir()
        monkeypatch.setenv("REPRO_TRACE_DIR", str(self.directory))
        clear_trace_memo()
        clear_digest_memo()
        yield
        clear_trace_memo()

    def test_record_writes_to_the_search_path(self, capsys):
        code = main(["trace", "record", "pointer_chase", "--override", "nodes=32"])
        assert code == 0
        output = capsys.readouterr().out
        assert "trace:pointer_chase" in output
        assert (self.directory / "pointer_chase.rtrc").is_file()

    def test_prefixed_name_flag_is_normalised_to_the_bare_stem(self, tmp_path, capsys):
        """--name trace:leela means the workload name, not a literal stem."""

        source = tmp_path / "dump.trace"
        source.write_text("0x1 0x40 L\n0x2 0x80 L\n")
        assert main(["trace", "import", str(source), "--name", "trace:leela"]) == 0
        output = capsys.readouterr().out
        assert "workload trace:leela" in output
        assert "trace:trace:" not in output
        assert (self.directory / "leela.rtrc").is_file()
        assert main(["trace", "info", "trace:leela"]) == 0

    def test_rerecord_of_trace_workload_claims_single_prefix(self, capsys):
        assert main(["trace", "record", "pointer_chase", "--override", "nodes=8"]) == 0
        capsys.readouterr()
        assert main(["trace", "record", "trace:pointer_chase"]) == 0
        output = capsys.readouterr().out
        assert "workload trace:pointer_chase" in output
        assert "trace:trace:" not in output

    def test_record_unknown_workload_rejected(self, capsys):
        assert main(["trace", "record", "nonesuch"]) == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_info_reports_header_and_footprint(self, capsys):
        assert main(["trace", "record", "sequential", "--length", "64"]) == 2
        capsys.readouterr()  # sequential takes `lines`, not `length`
        assert main(["trace", "record", "sequential", "--override", "lines=64"]) == 0
        capsys.readouterr()
        assert main(["trace", "info", "trace:sequential"]) == 0
        output = capsys.readouterr().out
        assert "accesses:     64" in output
        assert "unique lines: 64" in output
        assert "line shift 6" in output
        assert "recorded:" in output

    def test_import_then_run_workload(self, tmp_path, capsys):
        source = tmp_path / "dump.trace"
        source.write_text(
            "".join(f"0x400400 {hex(0x70000000 + (i % 40) * 64)} L\n" for i in range(1500))
        )
        assert main(["trace", "import", str(source), "--name", "ext"]) == 0
        capsys.readouterr()
        clear_caches()
        code = main(
            ["run", "trace:ext", "--config", "triage", "--max-accesses", "400"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "workload: trace:ext" in output

    def test_sample_window_and_systematic(self, capsys):
        assert main(["trace", "record", "pointer_chase", "--override", "nodes=64"]) == 0
        capsys.readouterr()
        code = main(
            ["trace", "sample", "trace:pointer_chase", "--window", "10:100", "--name", "hot"]
        )
        assert code == 0
        assert "100 accesses" in capsys.readouterr().out
        code = main(
            ["trace", "sample", "trace:pointer_chase", "--every", "4", "--name", "thin"]
        )
        assert code == 0
        capsys.readouterr()
        assert main(["trace", "info", "trace:thin"]) == 0
        assert "sampled:" in capsys.readouterr().out

    def test_sample_requires_exactly_one_mode(self, capsys):
        assert main(["trace", "record", "pointer_chase"]) == 0
        capsys.readouterr()
        assert main(["trace", "sample", "trace:pointer_chase"]) == 2
        assert "exactly one of" in capsys.readouterr().err
        assert (
            main(
                [
                    "trace",
                    "sample",
                    "trace:pointer_chase",
                    "--window",
                    "0:10",
                    "--block",
                    "4",
                ]
            )
            == 2
        )
        assert "--block/--offset apply to --every" in capsys.readouterr().err
        assert (
            main(
                [
                    "trace",
                    "sample",
                    "trace:pointer_chase",
                    "--window",
                    "0:10",
                    "--every",
                    "2",
                ]
            )
            == 2
        )

    def test_off_search_path_dir_does_not_claim_a_workload_name(
        self, tmp_path, capsys
    ):
        """--dir outside the search path must not advertise trace:<name>."""

        elsewhere = tmp_path / "elsewhere"
        code = main(
            ["trace", "record", "pointer_chase", "--dir", str(elsewhere)]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "workload trace:pointer_chase" not in output
        assert "not on the trace search path" in output
        assert "REPRO_TRACE_DIR" in output

    def test_missing_trace_errors_cleanly(self, capsys):
        assert main(["trace", "info", "trace:absent"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: ")
        assert "no trace file" in err

    def test_info_shows_header_for_foreign_line_shift_files(self, capsys):
        """`info` must diagnose files this build refuses to simulate."""

        assert main(["trace", "record", "pointer_chase", "--override", "nodes=8"]) == 0
        capsys.readouterr()
        path = self.directory / "pointer_chase.rtrc"
        data = bytearray(path.read_bytes())
        data[8] = 7  # the header's line-shift byte
        path.write_bytes(bytes(data))
        assert main(["trace", "info", "trace:pointer_chase"]) == 0
        output = capsys.readouterr().out
        assert "line shift 7" in output
        assert "header shown only" in output
        # Simulating it still fails loudly.
        assert main(["run", "trace:pointer_chase", "--config", "triage"]) == 2
        assert "line shift 7" in capsys.readouterr().err

    def test_study_runs_over_recorded_trace(self, capsys):
        assert main(["trace", "record", "pointer_chase", "--override", "nodes=64"]) == 0
        capsys.readouterr()
        clear_caches()
        code = main(
            [
                "study",
                "run",
                "fig10",
                "--workloads",
                "trace:pointer_chase",
                "--configs",
                "triangel",
                "--max-accesses",
                "400",
            ]
        )
        assert code == 0
        assert "trace:pointer_chase" in capsys.readouterr().out


class TestExecutionOptions:
    def test_jobs_and_cache_dir_accepted(self, tmp_path):
        args = build_parser().parse_args(
            ["study", "run", "fig10", "--jobs", "4", "--cache-dir", str(tmp_path)]
        )
        assert args.jobs == 4
        assert args.cache_dir == str(tmp_path)

    def test_run_populates_named_store(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        argv = [
            "run",
            "xalan",
            "--config",
            "triage",
            "--trace-length",
            "1200",
            "--max-accesses",
            "500",
            "--cache-dir",
            cache,
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(["cache", "show", "--cache-dir", cache]) == 0
        output = capsys.readouterr().out
        assert "entries: 2" in output  # baseline + triage

    def test_cache_clear(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        main(
            [
                "run",
                "xalan",
                "--trace-length",
                "1200",
                "--max-accesses",
                "400",
                "--cache-dir",
                cache,
            ]
        )
        capsys.readouterr()
        assert main(["cache", "clear", "--cache-dir", cache]) == 0
        assert "cleared 3" in capsys.readouterr().out  # baseline, triage, triangel

    def test_cache_show_lists_record_kinds(self, tmp_path, capsys):
        """Acceptance: multiprogram and replacement-study records are listed."""

        from repro.experiments.runner import ExperimentRunner
        from repro.experiments.store import ResultStore

        cache = tmp_path / "cache"
        runner = ExperimentRunner(
            max_accesses=300,
            trace_overrides={"length": 600},
            warmup_fraction=0.2,
            store=ResultStore(cache),
        )
        runner.run("xalan", "baseline")
        runner.run("xalan", "triage-hawkeye", config_params={"max_entries": 64})
        runner.run_multiprogram(("xalan", "omnet"), "baseline", 150)

        assert main(["cache", "show", "--cache-dir", str(cache)]) == 0
        output = capsys.readouterr().out
        assert "entries: 3" in output
        assert "run records:" in output
        assert "parameterised run records:" in output
        assert "multiprogram records:" in output
        assert "xalan × triage-hawkeye [max_entries=64]" in output
        assert "xalan + omnet × baseline" in output

    def test_no_cache_bypasses_store(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        argv = [
            "run",
            "xalan",
            "--config",
            "triage",
            "--trace-length",
            "1200",
            "--max-accesses",
            "400",
            "--cache-dir",
            cache,
            "--no-cache",
        ]
        assert main(argv) == 0
        capsys.readouterr()
        main(["cache", "show", "--cache-dir", cache])
        assert "entries: 0" in capsys.readouterr().out
