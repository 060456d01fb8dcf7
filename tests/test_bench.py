"""Tests for the ``repro bench`` kernel microbenchmark and its CLI."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.experiments import bench
from repro.experiments.bench import (
    BenchParityError,
    render_bench,
    run_bench,
    write_bench,
)


def small_record() -> dict:
    return run_bench(length=600, repeats=1)


class TestRunBench:
    def test_record_shape_and_parity(self):
        record = small_record()
        assert record["bench"] == "engine-kernels"
        assert record["kernels"] == ["reference", "fast"]
        names = [case["name"] for case in record["cases"]]
        assert names == ["synthetic-xalan", "replay-hot"]
        for case in record["cases"]:
            assert case["parity"] is True
            assert case["accesses"] > 0
            assert case["reference_accesses_per_second"] > 0
            assert case["fast_accesses_per_second"] > 0
            assert case["speedup"] == pytest.approx(
                case["fast_accesses_per_second"]
                / case["reference_accesses_per_second"],
                rel=0.01,
            )
            assert case["fast_calls_per_access"] > 1
        assert record["packed_trace_speedup"] == record["cases"][1]["speedup"]
        trace_io = record["trace_io"]
        assert set(trace_io) == {
            "trace",
            "accesses",
            "bytes",
            "bytes_per_access",
            "full_load_seconds",
        }
        assert trace_io["accesses"] == record["cases"][1]["accesses"]
        assert trace_io["bytes_per_access"] == round(
            trace_io["bytes"] / trace_io["accesses"], 3
        )
        assert trace_io["full_load_seconds"] > 0

    def test_call_count_repeats_exactly(self, tmp_path):
        system = bench.SystemConfig.scaled()
        for case in bench._bench_cases(600, tmp_path):
            counts = [bench.count_fast_calls(case, system, 0.25) for _ in range(2)]
            assert counts[0] == counts[1] > len(case.trace)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            run_bench(length=0)
        with pytest.raises(ValueError):
            run_bench(repeats=0)

    def test_parity_mismatch_fails_loudly(self, monkeypatch):
        """The bench must refuse to report rates for diverging kernels."""

        real = bench.KERNELS["fast"]

        def skewed(simulator, trace, **kwargs):
            result = real(simulator, trace, **kwargs)
            result.stats.accesses += 1
            return result

        monkeypatch.setitem(bench.KERNELS, "fast", skewed)
        with pytest.raises(BenchParityError, match="accesses"):
            run_bench(length=400, repeats=1)

    def test_render_mentions_every_case(self):
        record = small_record()
        rendered = render_bench(record)
        assert "synthetic-xalan" in rendered
        assert "replay-hot" in rendered
        assert "speedup" in rendered
        assert "B/access, full load" in rendered

    def test_write_bench_stable_json(self, tmp_path):
        record = small_record()
        path = write_bench(record, tmp_path / "BENCH_engine.json")
        loaded = json.loads(path.read_text())
        assert loaded == record
        # Deterministic serialisation: writing the same record twice is
        # byte-identical (the perf trajectory file must diff cleanly).
        first = path.read_bytes()
        write_bench(record, path)
        assert path.read_bytes() == first


class TestBenchCli:
    def test_bench_writes_record(self, tmp_path, capsys):
        output = tmp_path / "BENCH_engine.json"
        code = main(
            ["bench", "--length", "500", "--repeats", "1", "--output", str(output)]
        )
        assert code == 0
        record = json.loads(output.read_text())
        assert [case["parity"] for case in record["cases"]] == [True] * 2
        printed = capsys.readouterr().out
        assert "replay-hot" in printed
        assert str(output) in printed

    def test_bench_dash_skips_writing(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["bench", "--length", "500", "--repeats", "1", "--output", "-"]) == 0
        assert not (tmp_path / "BENCH_engine.json").exists()
        assert "engine kernel benchmark" in capsys.readouterr().out

    def test_bench_rejects_bad_length(self, capsys):
        assert main(["bench", "--length", "-5", "--output", "-"]) == 2
        assert "repro:" in capsys.readouterr().err

    def test_parity_mismatch_renders_cleanly(self, monkeypatch, capsys):
        """A kernel divergence exits 1 with a one-line error, no traceback."""

        def diverge(**kwargs):
            raise BenchParityError("replay-hot: kernels disagree on ['cycles']")

        monkeypatch.setattr(bench, "run_bench", diverge)
        assert main(["bench", "--length", "500", "--output", "-"]) == 1
        captured = capsys.readouterr()
        assert "kernels disagree" in captured.err
        assert "Traceback" not in captured.err

