"""Figure 18: Triage speedup under different Markov-table entry formats."""

from bench_utils import run_once

from repro.experiments.studies import STUDIES


def test_figure_18_metadata_formats(benchmark, runner):
    result = run_once(benchmark, STUDIES.run, "fig18", runner)
    print()
    print(result.rendered)

    summary = result.geomean_row()
    # Paper shape: storing the full 42-bit address beats every LUT-compressed
    # variant; the 16-way LUT performs like the fully-associative LUT; the
    # ideal (impossible) LUT is an upper bound on the 32-bit formats; and the
    # fragmented 10-bit-offset variant is the worst configuration.
    assert summary["42-bit"] >= summary["32-bit-LUT-16-way"] * 0.98
    assert summary["32-bit-ideal"] >= summary["32-bit-LUT-16-way"] * 0.98
    assert abs(summary["32-bit-LUT-16-way"] - summary["32-bit-LUT-1024-way"]) < 0.2
    assert summary["32-bit-LUT-16-way-10b-offset"] <= summary["32-bit-LUT-16-way"] * 1.02
    assert summary["32-bit-LUT-16-way-10b-offset"] <= summary["42-bit"]
