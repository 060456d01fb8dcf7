"""Figure 16: multiprogrammed-pair speedups (shared L3, Markov partition, DRAM)."""

from bench_utils import run_once

from repro.experiments.studies import STUDIES


def test_figure_16_multiprogram(benchmark, runner):
    result = run_once(benchmark, STUDIES.run, "fig16", runner)
    print()
    print(result.rendered)

    summary = result.geomean_row()
    # Paper shape: Triangel keeps most of its single-core gains when sharing
    # the memory system; Triage-Deg4's indiscriminate aggression means it does
    # not pull ahead of plain Triage under bandwidth constraint.
    assert summary["triangel"] > 1.0
    assert summary["triangel"] > summary["triage"]
    assert summary["triage-deg4"] < summary["triangel"]
