"""Figure 11: normalised DRAM traffic (lower is better)."""

from bench_utils import run_once

from repro.experiments.studies import STUDIES


def test_figure_11_dram_traffic(benchmark, runner):
    result = run_once(benchmark, STUDIES.run, "fig11", runner)
    print()
    print(result.rendered)

    summary = result.geomean_row()
    # Paper shape: Triangel raises DRAM traffic far less than any Triage
    # configuration, and Triage-Deg4 is the worst offender.
    assert summary["triangel"] < summary["triage"]
    assert summary["triangel"] < summary["triage-deg4"]
    assert summary["triage-deg4"] >= summary["triage"] * 0.98
    assert summary["triangel"] < 1.25
