"""Figure 12: temporal-prefetch accuracy (used before L2 eviction)."""

from bench_utils import run_once

from repro.experiments.studies import STUDIES


def test_figure_12_accuracy(benchmark, runner):
    result = run_once(benchmark, STUDIES.run, "fig12", runner)
    print()
    print(result.rendered)

    summary = result.geomean_row()
    # Paper shape: Triangel (and Triangel-Bloom) are substantially more
    # accurate than every Triage configuration.
    assert summary["triangel"] > summary["triage"]
    assert summary["triangel"] > summary["triage-deg4"]
    assert summary["triangel"] > 0.5
