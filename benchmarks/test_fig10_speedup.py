"""Figure 10: speedup of each prefetcher over the stride-only baseline."""

from bench_utils import run_once

from repro.experiments.studies import STUDIES


def test_figure_10_speedup(benchmark, runner):
    result = run_once(benchmark, STUDIES.run, "fig10", runner)
    print()
    print(result.rendered)

    summary = result.geomean_row()
    # Paper shape: Triangel ≈ Triangel-Bloom > Triage-Deg4-Look2 > Triage-Deg4
    # > Triage > baseline (figure 10's geomean bars).
    assert summary["triangel"] > 1.0
    assert summary["triangel"] > summary["triage"]
    assert summary["triangel"] > summary["triage-deg4"]
    assert summary["triage-deg4-look2"] >= summary["triage-deg4"] * 0.97
    assert summary["triage-deg4"] >= summary["triage"] * 0.97
    assert abs(summary["triangel"] - summary["triangel-bloom"]) < 0.35
