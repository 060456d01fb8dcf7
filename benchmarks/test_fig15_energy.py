"""Figure 15: normalised DRAM+L3 dynamic energy (25:1 weighting, §6.2)."""

from bench_utils import run_once

from repro.experiments.studies import STUDIES


def test_figure_15_energy(benchmark, runner):
    result = run_once(benchmark, STUDIES.run, "fig15", runner)
    print()
    print(result.rendered)

    summary = result.geomean_row()
    # Paper shape: Triangel's energy overhead is far below Triage's, and
    # Triage-Deg4 is the most expensive configuration.
    assert summary["triangel"] < summary["triage"]
    assert summary["triage-deg4"] > summary["triage"] * 0.98
    assert summary["triangel"] < 1.3
    assert summary["triangel"] <= summary["triangel-nomrb"] * 1.02
