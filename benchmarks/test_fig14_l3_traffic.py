"""Figure 14: normalised L3 accesses, including Markov-table accesses."""

from bench_utils import run_once

from repro.experiments.studies import STUDIES


def test_figure_14_l3_traffic(benchmark, runner):
    result = run_once(benchmark, STUDIES.run, "fig14", runner)
    print()
    print(result.rendered)

    summary = result.geomean_row()
    # Paper shape: Triage-Deg4 multiplies L3 traffic; Triangel, despite also
    # reaching degree 4, stays near (or below) degree-1 Triage thanks to its
    # filtering and the Metadata Reuse Buffer; removing the MRB
    # (Triangel-NoMRB) gives the redundant accesses back.
    assert summary["triage-deg4"] > summary["triage"]
    assert summary["triangel"] < summary["triage-deg4"]
    assert summary["triangel"] <= summary["triage"] * 1.1
    assert summary["triangel-nomrb"] > summary["triangel"]
