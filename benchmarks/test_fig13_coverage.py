"""Figure 13: coverage of the baseline's L2 demand misses."""

from bench_utils import run_once

from repro.experiments.studies import STUDIES


def test_figure_13_coverage(benchmark, runner):
    result = run_once(benchmark, STUDIES.run, "fig13", runner)
    print()
    print(result.rendered)

    table = result.table
    summary = result.geomean_row()
    # Paper shape: overall coverage favours Triangel, while on the
    # poor-quality streams (Astar) Triangel deliberately declines to
    # prefetch, so its coverage there is at or near zero.
    assert summary["triangel"] >= summary["triage"]
    assert table["astar"]["triangel"] < 0.2
    assert table["xalan"]["triangel"] > 0.5
