"""Figure 20: ablation — progressively adding Triangel's mechanisms to Triage-Deg4."""

from bench_utils import run_once

from repro.experiments.studies import STUDIES


def test_figure_20_ablation(benchmark, runner):
    result = run_once(benchmark, STUDIES.run, "fig20", runner)
    print()
    print(result.rendered)

    speedup = result.extras["speedup"]["geomean"]
    traffic = result.extras["dram_traffic"]["geomean"]
    # Paper shape: the full ladder ends faster *and* with far less DRAM
    # traffic than the Triage-Deg4 starting point; the accuracy gate
    # (BasePatternConf) is the step that slashes traffic; HighPatternConf
    # deliberately trades a little speed for further traffic reduction.
    assert speedup["+HighPatternConf"] > speedup["Triage-Deg-4"]
    assert traffic["+HighPatternConf"] < traffic["Triage-Deg-4"]
    assert traffic["+BasePatternConf"] < traffic["+Triangel Metadata"]
    assert traffic["+HighPatternConf"] <= traffic["+ReuseConf"] * 1.05
