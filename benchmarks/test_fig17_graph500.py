"""Figure 17: Graph500 search — slowdown and DRAM traffic for an adversarial workload."""

from bench_utils import run_once

from repro.experiments.studies import STUDIES


def test_figure_17_graph500(benchmark, runner):
    result = run_once(benchmark, STUDIES.run, "fig17", runner)
    print()
    print(result.rendered)

    table = result.table
    # Paper shape: the Triage configurations slow Graph500 down and inflate
    # DRAM traffic markedly on both inputs, because they grow the Markov
    # partition for a workload with no temporal correlation; Triangel's Set
    # Dueller keeps both effects small, and on the too-large s21-like input
    # Triangel barely activates at all.
    for workload in ("graph500_s16", "graph500_s21"):
        slowdown = table[f"{workload} slowdown"]
        traffic = table[f"{workload} dram"]
        assert slowdown["triage"] >= 1.0
        assert traffic["triage"] > traffic["triangel"]
        assert slowdown["triangel"] <= slowdown["triage"] + 0.02
        assert traffic["triangel"] < 1.3
    assert table["graph500_s21 dram"]["triage-deg4"] > 1.3
