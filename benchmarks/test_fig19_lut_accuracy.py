"""Figure 19: Triage LUT accuracy with 11-bit vs 10-bit offsets."""

from bench_utils import run_once

from repro.experiments.studies import STUDIES


def test_figure_19_lut_accuracy(benchmark, runner):
    result = run_once(benchmark, STUDIES.run, "fig19", runner)
    print()
    print(result.rendered)

    table = result.table
    summary = result.geomean_row()
    # Paper shape: accuracy through the LUT is workload-dependent — good for
    # the low-fragmentation workloads (GCC, Sphinx), poor for the large
    # fragmented footprints — and shrinking the offset to 10 bits (more
    # fragmentation pressure) makes it worse overall.
    assert summary["10-bit"] <= summary["11-bit"] * 1.05
    assert table["gcc_166"]["11-bit"] > 0.6
    assert table["sphinx3"]["11-bit"] > 0.6
    assert table["mcf"]["11-bit"] < table["gcc_166"]["11-bit"]
