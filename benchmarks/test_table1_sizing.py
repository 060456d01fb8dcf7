"""Table 1: Triangel's dedicated-storage budget (~17.6 KiB)."""

import pytest
from bench_utils import run_once

from repro.experiments.studies import STUDIES


def test_table_1_structure_sizes(benchmark):
    result = run_once(benchmark, STUDIES.run, "table1")
    print()
    print(result.rendered)

    table = result.table
    # Paper's table 1 values, allowing small rounding slack on the per-field
    # bit-width reconstruction.
    assert table["Training Table"]["bytes"] == pytest.approx(7808, rel=0.02)
    assert table["History Sampler"]["bytes"] == pytest.approx(6080, rel=0.05)
    assert table["Second-Chance Sampler"]["bytes"] == pytest.approx(584, rel=0.10)
    assert table["Metadata Reuse Buffer"]["bytes"] == pytest.approx(1472, rel=0.02)
    assert table["Set Dueller"]["bytes"] == pytest.approx(2106, rel=0.05)
    assert table["Total"]["bytes"] == pytest.approx(17.6 * 1024, rel=0.08)
