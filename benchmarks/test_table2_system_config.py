"""Table 2: the core and memory configuration used for the experiments."""

from bench_utils import run_once

from repro.experiments import studies
from repro.sim.config import SystemConfig


def test_table_2_paper_configuration(benchmark):
    result = run_once(benchmark, studies.system_config_result, SystemConfig.paper())
    print()
    print(result.rendered)

    description = result.extras["description"]
    assert "64 KiB" in description["L1 DCache"]
    assert "512 KiB" in description["L2 Cache"]
    assert "2048 KiB" in description["L3 Cache"]
    assert "stride" in description["L1 DCache"]
    assert "25" in description["Markov lookup"]


def test_table_2_scaled_configuration(benchmark):
    result = studies.system_config_result(SystemConfig.scaled())
    print()
    print(result.rendered)
    assert "sim-scale" in result.title
