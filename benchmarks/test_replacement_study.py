"""Section 3.3: Markov replacement policy study under constrained capacity.

The paper observes that HawkEye only pays off over LRU/RRIP when the Markov
table's capacity is artificially limited (footnote 4); with the full 1 MiB
budget the policies are within noise of each other.  This benchmark runs the
constrained version of that comparison.
"""

from bench_utils import run_once

from repro.experiments.studies import STUDIES


def test_replacement_study_constrained_capacity(benchmark, runner):
    study = STUDIES.get("replacement-study").with_config_params(max_entries=768)
    result = run_once(benchmark, study.run, runner)
    print()
    print(result.rendered)

    summary = result.geomean_row()
    # All three policies must produce working prefetchers; under constrained
    # capacity the smarter policies should not lose to LRU by much (the paper
    # reports HawkEye ahead, with LRU worst).
    for configuration, value in summary.items():
        assert value > 0.85, f"{configuration} collapsed: {value}"
    assert summary["triage-hawkeye"] >= summary["triage-lru"] * 0.9
