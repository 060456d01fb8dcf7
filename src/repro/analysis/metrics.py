"""Metric math shared by the experiment harness and the benchmarks.

The paper summarises per-workload results with geometric means (its headline
"26.4% geomean speedup" numbers), and every traffic/energy figure is
normalised against the stride-only baseline.  These helpers implement that
arithmetic once so every figure reproduction uses identical conventions.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping

from repro.sim.stats import SimulationStats


def geomean(values: Iterable[float]) -> float:
    """Geometric mean of positive values; returns 1.0 for an empty input."""

    values = [float(value) for value in values]
    if not values:
        return 1.0
    if any(value <= 0 for value in values):
        raise ValueError(f"geomean requires positive values, got {values}")
    return math.exp(sum(math.log(value) for value in values) / len(values))


#: The relative metrics a run can be normalised on, mapped to the
#: corresponding :class:`SimulationStats` method.
RELATIVE_METRICS = {
    "speedup": SimulationStats.speedup_relative_to,
    "dram_traffic": SimulationStats.dram_traffic_relative_to,
    "l3_accesses": SimulationStats.l3_accesses_relative_to,
    "energy": SimulationStats.energy_relative_to,
    "coverage": SimulationStats.coverage_relative_to,
}


def normalize_against_baseline(
    results: Mapping[str, Mapping[str, SimulationStats]],
    metric: str,
    baseline_config: str = "baseline",
) -> dict[str, dict[str, float]]:
    """Normalise a (workload × configuration) result matrix against a baseline.

    ``results[workload][config]`` must be the :class:`SimulationStats` of one
    run.  Absolute metrics (``accuracy``) are returned as-is; relative
    metrics are computed against the same workload's ``baseline_config`` run.
    """

    normalized: dict[str, dict[str, float]] = {}
    for workload, per_config in results.items():
        normalized[workload] = {}
        baseline = per_config.get(baseline_config)
        for config, stats in per_config.items():
            if metric == "accuracy":
                normalized[workload][config] = stats.accuracy
            elif metric in RELATIVE_METRICS:
                if baseline is None:
                    raise KeyError(
                        f"workload {workload!r} has no {baseline_config!r} run to normalise against"
                    )
                normalized[workload][config] = RELATIVE_METRICS[metric](stats, baseline)
            else:
                raise ValueError(
                    f"unknown metric {metric!r}; expected one of "
                    f"{sorted(RELATIVE_METRICS) + ['accuracy']}"
                )
    return normalized


def normalized_table(
    results: Mapping[str, Mapping[str, SimulationStats]],
    metric: str,
    baseline_config: str = "baseline",
    include_geomean: bool = True,
) -> dict[str, dict[str, float]]:
    """:func:`normalize_against_baseline` without the baseline's own column.

    With ``include_geomean`` the summary row of :func:`add_geomean_row` is
    appended: the shape of every baseline-normalised figure table.
    """

    table = normalize_against_baseline(results, metric, baseline_config)
    for per_config in table.values():
        per_config.pop(baseline_config, None)
    return add_geomean_row(table) if include_geomean else table


def summarize_ratio(per_workload: Mapping[str, float]) -> float:
    """Geomean summary of a per-workload relative metric (the figures' last bar).

    Coverage and accuracy can legitimately be zero, which a geometric mean
    cannot represent; those are summarised with an arithmetic mean instead,
    mirroring how a zero-coverage workload contributes to the paper's bars.
    """

    values = list(per_workload.values())
    if not values:
        return 1.0
    if any(value <= 0 for value in values):
        return sum(values) / len(values)
    return geomean(values)


def add_geomean_row(
    table: Mapping[str, Mapping[str, float]], label: str = "geomean"
) -> dict[str, dict[str, float]]:
    """Return a copy of a per-workload table with a summary row appended."""

    configs: set[str] = set()
    for per_config in table.values():
        configs.update(per_config)
    result = {workload: dict(per_config) for workload, per_config in table.items()}
    summary = {}
    for config in configs:
        summary[config] = summarize_ratio(
            {workload: per_config[config] for workload, per_config in table.items() if config in per_config}
        )
    result[label] = summary
    return result
