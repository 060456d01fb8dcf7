"""Ready-to-run reproductions of every figure and table in the evaluation.

Each ``figure_N`` function is a thin wrapper over one registered
:class:`~repro.experiments.study.Study` declaration in
:data:`~repro.experiments.studies.STUDIES`: the study *compiles* to a batch
of :class:`~repro.experiments.jobs.RunSpec` /
:class:`~repro.experiments.jobs.MultiProgramSpec` values, the
:class:`~repro.experiments.runner.ExperimentRunner` submits the batch
through a :class:`~repro.service.scheduler.Scheduler` (replaying
completed cells from the persistent
:class:`~repro.experiments.store.ResultStore`, running misses in parallel
when ``jobs > 1``), and the study's reducer turns the results into the
figure's table.  Because figures 10-15 declare overlapping matrices, the
first figure pays for the simulations — once, ever, per code version — and
every later figure, process and benchmark session replays them from the
store.

*Every* simulation flows through that path: figure 16's multiprogrammed
pairs compile to :class:`~repro.experiments.jobs.MultiProgramSpec` batches,
and the section 3.3 replacement study runs as parameterised registry
configurations whose ``max_entries`` cap is folded into each spec's store
key.  A warm store therefore re-executes nothing anywhere in the harness.

The reduced metric lands in a :class:`FigureResult` holding the numeric
table plus a rendered text version.  The benchmark modules under
``benchmarks/`` call these functions (one per figure) and print the rendered
tables, which is the reproduction's equivalent of regenerating the paper's
plots.  New scenarios should not add functions here — declare a
:class:`~repro.experiments.study.Study` (or override an existing one from
the ``repro study`` CLI) instead.
"""

from __future__ import annotations

from repro.core.config import TriangelConfig
from repro.experiments.runner import ExperimentRunner
from repro.experiments.studies import (
    STUDIES,
    main_matrix_specs,
    structure_sizes_result,
    system_config_result,
)
from repro.experiments.study import FigureResult, render_result
from repro.sim.config import SystemConfig

__all__ = [
    "FigureResult",
    "main_matrix_specs",
    "figure_10_speedup",
    "figure_11_dram_traffic",
    "figure_12_accuracy",
    "figure_13_coverage",
    "figure_14_l3_traffic",
    "figure_15_energy",
    "figure_16_multiprogram",
    "figure_17_graph500",
    "figure_18_metadata_formats",
    "figure_19_lut_accuracy",
    "figure_20_ablation",
    "table_1_structure_sizes",
    "table_2_system_config",
    "replacement_study",
]


def figure_10_speedup(runner: ExperimentRunner | None = None) -> FigureResult:
    """Figure 10: speedup over the stride-only baseline."""

    return STUDIES.run("fig10", runner)


def figure_11_dram_traffic(runner: ExperimentRunner | None = None) -> FigureResult:
    """Figure 11: normalised DRAM traffic (lower is better)."""

    return STUDIES.run("fig11", runner)


def figure_12_accuracy(runner: ExperimentRunner | None = None) -> FigureResult:
    """Figure 12: prefetch accuracy (prefetched lines used before L2 eviction)."""

    return STUDIES.run("fig12", runner)


def figure_13_coverage(runner: ExperimentRunner | None = None) -> FigureResult:
    """Figure 13: coverage of baseline L2 demand misses."""

    return STUDIES.run("fig13", runner)


def figure_14_l3_traffic(runner: ExperimentRunner | None = None) -> FigureResult:
    """Figure 14: normalised L3 accesses including Markov-table accesses."""

    return STUDIES.run("fig14", runner)


def figure_15_energy(runner: ExperimentRunner | None = None) -> FigureResult:
    """Figure 15: normalised DRAM+L3 dynamic energy (25:1 weighting)."""

    return STUDIES.run("fig15", runner)


#: Sentinel distinguishing "caller passed nothing" from an explicit value,
#: so the wrapper's default can never drift from the fig16 declaration's.
_UNSET = object()


def figure_16_multiprogram(
    runner: ExperimentRunner | None = None,
    max_accesses_per_core=_UNSET,
) -> FigureResult:
    """Figure 16: speedup of workload pairs sharing the L3 and DRAM.

    ``max_accesses_per_core`` defaults to the registered study's declared
    per-core cap; pass an int (or ``None`` for uncapped) to override it.
    """

    study = STUDIES.get("fig16")
    if (
        max_accesses_per_core is not _UNSET
        and max_accesses_per_core != study.max_accesses_per_core
    ):
        # Route through the validated override hook (the single mutation
        # path), not a bare dataclasses.replace.
        raw = "none" if max_accesses_per_core is None else str(max_accesses_per_core)
        study = study.overridden(assignments={"max_accesses_per_core": raw})
    return study.run(runner)


def figure_17_graph500(runner: ExperimentRunner | None = None) -> FigureResult:
    """Figure 17: slowdown and DRAM traffic on Graph500 search."""

    return STUDIES.run("fig17", runner)


def figure_18_metadata_formats(runner: ExperimentRunner | None = None) -> FigureResult:
    """Figure 18: Triage speedup under different Markov-entry formats."""

    return STUDIES.run("fig18", runner)


def figure_19_lut_accuracy(runner: ExperimentRunner | None = None) -> FigureResult:
    """Figure 19: Triage accuracy with 11-bit vs 10-bit LUT offsets."""

    return STUDIES.run("fig19", runner)


def figure_20_ablation(runner: ExperimentRunner | None = None) -> FigureResult:
    """Figure 20: progressive addition of Triangel's mechanisms."""

    return STUDIES.run("fig20", runner)


def table_1_structure_sizes(config: TriangelConfig | None = None) -> FigureResult:
    """Table 1: Triangel's dedicated-storage budget."""

    if config is None:
        return STUDIES.run("table1")
    return render_result(structure_sizes_result(config))


def table_2_system_config(system: SystemConfig | None = None) -> FigureResult:
    """Table 2: the simulated core and memory configuration."""

    if system is None:
        return STUDIES.run("table2")
    return system_config_result(system)


def replacement_study(
    runner: ExperimentRunner | None = None, max_entries: int | None = 1024
) -> FigureResult:
    """Section 3.3: Markov replacement policy under constrained capacity.

    The policy variants are parameterised registry configurations whose
    ``max_entries`` cap travels in each spec's ``config_params`` — so the
    whole study persists in the store, differently-capped variants occupy
    distinct entries, and runs parallelise under ``jobs > 1``.
    """

    study = STUDIES.get("replacement-study").with_config_params(max_entries=max_entries)
    return study.run(runner)
