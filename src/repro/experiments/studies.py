"""Every figure and table of the evaluation, declared as a :class:`Study`.

This module is the catalogue: each entry in :data:`STUDIES` names one
experiment — its workloads, configurations (with call-time parameters),
system axis, metric and reducer — and the spec/scheduler/store pipeline does
the rest.  ``STUDIES.run(name, runner)`` reproduces one, and the ``repro
study`` CLI runs them (with axis overrides) directly.

To define a new study, declare it here (or register your own at runtime)::

    STUDIES.register(Study.create(
        name="triangel-scale-sweep",
        figure="Custom",
        title="Triangel speedup at half system scale",
        workloads=SPEC_WORKLOADS,
        configurations=("triangel",),
        metric="speedup",
        scale=0.5,
    ))

Every axis is also overridable from the CLI without any new code::

    repro study run fig10 --workloads mcf,astar --configs triangel
    repro study run replacement-study --set max_entries=2048
    repro study run fig10 --set scale=0.5

The workload axis accepts on-disk traces alongside the generated
workloads: any recorded or imported ``.rtrc`` file on the trace search
path (see :mod:`repro.traces` and ``repro trace``) is a ``trace:<name>``
workload, so ``repro study run fig10 --workloads trace:leela`` runs an
existing study over an external trace — persisted in the store under the
file's content digest like every other run.
"""

from __future__ import annotations

from repro.experiments.configs import (
    ABLATION_LADDER,
    ENERGY_SERIES,
    MAIN_SERIES,
    METADATA_FORMAT_CONFIGS,
    MULTIPROGRAM_SERIES,
    REPLACEMENT_POLICIES,
)
from repro.experiments.study import (
    FigureResult,
    Study,
    StudyRegistry,
    no_cells,
    register_reducer,
)
from repro.workloads.registry import (
    GRAPH500_WORKLOADS,
    MULTIPROGRAM_PAIRS,
    SPEC_WORKLOADS,
)

# ---------------------------------------------------------------------------
# Analytic reducers (tables 1 and 2): no simulations, data from the models
# ---------------------------------------------------------------------------
def structure_sizes_result(config=None) -> FigureResult:
    """Table 1's result: Triangel's dedicated-storage budget (unrendered)."""

    from repro.core.config import (
        total_dedicated_storage_bytes,
        triangel_structure_sizes,
    )

    sizes = triangel_structure_sizes(config)
    table = {
        size.name: {"entries": float(size.entries), "bytes": size.bytes} for size in sizes
    }
    total = total_dedicated_storage_bytes(config)
    table["Total"] = {"entries": float("nan"), "bytes": total}
    return FigureResult(
        figure="Table 1",
        title="Triangel dedicated storage (paper total: ~17.6 KiB)",
        table=table,
        columns=["entries", "bytes"],
        notes=f"Total dedicated storage: {total / 1024:.1f} KiB",
    )


def system_config_result(system) -> FigureResult:
    """Table 2's result for one system: the simulated configuration."""

    description = system.describe()
    table = {key: {"value": float("nan")} for key in description}
    result = FigureResult(
        figure="Table 2",
        title=f"System configuration ({system.name})",
        table=table,
        columns=["value"],
        extras={"description": description},
    )
    lines = [f"Table 2: system configuration ({system.name})", "=" * 40]
    for key, value in description.items():
        lines.append(f"{key:>14}: {value}")
    result.rendered = "\n".join(lines)
    return result


def _table1_table(study: Study, results: dict) -> FigureResult:
    return structure_sizes_result()


def _table2_table(study: Study, results: dict) -> FigureResult:
    from repro.sim.config import system_for

    return system_config_result(system_for(study.system, study.scale))


register_reducer("structure-sizes", no_cells, _table1_table, axes=())
register_reducer(
    "system-description", no_cells, _table2_table, axes={"system", "scale"}
)


# ---------------------------------------------------------------------------
# The registry: every figure, table and study of the evaluation
# ---------------------------------------------------------------------------
STUDIES = StudyRegistry()


def _matrix_study(name: str, figure: str, title: str, metric: str,
                  series: tuple[str, ...], notes: str, description: str) -> Study:
    """Declare one single-core matrix figure (10-15 share this shape)."""

    return STUDIES.register(Study.create(
        name=name,
        figure=figure,
        title=title,
        metric=metric,
        workloads=SPEC_WORKLOADS,
        configurations=series,
        notes=notes,
        description=description,
    ))


_matrix_study(
    "fig10", "Figure 10", "Speedup over stride-only baseline (higher is better)",
    "speedup", MAIN_SERIES,
    notes="Paper geomeans: Triage 1.093, Triage-Deg4 1.142, Triage-Deg4-Look2 1.166, "
    "Triangel 1.264, Triangel-Bloom 1.261.",
    description="the headline speedup comparison across the SPEC-like workloads",
)
_matrix_study(
    "fig11", "Figure 11", "Normalised DRAM traffic (lower is better)",
    "dram_traffic", MAIN_SERIES,
    notes="Paper geomeans: Triage ~1.285, Triage-Deg4 ~1.438, Triangel ~1.10, "
    "Triangel-Bloom ~1.146.",
    description="DRAM traffic cost of each prefetcher, same matrix as fig10",
)
_matrix_study(
    "fig12", "Figure 12", "Temporal-prefetch accuracy (higher is better)",
    "accuracy", MAIN_SERIES,
    notes="Paper shape: Triangel is the most accurate; Triage-Deg4 is more accurate "
    "than Triage by ratio but issues far more prefetches.",
    description="prefetch accuracy (used before L2 eviction), same matrix as fig10",
)
_matrix_study(
    "fig13", "Figure 13", "Coverage of baseline L2 demand misses (higher is better)",
    "coverage", MAIN_SERIES,
    notes="Paper shape: Triangel declines to prefetch poor streams (Astar, Soplex), "
    "trading coverage there for accuracy and traffic.",
    description="miss coverage, same matrix as fig10",
)
_matrix_study(
    "fig14", "Figure 14", "Normalised L3 accesses incl. Markov metadata (lower is better)",
    "l3_accesses", ENERGY_SERIES,
    notes="Paper shape: Triage-Deg4 exceeds 5x; Triangel stays near Triage-Deg1 even "
    "at degree 4 thanks to filtering and the Metadata Reuse Buffer.",
    description="metadata-inclusive L3 traffic (adds the no-MRB Triangel variant)",
)
_matrix_study(
    "fig15", "Figure 15", "Normalised DRAM+L3 dynamic energy (lower is better)",
    "energy", ENERGY_SERIES,
    notes="Paper geomeans: Triangel ~1.14, Triangel-Bloom ~1.19, Triage ~1.36, "
    "Triage-Deg4 ~1.60.",
    description="dynamic-energy proxy over the fig14 matrix",
)

STUDIES.register(Study.create(
    name="fig16",
    figure="Figure 16",
    title="Multiprogrammed-pair speedup (shared L3, Markov partition and DRAM)",
    reducer="multiprogram",
    pairs=MULTIPROGRAM_PAIRS,
    configurations=MULTIPROGRAM_SERIES,
    max_accesses_per_core=30_000,
    notes="Paper shape: Triangel holds its gains; Triage slips and Triage-Deg4's "
    "aggression backfires under bandwidth constraint.",
    description="workload pairs sharing the L3 and DRAM on two cores",
))

STUDIES.register(Study.create(
    name="fig17",
    figure="Figure 17",
    title="Graph500 search: slowdown and DRAM traffic (lower is better)",
    reducer="slowdown-traffic",
    workloads=GRAPH500_WORKLOADS,
    configurations=MULTIPROGRAM_SERIES,
    notes="Paper shape: Triage configurations slow down markedly and inflate DRAM "
    "traffic; Triangel's Set Dueller keeps both near 1.0.",
    description="the adversarial Graph500 workloads where Triage backfires",
))

STUDIES.register(Study.create(
    name="fig18",
    figure="Figure 18",
    title="Triage speedup by Markov metadata format",
    workloads=SPEC_WORKLOADS,
    configurations=tuple(f"triage-format-{name}" for name in METADATA_FORMAT_CONFIGS),
    relabel={f"triage-format-{name}": name for name in METADATA_FORMAT_CONFIGS},
    metric="speedup",
    notes="Paper shape: 42-bit > 32-bit-LUT variants; the 10-bit-offset "
    "(fragmented) variant drops sharply; 16-way LUT ≈ fully-associative LUT.",
    description="the Markov metadata format study applied to Triage",
))

STUDIES.register(Study.create(
    name="fig19",
    figure="Figure 19",
    title="Triage LUT accuracy with 11-bit vs 10-bit offsets",
    reducer="stat",
    metric="accuracy",
    workloads=SPEC_WORKLOADS,
    configurations=(
        "triage-format-32-bit-LUT-16-way",
        "triage-format-32-bit-LUT-16-way-10b-offset",
    ),
    relabel={
        "triage-format-32-bit-LUT-16-way": "11-bit",
        "triage-format-32-bit-LUT-16-way-10b-offset": "10-bit",
    },
    notes="Paper shape: accuracy is workload-dependent and collapses further with "
    "the fragmented 10-bit offset; Triangel avoids the LUT entirely.",
    description="raw LUT accuracy, sharing its runs with fig18",
))

STUDIES.register(Study.create(
    name="fig20",
    figure="Figure 20",
    title="Ablation: progressively adding Triangel's mechanisms to Triage-Deg4",
    reducer="matrix-pair",
    metrics=("speedup", "dram_traffic"),
    workloads=SPEC_WORKLOADS,
    configurations=tuple(f"ablation-{name}" for name in ABLATION_LADDER),
    relabel={f"ablation-{name}": name for name in ABLATION_LADDER},
    notes="Paper shape: BasePatternConf roughly halves the DRAM overhead; the Set "
    "Dueller cuts traffic further; HighPatternConf trades a little speed for traffic.",
    description="the mechanism-by-mechanism ablation ladder",
))

STUDIES.register(Study.create(
    name="replacement-study",
    figure="Section 3.3",
    title="Markov replacement study (capacity capped at {max_entries} entries)",
    workloads=SPEC_WORKLOADS,
    configurations=tuple(f"triage-{policy}" for policy in REPLACEMENT_POLICIES),
    config_params={"max_entries": 1024},
    metric="speedup",
    notes="Paper observation: HawkEye beats LRU/RRIP only when capacity is "
    "artificially constrained.",
    description="Triage under LRU/SRRIP/HawkEye with the Markov capacity capped",
))

STUDIES.register(Study.create(
    name="table1",
    figure="Table 1",
    title="Triangel dedicated storage (paper total: ~17.6 KiB)",
    reducer="structure-sizes",
    description="analytic storage-budget report, no simulations",
))

STUDIES.register(Study.create(
    name="table2",
    figure="Table 2",
    title="System configuration",
    reducer="system-description",
    system="paper",
    description="analytic description of the simulated system (the system axis)",
))
