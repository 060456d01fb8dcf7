"""Experiment harness: studies, specs, the store, and search.

Execution is layered: a declarative :class:`~repro.experiments.study.Study`
(axes: workloads × configurations(+params) × system × metric reducer)
*compiles* to immutable specs — a
:class:`~repro.experiments.jobs.RunSpec` for single-core cells, a
:class:`~repro.experiments.jobs.MultiProgramSpec` for multiprogrammed pairs
— a :class:`~repro.service.scheduler.Scheduler` runs deduplicated,
freely-mixed batches of specs (optionally in worker processes), and the
:class:`~repro.experiments.store.ResultStore` persists completed runs of
both kinds across processes.
:class:`~repro.experiments.runner.ExperimentRunner` carries the execution
policy (system, jobs, store), and
:data:`~repro.experiments.studies.STUDIES` holds every figure and table of
the paper as a registered study.

On top of that pipeline, :mod:`repro.experiments.explore` searches the
configuration design space (grid or seeded random, every point on the
full trace) with every evaluated point persisted through the same store,
reducing to Pareto fronts of coverage/accuracy against
metadata traffic.
"""

from repro.experiments.configs import (
    ABLATION_LADDER,
    CONFIGS,
    EVALUATION_CONFIGS,
    METADATA_FORMAT_CONFIGS,
    ConfigRegistry,
    available_configurations,
    build_prefetchers,
    configuration_signatures,
)
from repro.experiments.explore import (
    Candidate,
    Explorer,
    SearchPlan,
    SearchResult,
    SearchSpace,
    describe_search,
    pareto_front,
    plan_search,
    render_search,
    resume_search,
    run_search,
)
from repro.experiments.jobs import (
    MultiProgramSpec,
    RunSpec,
    execute,
    execute_multiprogram_spec,
    execute_spec,
)
from repro.experiments.runner import ExperimentRunner
from repro.experiments.store import (
    ResultStore,
    default_store,
    set_default_store,
    store_stats_payload,
)
from repro.experiments.study import FigureResult, Reducer, Study, StudyRegistry
from repro.experiments.studies import STUDIES

__all__ = [
    "ABLATION_LADDER",
    "CONFIGS",
    "ConfigRegistry",
    "EVALUATION_CONFIGS",
    "METADATA_FORMAT_CONFIGS",
    "available_configurations",
    "build_prefetchers",
    "configuration_signatures",
    "ExperimentRunner",
    "FigureResult",
    "MultiProgramSpec",
    "Reducer",
    "ResultStore",
    "RunSpec",
    "STUDIES",
    "Study",
    "StudyRegistry",
    "default_store",
    "execute",
    "execute_multiprogram_spec",
    "execute_spec",
    "set_default_store",
    "store_stats_payload",
]
