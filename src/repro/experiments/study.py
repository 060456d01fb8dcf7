"""The declarative study API: one composable spec layer for every experiment.

A :class:`Study` is an immutable declaration of an experiment's axes —
workloads × configurations (with optional call-time parameters) × system ×
metric reducer — plus presentation (figure label, title, notes, column
relabelling).  It contains no execution logic of its own: a study lists its
*cells* (each a :class:`~repro.experiments.jobs.RunSpec` /
:class:`~repro.experiments.jobs.MultiProgramSpec`), *compiles* to their
unique specs for the existing scheduler + store pipeline, and a named
*reducer* turns the cells' results into the familiar :class:`FigureResult`
table.

The pieces:

* :class:`Study` — the frozen axis spec, with :meth:`Study.cells` (cell →
  spec), :meth:`Study.compile` (the unique specs), :meth:`Study.reduce`
  (cell → result, then render), :meth:`Study.run` (submit the compiled
  specs once through the scheduler + store, then reduce) and
  :meth:`Study.overridden` (the ``--set scale=0.5`` / ``--workloads`` /
  ``--configs`` override hooks, which validate that an override actually
  applies before anything simulates);
* :data:`REDUCERS` — named reducers (``matrix``, ``stat``, ``matrix-pair``,
  ``multiprogram``, ``slowdown-traffic``, plus analytic ones registered by
  :mod:`repro.experiments.studies`), each pairing a cell enumerator with a
  table builder that reads only those cells' results, so ``compile`` and
  ``run`` can never disagree about which simulations a study needs;
* :class:`StudyRegistry` — a name → :class:`Study` registry with
  ``describe`` support; the canonical instance, with every figure and table
  of the paper declared, is :data:`repro.experiments.studies.STUDIES`.

Because studies compile onto the spec/scheduler/store pipeline unchanged, a
new scenario — a cache-scale sweep, a custom configuration grid, a degree
ladder — is one :class:`Study` declaration (or a CLI override of an
existing one), not a new figure module; and every run it produces persists
and parallelises like the built-in figures.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, field
from typing import Callable, Hashable, Mapping, Sequence

from repro.analysis.metrics import (
    RELATIVE_METRICS,
    add_geomean_row,
    geomean,
    normalized_table,
)
from repro.analysis.report import render_figure
from repro.experiments.configs import CONFIGS

# _freeze/_thaw are jobs.py's canonicalisation helpers; studies reuse them so
# that study fields freeze exactly like spec fields do.  They stay in jobs.py
# (renaming them there would invalidate the result store, which salts its
# keys with that file's bytes) — treat this import as a package-internal
# contract.
from repro.experiments.jobs import _freeze, _thaw
from repro.experiments.runner import ExperimentRunner
from repro.experiments.store import Spec
from repro.sim.config import system_for


@dataclass
class FigureResult:
    """The reproduced data for one figure or table."""

    figure: str
    title: str
    table: dict[str, dict[str, float]]
    columns: list[str]
    rendered: str = ""
    notes: str = ""
    extras: dict = field(default_factory=dict)

    def geomean_row(self) -> dict[str, float]:
        """The summary (geomean) row of the table, if the figure has one."""

        return self.table.get("geomean", {})


def render_result(result: FigureResult) -> FigureResult:
    """Fill in the text rendering of a result (unless the reducer already did)."""

    if not result.rendered:
        result.rendered = render_figure(
            f"{result.figure}: {result.title}",
            result.table,
            result.columns,
            note=result.notes or None,
        )
    return result


# ---------------------------------------------------------------------------
# The Study declaration
# ---------------------------------------------------------------------------
#: Study fields settable through ``--set key=value`` overrides, with the
#: coercion applied to the raw string value.  Anything *not* listed here is
#: treated as a configuration parameter and lands in ``config_params``.
_AXIS_FIELDS: dict[str, Callable[[str], object]] = {
    "system": str,
    "scale": float,
    "metric": str,
    "baseline": str,
    "max_accesses_per_core": lambda raw: None if raw.lower() == "none" else int(raw),
}


def coerce_param(raw: str):
    """Best-effort literal coercion for ``--set`` configuration parameters."""

    lowered = raw.lower()
    if lowered == "none":
        return None
    if lowered in ("true", "false"):
        return lowered == "true"
    for kind in (int, float):
        try:
            return kind(raw)
        except ValueError:
            continue
    return raw


def accepted_params(configurations: Sequence[str]) -> set[str]:
    """Every parameter name at least one of the configurations accepts.

    The single acceptance rule behind all three stranded-parameter checks
    (``--set`` overrides, ``--configs`` narrowing, and multiprogram
    compile), so they can never diverge.
    """

    accepted: set[str] = set()
    for name in configurations:
        if name in CONFIGS:
            accepted |= {key for key, _ in CONFIGS.entry(name).params}
    return accepted


def parse_assignments(pairs: Sequence[str] | None) -> dict[str, str]:
    """Parse CLI ``KEY=VALUE`` override strings into a dictionary."""

    assignments: dict[str, str] = {}
    for pair in pairs or ():
        key, separator, value = pair.partition("=")
        if not separator or not key:
            raise ValueError(f"override {pair!r} is not of the form KEY=VALUE")
        assignments[key] = value
    return assignments


@dataclass(frozen=True)
class Study:
    """An immutable, declarative spec of one experiment's axes.

    The axes: ``workloads`` × ``configurations`` (every configuration
    uniformly takes the — possibly empty — ``config_params``) × the named
    ``system`` at ``scale`` × the ``metric`` consumed by the named
    ``reducer``.  Multiprogram studies declare ``pairs`` instead of
    ``workloads``.  Presentation fields (``figure``, ``title``, ``notes``,
    ``relabel``) only affect rendering, never which simulations run.

    ``title`` may reference configuration parameters with ``str.format``
    placeholders (the replacement study's ``{max_entries}``), so overridden
    variants label themselves.
    """

    name: str
    figure: str
    title: str
    reducer: str = "matrix"
    workloads: tuple[str, ...] = ()
    configurations: tuple[str, ...] = ()
    metric: str = "speedup"
    #: the two metrics of a ``matrix-pair`` study (e.g. figure 20).
    metrics: tuple[str, ...] = ()
    baseline: str = "baseline"
    config_params: tuple = ()
    #: registry name → display name, applied to table columns after reduction.
    relabel: tuple = ()
    #: per-core workload tuples of a multiprogram study (e.g. figure 16).
    pairs: tuple[tuple[str, ...], ...] = ()
    max_accesses_per_core: int | None = None
    system: str = "sim-scale"
    scale: float = 1.0
    notes: str = ""
    description: str = ""

    @classmethod
    def create(cls, *, config_params: Mapping | None = None,
               relabel: Mapping | None = None, **fields) -> "Study":
        """Build a study, canonicalising the mapping-valued fields."""

        return cls(
            config_params=_freeze(dict(config_params or {})),
            relabel=_freeze(dict(relabel or {})),
            **fields,
        )

    # -- axis accessors ------------------------------------------------------
    def config_params_dict(self) -> dict:
        """The call-time configuration parameters as a plain dictionary."""

        return _thaw(self.config_params) or {}

    def relabel_dict(self) -> dict:
        """The registry-name → display-name mapping as a plain dictionary."""

        return _thaw(self.relabel) or {}

    def display_columns(self) -> list[str]:
        """The table columns after relabelling, in declaration order."""

        mapping = self.relabel_dict()
        return [mapping.get(name, name) for name in self.configurations]

    def display_title(self) -> str:
        """The title with configuration parameters substituted in."""

        params = self.config_params_dict()
        return self.title.format(**params) if params else self.title

    def params_for(self, configuration: str) -> dict | None:
        """This study's parameters for one configuration (None when plain)."""

        if configuration in CONFIGS and CONFIGS.takes_params(configuration):
            return self.config_params_dict() or None
        return None

    # -- overrides -----------------------------------------------------------
    def overridden(
        self,
        workloads: Sequence[str] | None = None,
        configurations: Sequence[str] | None = None,
        assignments: Mapping[str, str] | None = None,
    ) -> "Study":
        """A copy of this study with axes overridden (the CLI hooks).

        ``assignments`` holds raw ``--set`` values: keys naming a study axis
        (``scale``, ``system``, ``metric``, ``baseline``,
        ``max_accesses_per_core``) replace that field with type coercion;
        any other key is a configuration parameter and is merged into
        ``config_params`` (so ``--set max_entries=2048`` re-parameterises
        the replacement study).  Overrides that cannot affect this study —
        a workload override on a pair-based or analytic study, or a
        parameter no configuration of the study accepts — are rejected
        rather than silently ignored.  Overridden axes change the compiled
        specs' content hashes, so variants occupy disjoint store entries.
        """

        updates: dict = {}
        from repro.workloads.registry import available_workloads

        reducer = REDUCERS[self.reducer]
        if workloads is not None:
            if not self.workloads:
                hint = (
                    "; its per-core pairs are fixed — register a variant study"
                    if self.pairs
                    else ""
                )
                raise ValueError(
                    f"study {self.name!r} has no workload axis to override{hint}"
                )
            # Bound once: each listing call scans the trace search path.
            known = available_workloads()
            known_set = set(known)
            unknown = [name for name in workloads if name not in known_set]
            if unknown:
                raise ValueError(
                    f"unknown workload(s) {unknown}; available: {known}"
                )
            updates["workloads"] = tuple(workloads)
        if configurations is not None:
            if not self.configurations:
                raise ValueError(
                    f"study {self.name!r} has no configuration axis to override"
                )
            unknown = [name for name in configurations if name not in CONFIGS]
            if unknown:
                raise ValueError(
                    f"unknown configuration(s) {unknown}; available: {CONFIGS.names()}"
                )
            # The study's declared parameters must still apply to the new
            # configuration axis: a replacement-study narrowed to plain
            # configurations would otherwise keep (and advertise in its
            # title) a cap no compiled spec carries.
            stranded = set(self.config_params_dict()) - accepted_params(configurations)
            if stranded:
                raise ValueError(
                    f"--configs override leaves declared parameter(s) "
                    f"{sorted(stranded)} of study {self.name!r} inapplicable; "
                    f"keep a configuration that accepts them"
                )
            updates["configurations"] = tuple(configurations)
        params = self.config_params_dict()
        added_params: set[str] = set()
        for key, raw in (assignments or {}).items():
            coerce = _AXIS_FIELDS.get(key)
            if coerce is not None:
                if key not in reducer.axes:
                    raise ValueError(
                        f"--set {key} does not apply to study {self.name!r}: "
                        f"its {self.reducer!r} reducer reads "
                        f"{sorted(reducer.axes) if reducer.axes else 'no axis fields'}"
                    )
                value = coerce(raw)
                if key == "metric" and reducer.valid_metrics is not None:
                    if value not in reducer.valid_metrics:
                        raise ValueError(
                            f"--set metric={value}: not a metric the "
                            f"{self.reducer!r} reducer knows; expected one of "
                            f"{sorted(reducer.valid_metrics)}"
                        )
                updates[key] = value
            else:
                params[key] = coerce_param(raw)
                added_params.add(key)
        self._validate_added_params(
            added_params, updates.get("configurations", self.configurations)
        )
        if _freeze(params) != self.config_params:
            updates["config_params"] = _freeze(params)
        return dataclasses.replace(self, **updates) if updates else self

    def _validate_added_params(self, added: set, configurations) -> None:
        """Reject configuration parameters that cannot take effect here.

        Shared by :meth:`overridden` and :meth:`with_config_params`, so the
        CLI and the programmatic API enforce the same rule: a parameter is
        either carried by the compiled specs or refused — never silently
        dropped.
        """

        if not added:
            return
        accepted = accepted_params(configurations)
        unknown = set(added) - accepted
        if unknown:
            raise ValueError(
                f"--set key(s) {sorted(unknown)} match neither a study axis "
                f"({sorted(_AXIS_FIELDS)}) nor a parameter of "
                f"{self.name!r}'s configurations"
                + (f" (accepted: {sorted(accepted)})" if accepted else "")
            )

    def with_config_params(self, **params) -> "Study":
        """A copy with ``params`` merged into the configuration parameters.

        Applies the same applicability validation as :meth:`overridden` —
        a parameter no configuration of the study accepts raises instead of
        silently compiling to the unmodified specs.
        """

        self._validate_added_params(set(params), self.configurations)
        merged = self.config_params_dict()
        merged.update(params)
        return dataclasses.replace(self, config_params=_freeze(merged))

    # -- compile / run -------------------------------------------------------
    def make_runner(self, **runner_fields) -> ExperimentRunner:
        """A runner on this study's system axis (``runner_fields`` forwarded)."""

        return ExperimentRunner(
            system=system_for(self.system, self.scale), **runner_fields
        )

    def cells(self, runner: ExperimentRunner | None = None) -> dict:
        """Every cell this study reduces, mapped to the spec that computes it.

        The built-in reducers make each spec once, over one frozen system
        tree.  Analytic studies have no cells.
        """

        return REDUCERS[self.reducer].cells(self, runner or self.make_runner())

    def compile(self, runner: ExperimentRunner | None = None) -> list[Spec]:
        """The deduplicated batch of specs this study needs, in axis order.

        These are the unique specs of :meth:`cells`, exactly the set of
        simulations :meth:`run` executes, so submitting the batch — from any
        process, e.g. a prewarm pass — warms the store and a subsequent
        :meth:`run` re-executes nothing.
        """

        return list(dict.fromkeys(self.cells(runner).values()))

    def reduce(self, cells: Mapping, results: Mapping) -> FigureResult:
        """The rendered table, from ``cells`` (cell → spec) and their results.

        ``results`` maps each spec to its result — a scheduler job's
        ``results`` or :meth:`ExperimentRunner.submit`'s answer — so a
        caller that already resolved the specs reduces without a second
        pass through the scheduler.
        """

        by_cell = {cell: results[spec] for cell, spec in cells.items()}
        return render_result(REDUCERS[self.reducer].table(self, by_cell))

    def run(self, runner: ExperimentRunner | None = None) -> FigureResult:
        """Reduce this study's results (simulating what the store lacks).

        The cells' unique specs go through the runner's scheduler + store
        in one batch, so completed cells replay and misses run (in
        parallel under ``jobs > 1``).  ``runner`` carries the execution
        policy (jobs, store, trace overrides, access caps) *and*, when
        given, the system — a shared benchmark runner keeps its own system
        axis.  Without one, the study runs on its declared
        ``system``/``scale``.
        """

        runner = runner or self.make_runner()
        cells = self.cells(runner)
        results = runner.submit(list(cells.values())) if cells else {}
        return self.reduce(cells, results)


# ---------------------------------------------------------------------------
# Reducers: cell enumeration + table construction, paired under one name
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Reducer:
    """One named way of turning a study's axes into cells and a table.

    ``cells(study, runner)`` maps every cell the study needs to the spec
    that computes it (its keys are the reducer's own: ``(workload,
    configuration)`` or ``(pair, configuration)``); ``table(study,
    results)`` builds the (unrendered) :class:`FigureResult` from cell →
    result.  ``table`` sees only the results of the cells ``cells``
    listed, so a :meth:`Study.run` never simulates a cell its compiled
    batch did not declare.

    ``axes`` names the :data:`_AXIS_FIELDS` this reducer actually reads;
    :meth:`Study.overridden` rejects ``--set`` keys outside it, so an
    override that could not affect the output (``--set metric=...`` on the
    fixed-metric figure 20, ``--set scale=...`` on the analytic table 1)
    fails loudly instead of printing the unmodified table.  When the
    reducer reads the ``metric`` axis, ``valid_metrics`` names the values
    it understands, so a bad metric fails at override time instead of
    after the simulations have already run.
    """

    name: str
    cells: Callable[[Study, ExperimentRunner], dict]
    table: Callable[[Study, Mapping[Hashable, object]], FigureResult]
    axes: frozenset = frozenset(_AXIS_FIELDS)
    valid_metrics: frozenset | None = None


REDUCERS: dict[str, Reducer] = {}


def register_reducer(
    name: str, cells, table, axes=frozenset(_AXIS_FIELDS), valid_metrics=None
) -> Reducer:
    """Register a reducer under a unique name and return it.

    ``cells(study, runner)`` returns cell → spec and ``table(study,
    results)`` builds the unrendered :class:`FigureResult` from cell →
    result (see :class:`Reducer`).  ``axes`` defaults to every overridable
    axis; built-in reducers narrow it to the fields they read.
    ``valid_metrics`` (optional) is the set of metric values the reducer
    understands; ``None`` skips validation.
    """

    if name in REDUCERS:
        raise ValueError(f"reducer {name!r} is already registered")
    reducer = Reducer(
        name=name,
        cells=cells,
        table=table,
        axes=frozenset(axes),
        valid_metrics=frozenset(valid_metrics) if valid_metrics is not None else None,
    )
    REDUCERS[name] = reducer
    return reducer


def _relabeled(table: dict, mapping: dict[str, str]) -> dict:
    """Rename each row's configuration keys (registry name → display name)."""

    if not mapping:
        return table
    return {
        row: {mapping.get(name, name): value for name, value in per_config.items()}
        for row, per_config in table.items()
    }


def no_cells(study: Study, runner: ExperimentRunner) -> dict:
    """Cell enumerator of analytic studies: nothing to simulate."""

    return {}


#: Metric values the baseline-normalising reducers understand (the dispatch
#: of :func:`repro.analysis.metrics.normalize_against_baseline`).
_MATRIX_METRICS = frozenset(RELATIVE_METRICS) | {"accuracy"}


def _stat_metrics() -> frozenset:
    """Every per-run statistic the ``stat`` reducer can read off a result."""

    from repro.sim.stats import SimulationStats

    fields = {
        field.name
        for field in dataclasses.fields(SimulationStats)
        if field.name not in ("workload", "configuration")
    }
    properties = {
        name
        for name, value in vars(SimulationStats).items()
        if isinstance(value, property)
    }
    return frozenset(fields | properties)


def _single_core_cells(
    study: Study, runner: ExperimentRunner, include_baseline: bool
) -> dict:
    """``(workload, configuration)`` → RunSpec, configuration-major.

    The study's baseline configuration leads when ``include_baseline``.
    """

    configurations = list(study.configurations)
    if include_baseline and study.baseline not in configurations:
        configurations = [study.baseline] + configurations
    system = runner.frozen_system()
    return {
        (workload, configuration): runner.spec_for(
            workload, configuration, study.params_for(configuration), system
        )
        for configuration in configurations
        for workload in study.workloads
    }


def _by_workload(results: Mapping) -> dict[str, dict]:
    """``(workload, configuration)`` → result as workload → configuration → result."""

    nested: dict[str, dict] = {}
    for (workload, configuration), result in results.items():
        nested.setdefault(workload, {})[configuration] = result
    return nested


# -- "matrix": baseline-normalised (workload × configuration) metric ---------
def _matrix_cells(study: Study, runner: ExperimentRunner) -> dict:
    return _single_core_cells(study, runner, include_baseline=True)


def _matrix_table(study: Study, results: Mapping) -> FigureResult:
    table = normalized_table(_by_workload(results), study.metric, study.baseline)
    return FigureResult(
        figure=study.figure,
        title=study.display_title(),
        table=_relabeled(table, study.relabel_dict()),
        columns=study.display_columns(),
        notes=study.notes,
    )


register_reducer(
    "matrix", _matrix_cells, _matrix_table,
    axes={"system", "scale", "metric", "baseline"},
    valid_metrics=_MATRIX_METRICS,
)


# -- "stat": a raw per-cell statistic, no baseline or normalisation ----------
def _stat_cells(study: Study, runner: ExperimentRunner) -> dict:
    return _single_core_cells(study, runner, include_baseline=False)


def _stat_table(study: Study, results: Mapping) -> FigureResult:
    mapping = study.relabel_dict()
    table = {
        workload: {
            mapping.get(name, name): getattr(stats, study.metric)
            for name, stats in per_config.items()
        }
        for workload, per_config in _by_workload(results).items()
    }
    return FigureResult(
        figure=study.figure,
        title=study.display_title(),
        table=add_geomean_row(table),
        columns=study.display_columns(),
        notes=study.notes,
    )


register_reducer(
    "stat", _stat_cells, _stat_table,
    axes={"system", "scale", "metric"},
    valid_metrics=_stat_metrics(),
)


# -- "matrix-pair": two normalised metrics, rows suffixed per metric ---------
#: Row-label suffix per metric in ``matrix-pair`` tables (falls back to the
#: metric name itself).
_METRIC_ROW_SUFFIX = {"dram_traffic": "dram"}


def _matrix_pair_table(study: Study, results: Mapping) -> FigureResult:
    mapping = study.relabel_dict()
    by_workload = _by_workload(results)
    per_metric = {
        metric: _relabeled(normalized_table(by_workload, metric, study.baseline), mapping)
        for metric in study.metrics
    }
    table: dict[str, dict[str, float]] = {}
    for metric in study.metrics:
        suffix = _METRIC_ROW_SUFFIX.get(metric, metric)
        for workload, row in per_metric[metric].items():
            table[f"{workload} {suffix}"] = row
    return FigureResult(
        figure=study.figure,
        title=study.display_title(),
        table=table,
        columns=study.display_columns(),
        notes=study.notes,
        extras=dict(per_metric),
    )


register_reducer(
    "matrix-pair", _matrix_cells, _matrix_pair_table,
    axes={"system", "scale", "baseline"},  # the metric pair is fixed
)


# -- "multiprogram": pair speedups against a per-pair baseline run -----------
def _multiprogram_cells(study: Study, runner: ExperimentRunner) -> dict:
    params = study.config_params_dict()
    if params:
        # A Study.create-declared parameter that no configuration of the
        # study accepts would compile to default-parameter specs while the
        # title still advertises it — reject, exactly as overridden() and
        # with_config_params() do for the CLI/programmatic override paths.
        stranded = set(params) - accepted_params(study.configurations)
        if stranded:
            raise ValueError(
                f"study {study.name!r} declares parameter(s) "
                f"{sorted(stranded)} that none of its configurations "
                f"accept; they would be silently ignored"
            )
    series = [study.baseline] + list(study.configurations)
    system = runner.frozen_system()
    return {
        (pair, configuration): runner.multiprogram_spec_for(
            pair,
            configuration,
            study.max_accesses_per_core,
            config_params=study.params_for(configuration),
            system=system,
        )
        for pair in study.pairs
        for configuration in series
    }


def _multiprogram_table(study: Study, results: Mapping) -> FigureResult:
    table: dict[str, dict[str, float]] = {}
    for pair in study.pairs:
        label = " & ".join(pair)
        baseline = results[(pair, study.baseline)]
        table[label] = {}
        for configuration in study.configurations:
            speedups = results[(pair, configuration)].speedups_relative_to(baseline)
            table[label][configuration] = geomean(speedups)
    return FigureResult(
        figure=study.figure,
        title=study.display_title(),
        table=add_geomean_row(table),
        columns=study.display_columns(),
        notes=study.notes,
    )


register_reducer(
    "multiprogram", _multiprogram_cells, _multiprogram_table,
    axes={"system", "scale", "baseline", "max_accesses_per_core"},
)


# -- "slowdown-traffic": inverse speedup + DRAM traffic rows per workload ----
def _slowdown_traffic_table(study: Study, results: Mapping) -> FigureResult:
    table: dict[str, dict[str, float]] = {}
    for workload in study.workloads:
        baseline = results[(workload, study.baseline)]
        slowdown_row = {}
        traffic_row = {}
        for configuration in study.configurations:
            stats = results[(workload, configuration)]
            speedup = stats.speedup_relative_to(baseline)
            slowdown_row[configuration] = 1.0 / speedup if speedup > 0 else float("inf")
            traffic_row[configuration] = stats.dram_traffic_relative_to(baseline)
        table[f"{workload} slowdown"] = slowdown_row
        table[f"{workload} dram"] = traffic_row
    return FigureResult(
        figure=study.figure,
        title=study.display_title(),
        table=table,
        columns=study.display_columns(),
        notes=study.notes,
    )


register_reducer(
    "slowdown-traffic", _matrix_cells, _slowdown_traffic_table,
    axes={"system", "scale", "baseline"},  # always slowdown + DRAM rows
)


# ---------------------------------------------------------------------------
# The study registry
# ---------------------------------------------------------------------------
class StudyRegistry:
    """A name → :class:`Study` registry with listing and describe support."""

    def __init__(self) -> None:
        self._studies: dict[str, Study] = {}

    def register(self, study: Study) -> Study:
        """Register a study under its (unique) name and return it."""

        if study.name in self._studies:
            raise ValueError(f"study {study.name!r} is already registered")
        if study.reducer not in REDUCERS:
            raise ValueError(
                f"study {study.name!r} names unknown reducer {study.reducer!r}"
            )
        self._studies[study.name] = study
        return study

    def get(self, name: str) -> Study:
        """The named study, or a ``ValueError`` listing what exists."""

        study = self._studies.get(name)
        if study is None:
            raise ValueError(f"unknown study {name!r}; available: {self.names()}")
        return study

    def names(self) -> list[str]:
        """Every registered study name, sorted."""

        return sorted(self._studies)

    def run(self, name: str, runner: ExperimentRunner | None = None) -> FigureResult:
        """Run the named study (see :meth:`Study.run`)."""

        return self.get(name).run(runner)

    @staticmethod
    def digest_of(batch) -> str:
        """A short stable digest of a compiled spec batch.

        Hashes the sorted content hashes of every spec, so two processes
        (or two machines at the same code version) can check they compiled
        the identical batch without shipping the specs around.
        """

        hashes = sorted(spec.content_hash() for spec in batch)
        return hashlib.sha256("|".join(hashes).encode()).hexdigest()[:12]

    def batch_digest(self, name: str, runner: ExperimentRunner | None = None) -> str:
        """The digest of the named study's compiled batch (see :meth:`digest_of`)."""

        return self.digest_of(self.get(name).compile(runner))

    def describe(self, name: str, runner: ExperimentRunner | None = None) -> str:
        """A multi-line description of one study's axes and compiled batch."""

        study = self.get(name)
        batch = study.compile(runner)
        signatures = CONFIGS.signatures()
        lines = [
            f"{study.name}: {study.figure} — {study.display_title()}",
            f"  reducer:        {study.reducer}",
            f"  system:         {study.system} (scale {study.scale:g})",
        ]
        if study.metrics:
            lines.append(f"  metrics:        {', '.join(study.metrics)}")
        elif "metric" in REDUCERS[study.reducer].axes:
            lines.append(f"  metric:         {study.metric}")
        if study.pairs:
            pairs = ", ".join(" & ".join(pair) for pair in study.pairs)
            lines.append(f"  pairs:          {pairs}")
            if study.max_accesses_per_core is not None:
                lines.append(
                    f"  accesses/core:  {study.max_accesses_per_core}"
                )
        elif study.workloads:
            lines.append(f"  workloads:      {', '.join(study.workloads)}")
        if study.configurations:
            columns = ", ".join(
                f"{name}{signatures.get(name, '')}" for name in study.configurations
            )
            lines.append(f"  configurations: {columns}")
        params = study.config_params_dict()
        if params:
            rendered = ", ".join(f"{key}={value}" for key, value in sorted(params.items()))
            lines.append(f"  parameters:     {rendered}")
        if study.description:
            lines.append(f"  about:          {study.description}")
        lines.append(
            f"  batch:          {len(batch)} spec(s), digest {self.digest_of(batch)}"
            if batch
            else "  batch:          analytic (no simulations)"
        )
        return "\n".join(lines)

    def __contains__(self, name: str) -> bool:
        return name in self._studies

    def __iter__(self):
        return iter(self.names())

    def __len__(self) -> int:
        return len(self._studies)

    def items(self):
        """(name, study) pairs in sorted-name order."""

        return [(name, self._studies[name]) for name in self.names()]
