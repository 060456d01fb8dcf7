"""Design-space exploration: store-backed search over the configuration space.

The paper's central trade-off — metadata traffic against coverage and
accuracy as prefetcher structures scale — is a design-space search, and
this module makes it a first-class subsystem instead of ad-hoc loops.  The
pieces:

* :class:`SearchSpace` — an immutable declaration of the space's axes:
  workloads × configurations × a parameter grid (e.g. ``max_entries``)
  × system scales.  :meth:`SearchSpace.candidates` enumerates the
  deterministic cartesian product as :class:`Candidate` values.
* :func:`plan_search` — a pure planner that turns a candidate count plus a
  strategy (``grid`` | ``random``) into a :class:`SearchPlan`: the seeded
  evaluation order and the budget-trimmed selection.  Being pure, every
  plan invariant (budgets are never exceeded, identical seeds reproduce
  identical orders) is property-testable without simulating anything.
* :class:`Explorer` — the evaluator.  Every selected candidate runs the
  full (possibly overridden) trace of every workload as a normal
  :class:`~repro.experiments.jobs.RunSpec`, in one batch through
  :class:`~repro.service.scheduler.Scheduler` +
  :class:`~repro.experiments.store.ResultStore`, so every point a search
  reports is an exact result.  Searches are therefore warm-restartable: a
  killed search re-run with :func:`resume_search` replays every completed
  point from the store and executes only the rest.
* :func:`pareto_front` — the non-dominated set over (coverage ↑,
  accuracy ↑, metadata traffic ↓), canonically ordered so membership and
  output bytes are invariant to evaluation order.

Provenance: the search directory holds ``search.json`` (the manifest
:func:`resume_search` replays), ``log.jsonl`` (one record per evaluated
candidate with strategy, seed, scores and spec digests) and
``front.json`` (the deterministic final front — byte-identical across a
resume).
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from repro.experiments.configs import CONFIGS
from repro.experiments.jobs import RunSpec, _freeze, _thaw
from repro.experiments.store import ResultStore, default_store
from repro.experiments.study import accepted_params, coerce_param
from repro.service.scheduler import Scheduler
from repro.sim.config import system_for

#: The search strategies :func:`plan_search` understands.
STRATEGIES = ("grid", "random")

#: Default axes of the CLI search space: the replacement-policy ladder of
#: the paper swept over the Markov-table capacity, on one representative
#: workload.  ``repro explore --workloads/--configs/--set`` override these.
DEFAULT_WORKLOADS = ("xalan",)
DEFAULT_CONFIGURATIONS = ("triage-lru", "triage-srrip", "triage-hawkeye")
DEFAULT_PARAM_GRID = {"max_entries": (64, 256, 1024, 4096)}

#: Objective metrics a search can rank candidates by, with direction.
OBJECTIVES: dict[str, bool] = {
    "coverage": True,
    "accuracy": True,
    "speedup": True,
    "metadata_traffic": False,
}

#: The fixed Pareto axes: the paper's trade-off.
PARETO_MAXIMIZE = ("coverage", "accuracy")
PARETO_MINIMIZE = ("metadata_traffic",)

DEFAULT_SEARCH_DIR = ".repro_search"

MANIFEST_FILENAME = "search.json"
LOG_FILENAME = "log.jsonl"
FRONT_FILENAME = "front.json"
MANIFEST_KIND = "repro-explore"
MANIFEST_VERSION = 1


# ---------------------------------------------------------------------------
# The space: candidates and their enumeration
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Candidate:
    """One point of the design space: a configuration, parameters, a scale."""

    configuration: str
    params: tuple = ()
    scale: float = 1.0

    def params_dict(self) -> dict:
        """The call-time configuration parameters as a plain dictionary."""

        return _thaw(self.params) or {}

    def label(self) -> str:
        """A human-readable identity, e.g. ``triage-lru[max_entries=64]``."""

        text = self.configuration
        params = self.params_dict()
        if params:
            inner = ", ".join(f"{key}={value}" for key, value in sorted(params.items()))
            text += f"[{inner}]"
        if self.scale != 1.0:
            text += f" @scale={self.scale:g}"
        return text

    def as_dict(self) -> dict:
        """JSON-serialisable form (used by the log and the front)."""

        return {
            "configuration": self.configuration,
            "params": self.params_dict(),
            "scale": self.scale,
        }


@dataclass(frozen=True)
class SearchSpace:
    """An immutable declaration of the searchable axes.

    ``param_grid`` maps parameter names to candidate value tuples; each
    configuration only takes the grid keys it actually accepts (plain
    configurations take none), so mixed plain/parameterised spaces
    enumerate without stranded parameters.  Build through
    :meth:`SearchSpace.create`, which canonicalises and validates every
    axis the same way ``repro study run`` validates its overrides —
    before anything simulates.
    """

    workloads: tuple
    configurations: tuple
    param_grid: tuple = ()
    scales: tuple = (1.0,)
    system: str = "sim-scale"
    baseline: str = "baseline"

    @classmethod
    def create(
        cls,
        workloads: Sequence[str],
        configurations: Sequence[str],
        param_grid: Mapping | None = None,
        scales: Sequence[float] = (1.0,),
        system: str = "sim-scale",
        baseline: str = "baseline",
    ) -> "SearchSpace":
        """Build a validated space from mutable inputs (see class docs)."""

        from repro.workloads.registry import available_workloads

        workloads = tuple(workloads)
        configurations = tuple(configurations)
        if not workloads:
            raise ValueError("a search space needs at least one workload")
        if not configurations:
            raise ValueError("a search space needs at least one configuration")
        known = available_workloads()
        unknown = [name for name in workloads if name not in set(known)]
        if unknown:
            raise ValueError(f"unknown workload(s) {unknown}; available: {known}")
        unknown = [name for name in configurations if name not in CONFIGS]
        if unknown:
            raise ValueError(
                f"unknown configuration(s) {unknown}; available: {CONFIGS.names()}"
            )
        if baseline not in CONFIGS:
            raise ValueError(
                f"unknown baseline {baseline!r}; available: {CONFIGS.names()}"
            )
        grid = {key: tuple(values) for key, values in dict(param_grid or {}).items()}
        for key, values in grid.items():
            if not values:
                raise ValueError(f"parameter axis {key!r} has no values")
        stranded = set(grid) - accepted_params(configurations)
        if stranded:
            accepted = accepted_params(configurations)
            raise ValueError(
                f"--set key(s) {sorted(stranded)} match neither a search axis "
                f"({sorted(_SPACE_AXES)}) nor a parameter of the space's "
                f"configurations"
                + (f" (accepted: {sorted(accepted)})" if accepted else "")
            )
        scales = tuple(float(scale) for scale in scales)
        if not scales:
            raise ValueError("a search space needs at least one scale")
        for scale in scales:
            system_for(system, scale)  # validates both the name and the scale
        return cls(
            workloads=workloads,
            configurations=configurations,
            param_grid=_freeze(grid),
            scales=scales,
            system=system,
            baseline=baseline,
        )

    def param_grid_dict(self) -> dict:
        """The parameter grid as a plain name → value-tuple dictionary."""

        thawed = _thaw(self.param_grid) or {}
        return {key: tuple(values) for key, values in thawed.items()}

    def candidates(self) -> list[Candidate]:
        """Every point of the space, in deterministic declaration order.

        Configurations enumerate in declared order; within one, parameter
        combinations in sorted-key cartesian-product order; within one
        combination, scales in declared order.  The order is the ``grid``
        strategy's evaluation order and the base the seeded strategies
        shuffle, so identical spaces always enumerate identically.
        """

        grid = self.param_grid_dict()
        points: list[Candidate] = []
        for configuration in self.configurations:
            accepted = accepted_params([configuration])
            names = [key for key in sorted(grid) if key in accepted]
            combos = itertools.product(*(grid[key] for key in names)) if names else [()]
            for combo in combos:
                params = _freeze(dict(zip(names, combo)))
                for scale in self.scales:
                    points.append(Candidate(configuration, params, scale))
        return points

    def as_dict(self) -> dict:
        """JSON-serialisable form (the manifest's ``space`` entry)."""

        return {
            "workloads": list(self.workloads),
            "configurations": list(self.configurations),
            "param_grid": {
                key: list(values) for key, values in self.param_grid_dict().items()
            },
            "scales": list(self.scales),
            "system": self.system,
            "baseline": self.baseline,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "SearchSpace":
        """Rebuild (and re-validate) a space from its manifest form."""

        return cls.create(
            workloads=data["workloads"],
            configurations=data["configurations"],
            param_grid=data.get("param_grid") or {},
            scales=data.get("scales") or (1.0,),
            system=data.get("system", "sim-scale"),
            baseline=data.get("baseline", "baseline"),
        )


#: ``--set`` keys that override a space axis rather than a grid parameter,
#: with the coercion from the raw comma-separated string.
_SPACE_AXES = ("baseline", "scale", "system")


def _split_values(raw: str, key: str) -> list[str]:
    """Split one ``--set`` value into its comma-separated parts."""

    parts = [part.strip() for part in raw.split(",") if part.strip()]
    if not parts:
        raise ValueError(f"--set {key}=: no values given")
    return parts


def overridden_space(
    workloads: Sequence[str] | None = None,
    configurations: Sequence[str] | None = None,
    assignments: Mapping[str, str] | None = None,
) -> SearchSpace:
    """The default search space with CLI-style overrides applied.

    ``assignments`` holds raw ``--set`` values; ``scale`` takes a comma
    list of floats (a search axis), ``system``/``baseline`` single names,
    and any other key becomes a parameter-grid axis with a comma list of
    values (``--set max_entries=64,4096``).  Validation — unknown names,
    stranded parameters — happens in :meth:`SearchSpace.create`, exactly
    as ``repro study run`` validates before simulating.
    """

    grid = dict(DEFAULT_PARAM_GRID) if configurations is None else {}
    scales: Sequence[float] = (1.0,)
    system = "sim-scale"
    baseline = "baseline"
    for key, raw in (assignments or {}).items():
        if key == "scale":
            try:
                scales = tuple(float(part) for part in _split_values(raw, key))
            except ValueError:
                raise ValueError(
                    f"--set scale={raw!r}: expected comma-separated numbers"
                ) from None
        elif key == "system":
            system = raw.strip()
        elif key == "baseline":
            baseline = raw.strip()
        else:
            grid[key] = tuple(coerce_param(part) for part in _split_values(raw, key))
    return SearchSpace.create(
        workloads=tuple(workloads) if workloads is not None else DEFAULT_WORKLOADS,
        configurations=(
            tuple(configurations)
            if configurations is not None
            else DEFAULT_CONFIGURATIONS
        ),
        param_grid=grid,
        scales=scales,
        system=system,
        baseline=baseline,
    )


# ---------------------------------------------------------------------------
# The plan: strategies and budgets (pure — no simulation)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SearchPlan:
    """A strategy compiled against a candidate count: order and selection."""

    strategy: str
    seed: int
    budget: int | None
    #: candidate indices in evaluation order, already trimmed to the budget.
    selected: tuple
    #: candidates the budget could not fund (never evaluated).
    dropped: int

    def describe(self) -> list[str]:
        """The plan as indented text lines (the ``describe`` CLI body)."""

        return [
            f"strategy:    {self.strategy} (seed {self.seed}"
            + (f", budget {self.budget}" if self.budget is not None else "")
            + ")",
            f"selected:    {len(self.selected)} candidate(s), each on the full trace"
            + (f" ({self.dropped} dropped by the budget)" if self.dropped else ""),
        ]


def candidate_order(count: int, strategy: str, seed: int = 0) -> list[int]:
    """The deterministic evaluation order over candidate indices.

    ``grid`` keeps declaration order; ``random`` shuffles with a
    :class:`random.Random` seeded by ``seed``, so identical seeds always
    reproduce identical candidate sequences.
    """

    order = list(range(count))
    if strategy != "grid":
        random.Random(seed).shuffle(order)
    return order


def plan_search(
    count: int,
    strategy: str = "grid",
    budget: int | None = None,
    seed: int = 0,
) -> SearchPlan:
    """Compile a strategy against ``count`` candidates into a :class:`SearchPlan`.

    ``budget`` caps the number of candidate evaluations; plans never exceed
    it — the selection shrinks instead, dropping the tail of the (seeded)
    order.  Every selected candidate is evaluated once, on the full trace.
    """

    if strategy not in STRATEGIES:
        raise ValueError(
            f"unknown strategy {strategy!r}; available: {list(STRATEGIES)}"
        )
    if count < 1:
        raise ValueError("the search space has no candidates")
    if budget is not None and budget < 1:
        raise ValueError(f"--budget must be at least 1, got {budget}")
    keep = count if budget is None else min(budget, count)
    return SearchPlan(
        strategy=strategy,
        seed=seed,
        budget=budget,
        selected=tuple(candidate_order(count, strategy, seed)[:keep]),
        dropped=count - keep,
    )


# ---------------------------------------------------------------------------
# Evaluations and the Pareto front
# ---------------------------------------------------------------------------
@dataclass
class Evaluation:
    """One candidate scored on the full traces: metrics, score, spec provenance."""

    candidate: Candidate
    #: the ranking score: the objective metric, workload-averaged.
    score: float
    #: workload-averaged metrics (coverage, accuracy, speedup, metadata_traffic).
    metrics: dict
    #: workload → metrics dict, before averaging.
    per_workload: dict = field(default_factory=dict)
    #: workload → candidate-spec content hash (the store keys evaluated).
    spec_digests: dict = field(default_factory=dict)
    #: workload → baseline-spec content hash.
    baseline_digests: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        """JSON-serialisable form (the log record / front entry body)."""

        return {
            "candidate": self.candidate.as_dict(),
            "score": self.score,
            "metrics": dict(self.metrics),
            "per_workload": {
                workload: dict(values)
                for workload, values in sorted(self.per_workload.items())
            },
            "spec_digests": dict(sorted(self.spec_digests.items())),
            "baseline_digests": dict(sorted(self.baseline_digests.items())),
        }


def candidate_metrics(stats, baseline) -> dict:
    """The search's metric vector for one run, against its baseline run.

    ``metadata_traffic`` is the temporal prefetcher's Markov-table accesses
    per demand access — normalised per access rather than against the
    baseline, because the stride-only baseline performs none.
    """

    return {
        "coverage": stats.coverage_relative_to(baseline),
        "accuracy": stats.accuracy,
        "speedup": stats.speedup_relative_to(baseline),
        "metadata_traffic": (
            stats.markov_accesses / stats.accesses if stats.accesses else 0.0
        ),
    }


def _dominates(a: Mapping, b: Mapping) -> bool:
    """Whether metric vector ``a`` Pareto-dominates ``b`` on the fixed axes."""

    no_worse = all(a[m] >= b[m] for m in PARETO_MAXIMIZE) and all(
        a[m] <= b[m] for m in PARETO_MINIMIZE
    )
    better = any(a[m] > b[m] for m in PARETO_MAXIMIZE) or any(
        a[m] < b[m] for m in PARETO_MINIMIZE
    )
    return no_worse and better


def pareto_front(evaluations: Sequence[Evaluation]) -> list[Evaluation]:
    """The non-dominated evaluations, canonically ordered.

    Domination is over the fixed axes (maximise coverage and accuracy,
    minimise metadata traffic).  The result is sorted by those axes (then
    the candidate label), so both membership *and* serialised bytes are
    invariant to the order the evaluations arrived in.
    """

    front = [
        evaluation
        for evaluation in evaluations
        if not any(
            _dominates(other.metrics, evaluation.metrics)
            for other in evaluations
            if other is not evaluation
        )
    ]
    front.sort(
        key=lambda evaluation: (
            tuple(-evaluation.metrics[m] for m in PARETO_MAXIMIZE)
            + tuple(evaluation.metrics[m] for m in PARETO_MINIMIZE)
            + (evaluation.candidate.label(),)
        )
    )
    return front


def _ranked(evaluations: Sequence[Evaluation], objective: str) -> list[Evaluation]:
    """Evaluations best-first by the objective, ties kept in arrival order."""

    maximize = OBJECTIVES[objective]
    return sorted(
        evaluations,
        key=lambda evaluation: -evaluation.score if maximize else evaluation.score,
    )


# ---------------------------------------------------------------------------
# The explorer: evaluation through the scheduler + store
# ---------------------------------------------------------------------------
@dataclass
class SearchResult:
    """Everything one search produced (and wrote under its directory)."""

    strategy: str
    seed: int
    budget: int | None
    objective: str
    plan: SearchPlan
    candidates: list
    evaluations: list
    front: list
    #: the best evaluation by the objective.
    top: Evaluation
    #: store activity during this search: replayed (hits) vs executed (puts).
    store_replayed: int | None
    store_executed: int | None
    directory: Path

    def front_payload(self) -> dict:
        """The deterministic ``front.json`` payload (resume-stable bytes)."""

        return {
            "kind": "repro-explore-front",
            "strategy": self.strategy,
            "seed": self.seed,
            "budget": self.budget,
            "objective": self.objective,
            "maximize": list(PARETO_MAXIMIZE),
            "minimize": list(PARETO_MINIMIZE),
            "candidates": len(self.candidates),
            "evaluations": len(self.evaluations),
            "front": [evaluation.as_dict() for evaluation in self.front],
            "top": self.top.as_dict(),
        }


def _atomic_write_text(path: Path, text: str) -> None:
    """Write a file atomically (tmp + rename), creating parents."""

    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    tmp.replace(path)


@dataclass
class Explorer:
    """Evaluates candidates of one :class:`SearchSpace` through the store.

    Execution policy mirrors :class:`~repro.experiments.runner.
    ExperimentRunner`: an optional persistent store (``use_cache=False``
    disables it) and ``jobs`` worker processes.
    ``trace_overrides`` applies to every workload's trace.
    """

    space: SearchSpace
    directory: Path = Path(DEFAULT_SEARCH_DIR)
    objective: str = "coverage"
    warmup_fraction: float = 0.4
    trace_overrides: dict = field(default_factory=dict)
    store: ResultStore | None = None
    use_cache: bool = True
    jobs: int = 1
    #: append per-evaluation records to ``<directory>/log.jsonl``.
    write_log: bool = True

    def __post_init__(self) -> None:
        if self.objective not in OBJECTIVES:
            raise ValueError(
                f"unknown objective {self.objective!r}; "
                f"available: {sorted(OBJECTIVES)}"
            )
        self.directory = Path(self.directory)

    # -- execution plumbing --------------------------------------------------
    def _store(self) -> ResultStore | None:
        if not self.use_cache:
            return None
        return self.store if self.store is not None else default_store()

    def _spec(self, configuration: str, workload: str, scale: float,
              params: Mapping | None) -> RunSpec:
        """One canonical spec of this search."""

        return RunSpec.create(
            workload=workload,
            configuration=configuration,
            system=system_for(self.space.system, scale),
            trace_overrides=self.trace_overrides,
            warmup_fraction=self.warmup_fraction,
            config_params=params,
        )

    # -- evaluation ----------------------------------------------------------
    def evaluate(self, candidates: Sequence[Candidate]) -> list[Evaluation]:
        """Score candidates on the full traces through one deduplicated batch.

        Every candidate cell and its per-(workload, scale) baseline run
        goes into one :meth:`~repro.service.scheduler.Scheduler.run` call,
        so the store is consulted once, ``jobs`` parallelises across
        candidates, workloads and baselines alike, and warm cells replay
        instead of re-executing.
        """

        candidate_specs: dict[tuple[Candidate, str], RunSpec] = {}
        baseline_specs: dict[tuple[float, str], RunSpec] = {}
        for candidate in candidates:
            for workload in self.space.workloads:
                candidate_specs[(candidate, workload)] = self._spec(
                    candidate.configuration, workload, candidate.scale,
                    candidate.params_dict() or None,
                )
                key = (candidate.scale, workload)
                if key not in baseline_specs:
                    baseline_specs[key] = self._spec(
                        self.space.baseline, workload, candidate.scale, None
                    )
        batch = list(candidate_specs.values()) + list(baseline_specs.values())
        with Scheduler(store=self._store(), jobs=self.jobs) as scheduler:
            results = scheduler.run(batch)

        evaluations = []
        for candidate in candidates:
            per_workload: dict[str, dict] = {}
            digests: dict[str, str] = {}
            baseline_digests: dict[str, str] = {}
            for workload in self.space.workloads:
                spec = candidate_specs[(candidate, workload)]
                base_spec = baseline_specs[(candidate.scale, workload)]
                per_workload[workload] = candidate_metrics(
                    results[spec], results[base_spec]
                )
                digests[workload] = spec.content_hash()
                baseline_digests[workload] = base_spec.content_hash()
            metrics = {
                metric: sum(values[metric] for values in per_workload.values())
                / len(per_workload)
                for metric in OBJECTIVES
            }
            evaluations.append(
                Evaluation(
                    candidate=candidate,
                    score=metrics[self.objective],
                    metrics=metrics,
                    per_workload=per_workload,
                    spec_digests=digests,
                    baseline_digests=baseline_digests,
                )
            )
        return evaluations

    # -- the search ----------------------------------------------------------
    def _manifest(self, strategy: str, budget: int | None, seed: int) -> dict:
        """The resumable description of this search (``search.json``)."""

        return {
            "kind": MANIFEST_KIND,
            "version": MANIFEST_VERSION,
            "space": self.space.as_dict(),
            "strategy": strategy,
            "budget": budget,
            "seed": seed,
            "objective": self.objective,
            "warmup_fraction": self.warmup_fraction,
            "trace_overrides": dict(self.trace_overrides),
        }

    def _log(self, record: dict) -> None:
        """Append one provenance record to the search log."""

        if not self.write_log:
            return
        path = self.directory / LOG_FILENAME
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("a") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")

    def run(
        self,
        strategy: str = "grid",
        budget: int | None = None,
        seed: int = 0,
    ) -> SearchResult:
        """Run one search end to end and write its artifacts.

        Writes ``search.json`` up front (so a killed search can resume),
        evaluates the plan's selection in one batch, appends a
        ``log.jsonl`` record per evaluation, and finishes with the
        deterministic ``front.json``.  Against a warm store the whole
        search replays without executing a single simulation — that *is*
        the resume path (:func:`resume_search`).
        """

        candidates = self.space.candidates()
        plan = plan_search(len(candidates), strategy=strategy, budget=budget, seed=seed)
        _atomic_write_text(
            self.directory / MANIFEST_FILENAME,
            json.dumps(self._manifest(strategy, budget, seed), indent=2, sort_keys=True)
            + "\n",
        )
        store = self._store()
        hits0, puts0 = (store.hits, store.puts) if store is not None else (0, 0)

        evaluations = self.evaluate([candidates[index] for index in plan.selected])
        for evaluation in evaluations:
            self._log(
                dict(
                    evaluation.as_dict(),
                    strategy=strategy,
                    seed=seed,
                    objective=self.objective,
                )
            )
        result = SearchResult(
            strategy=strategy,
            seed=seed,
            budget=budget,
            objective=self.objective,
            plan=plan,
            candidates=candidates,
            evaluations=evaluations,
            front=pareto_front(evaluations),
            top=_ranked(evaluations, self.objective)[0],
            store_replayed=store.hits - hits0 if store is not None else None,
            store_executed=store.puts - puts0 if store is not None else None,
            directory=self.directory,
        )
        _atomic_write_text(
            self.directory / FRONT_FILENAME,
            json.dumps(result.front_payload(), indent=2, sort_keys=True) + "\n",
        )
        return result

    def describe(
        self,
        strategy: str = "grid",
        budget: int | None = None,
        seed: int = 0,
    ) -> str:
        """The search's axes and compiled plan, without simulating anything."""

        candidates = self.space.candidates()
        plan = plan_search(len(candidates), strategy=strategy, budget=budget, seed=seed)
        space = self.space
        grid = space.param_grid_dict()
        lines = [
            f"explore: {len(candidates)} candidate(s) over "
            f"{len(space.configurations)} configuration(s)",
            f"  workloads:      {', '.join(space.workloads)}",
            f"  configurations: {', '.join(space.configurations)}",
        ]
        for key, values in sorted(grid.items()):
            lines.append(
                f"  {key}: {', '.join(str(value) for value in values)}"
            )
        scales = ", ".join(f"{scale:g}" for scale in space.scales)
        lines.append(f"  system:         {space.system} (scale {scales})")
        lines.append(f"  baseline:       {space.baseline}")
        lines.append(f"  objective:      {self.objective}")
        lines.extend(f"  {line}" for line in plan.describe())
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Module-level entry points (the CLI's surface)
# ---------------------------------------------------------------------------
def run_search(
    space: SearchSpace,
    strategy: str = "grid",
    budget: int | None = None,
    seed: int = 0,
    directory: str | Path = DEFAULT_SEARCH_DIR,
    **options,
) -> SearchResult:
    """Run one search (see :meth:`Explorer.run`); ``options`` configure it."""

    explorer = Explorer(space=space, directory=Path(directory), **options)
    return explorer.run(strategy=strategy, budget=budget, seed=seed)


def describe_search(
    space: SearchSpace,
    strategy: str = "grid",
    budget: int | None = None,
    seed: int = 0,
    **options,
) -> str:
    """Describe a search's plan without executing it (see :meth:`Explorer.describe`)."""

    return Explorer(space=space, **options).describe(
        strategy=strategy, budget=budget, seed=seed
    )


def load_manifest(directory: str | Path) -> dict:
    """Read and validate a search directory's ``search.json`` manifest."""

    path = Path(directory) / MANIFEST_FILENAME
    if not path.exists():
        raise FileNotFoundError(
            f"{path}: no search manifest — run `repro explore run --dir "
            f"{Path(directory)}` first"
        )
    manifest = json.loads(path.read_text())
    if manifest.get("kind") != MANIFEST_KIND:
        raise ValueError(f"{path}: not a repro explore manifest")
    if manifest.get("version") != MANIFEST_VERSION:
        raise ValueError(
            f"{path}: manifest version {manifest.get('version')!r} is not "
            f"{MANIFEST_VERSION}"
        )
    return manifest


def resume_search(directory: str | Path, **options) -> SearchResult:
    """Re-run the search described by a directory's manifest.

    The manifest replays the identical space, strategy, seed and budget;
    because every evaluated point is a content-hashed spec in the store,
    everything the killed search completed is served from the store and
    only the rest executes.  ``options`` override only execution policy
    (store, jobs) — never the search itself.
    """

    manifest = load_manifest(directory)
    explorer = Explorer(
        space=SearchSpace.from_dict(manifest["space"]),
        directory=Path(directory),
        objective=manifest["objective"],
        warmup_fraction=manifest["warmup_fraction"],
        trace_overrides=dict(manifest.get("trace_overrides") or {}),
        **options,
    )
    return explorer.run(
        strategy=manifest["strategy"],
        budget=manifest["budget"],
        seed=manifest["seed"],
    )


def render_search(result: SearchResult) -> str:
    """The text report of one finished search (the CLI output)."""

    lines = [
        f"explore: {result.strategy} search over {len(result.plan.selected)} of "
        f"{len(result.candidates)} candidate(s), seed {result.seed}, "
        f"objective {result.objective}",
    ]
    if result.store_replayed is not None:
        lines.append(
            f"simulations: {result.store_replayed} replayed from store, "
            f"{result.store_executed} executed"
        )
    else:
        lines.append("store: disabled (--no-cache)")
    lines.append(f"top pick: {result.top.candidate.label()}")
    lines.append(
        "Pareto front (maximise coverage, accuracy; minimise metadata traffic):"
    )
    width = max((len(e.candidate.label()) for e in result.front), default=0)
    for evaluation in result.front:
        metrics = evaluation.metrics
        lines.append(
            f"  {evaluation.candidate.label():<{width}}  "
            f"coverage={metrics['coverage']:.3f}  "
            f"accuracy={metrics['accuracy']:.3f}  "
            f"metadata_traffic={metrics['metadata_traffic']:.3f}  "
            f"speedup={metrics['speedup']:.3f}"
        )
    lines.append(f"wrote {result.directory / FRONT_FILENAME}")
    return "\n".join(lines)
