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
  strategy (``grid`` | ``random`` | ``halving``) into a
  :class:`SearchPlan`: the seeded evaluation order, the budget-trimmed
  selection, and for successive halving a ladder of :class:`Rung` values —
  cheap sampled-window screens whose survivors are promoted rung by rung
  until a final full-trace confirmation rung.  Being pure, every plan
  invariant (rungs partition the selection, budgets are never exceeded,
  identical seeds reproduce identical orders) is property-testable without
  simulating anything.
* :class:`Explorer` — the evaluator.  Screen rungs are materialised as
  on-disk ``.rtrc`` prefix windows (:func:`repro.traces.samplers.
  sample_prefix`) under ``<search dir>/screens/`` and registered on the
  trace search path, so *every* evaluated point — screen or full — is a
  normal :class:`~repro.experiments.jobs.RunSpec` keyed by file-content
  digest and flows through :class:`~repro.service.scheduler.Scheduler` +
  :class:`~repro.experiments.store.ResultStore`.  Searches are therefore
  warm-restartable: a killed search re-run with :func:`resume_search`
  replays every completed point from the store and re-executes nothing.
* :func:`pareto_front` — the non-dominated set over (coverage ↑,
  accuracy ↑, metadata traffic ↓), canonically ordered so membership and
  output bytes are invariant to evaluation order.

Provenance: the search directory holds ``search.json`` (the manifest
:func:`resume_search` replays), ``log.jsonl`` (one record per evaluated
(candidate, rung) with strategy, seed, rung, scores and spec digests) and
``front.json`` (the deterministic final front — byte-identical across a
resume).
"""

from __future__ import annotations

import itertools
import json
import math
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
STRATEGIES = ("grid", "random", "halving")

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

DEFAULT_SCREEN_ACCESSES = 2000
DEFAULT_ETA = 2
#: Entrant count at which screening stops and the final full-trace
#: confirmation rung runs (the Pareto front needs more than one full point).
DEFAULT_CONFIRM = 3
DEFAULT_SEARCH_DIR = ".repro_search"

MANIFEST_FILENAME = "search.json"
LOG_FILENAME = "log.jsonl"
FRONT_FILENAME = "front.json"
SCREENS_DIRNAME = "screens"
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
# The plan: strategies, rungs, budgets (pure — no simulation)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Rung:
    """One stage of a search: how many enter, how many survive, how long.

    ``accesses`` is the screen-window length replayed at this rung, or
    ``None`` for the full trace (always the final rung).  ``survivors``
    equals the next rung's ``entrants`` — the eliminated sets of every
    rung plus the final rung's entrants therefore partition the selected
    candidates, which :func:`plan_search` guarantees by construction and
    the property tests re-check.
    """

    index: int
    entrants: int
    survivors: int
    accesses: int | None

    def describe(self) -> str:
        """One line: entrants → survivors at this rung's replay length."""

        window = "full trace" if self.accesses is None else f"{self.accesses}-access screen"
        keep = "" if self.survivors == self.entrants else f" -> keep {self.survivors}"
        return f"rung {self.index}: {self.entrants} candidate(s) @ {window}{keep}"


@dataclass(frozen=True)
class SearchPlan:
    """A strategy compiled against a candidate count: order, selection, rungs."""

    strategy: str
    seed: int
    budget: int | None
    #: candidate indices in evaluation order, already trimmed to the budget.
    selected: tuple
    rungs: tuple
    #: candidates the budget could not fund (never evaluated).
    dropped: int

    @property
    def total_evaluations(self) -> int:
        """Candidate evaluations the plan spends (Σ rung entrants ≤ budget)."""

        return sum(rung.entrants for rung in self.rungs)

    def describe(self) -> list[str]:
        """The plan as indented text lines (the ``describe`` CLI body)."""

        lines = [
            f"strategy:    {self.strategy} (seed {self.seed}"
            + (f", budget {self.budget}" if self.budget is not None else "")
            + ")",
            f"selected:    {len(self.selected)} candidate(s)"
            + (f" ({self.dropped} dropped by the budget)" if self.dropped else ""),
        ]
        lines.extend(f"  {rung.describe()}" for rung in self.rungs)
        lines.append(f"evaluations: {self.total_evaluations}")
        return lines


def candidate_order(count: int, strategy: str, seed: int = 0) -> list[int]:
    """The deterministic evaluation order over candidate indices.

    ``grid`` keeps declaration order; ``random`` and ``halving`` shuffle
    with a :class:`random.Random` seeded by ``seed``, so identical seeds
    always reproduce identical candidate sequences.
    """

    order = list(range(count))
    if strategy != "grid":
        random.Random(seed).shuffle(order)
    return order


def _halving_sizes(start: int, eta: int, confirm: int) -> list[int]:
    """Entrant counts per rung, screening until ``confirm`` or fewer remain."""

    sizes = [start]
    while sizes[-1] > confirm:
        sizes.append(max(confirm, math.ceil(sizes[-1] / eta)))
    return sizes


def plan_search(
    count: int,
    strategy: str = "halving",
    budget: int | None = None,
    seed: int = 0,
    eta: int = DEFAULT_ETA,
    screen_accesses: int = DEFAULT_SCREEN_ACCESSES,
    confirm: int = DEFAULT_CONFIRM,
) -> SearchPlan:
    """Compile a strategy against ``count`` candidates into a :class:`SearchPlan`.

    ``budget`` caps the total number of candidate evaluations (rung
    entrants summed); plans never exceed it — the selection shrinks
    instead, dropping the tail of the seeded order.  ``grid`` and
    ``random`` evaluate every selected candidate once on the full trace;
    ``halving`` screens the selection on sampled prefix windows whose
    length grows by ``eta`` each rung (starting at ``screen_accesses``),
    keeps the best ``1/eta`` per rung, and promotes the last ``confirm``
    (or fewer) survivors to a full-trace confirmation rung.
    """

    if strategy not in STRATEGIES:
        raise ValueError(
            f"unknown strategy {strategy!r}; available: {list(STRATEGIES)}"
        )
    if count < 1:
        raise ValueError("the search space has no candidates")
    if budget is not None and budget < 1:
        raise ValueError(f"--budget must be at least 1, got {budget}")
    if eta < 2:
        raise ValueError(f"--eta must be at least 2, got {eta}")
    if confirm < 1:
        raise ValueError(f"--confirm must be at least 1, got {confirm}")
    if screen_accesses < 1:
        raise ValueError(
            f"--screen-accesses must be at least 1, got {screen_accesses}"
        )
    order = candidate_order(count, strategy, seed)

    if strategy in ("grid", "random"):
        keep = count if budget is None else min(budget, count)
        return SearchPlan(
            strategy=strategy,
            seed=seed,
            budget=budget,
            selected=tuple(order[:keep]),
            rungs=(Rung(index=0, entrants=keep, survivors=keep, accesses=None),),
            dropped=count - keep,
        )

    start = count
    if budget is not None:
        while start > 1 and sum(_halving_sizes(start, eta, confirm)) > budget:
            start -= 1
    sizes = _halving_sizes(start, eta, confirm)
    rungs = []
    for index, entrants in enumerate(sizes):
        last = index == len(sizes) - 1
        rungs.append(
            Rung(
                index=index,
                entrants=entrants,
                survivors=entrants if last else sizes[index + 1],
                accesses=None if last else screen_accesses * eta**index,
            )
        )
    return SearchPlan(
        strategy=strategy,
        seed=seed,
        budget=budget,
        selected=tuple(order[:start]),
        rungs=tuple(rungs),
        dropped=count - start,
    )


# ---------------------------------------------------------------------------
# Evaluations and the Pareto front
# ---------------------------------------------------------------------------
@dataclass
class Evaluation:
    """One candidate scored at one rung: metrics, score, spec provenance."""

    candidate: Candidate
    rung: int
    #: the rung's nominal screen length (``None`` = full trace).
    accesses: int | None
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
            "rung": self.rung,
            "accesses": self.accesses,
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
# The explorer: rung evaluation through the scheduler + store
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
    #: the best full-trace evaluation by the objective.
    confirmed_top: Evaluation | None
    #: the first screen rung's best candidate (``None`` without screens).
    screen_top: Candidate | None
    #: store activity during this search: replayed (hits) vs executed (puts).
    store_replayed: int | None
    store_executed: int | None
    directory: Path

    @property
    def screen_confirms(self) -> bool | None:
        """Whether the screen's top pick also won full confirmation."""

        if self.screen_top is None or self.confirmed_top is None:
            return None
        return self.screen_top == self.confirmed_top.candidate

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
            "confirmed_top": (
                self.confirmed_top.as_dict() if self.confirmed_top else None
            ),
            "screen_top": self.screen_top.as_dict() if self.screen_top else None,
            "screen_confirms": self.screen_confirms,
        }


def _atomic_write_text(path: Path, text: str) -> None:
    """Write a file atomically (tmp + rename), creating parents."""

    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    tmp.replace(path)


def _slug(workload: str) -> str:
    """A filesystem-safe stem for a workload's screen files."""

    stem = workload.split(":", 1)[-1]
    return "".join(ch if ch.isalnum() or ch in "._-" else "_" for ch in stem)


@dataclass
class Explorer:
    """Evaluates candidates of one :class:`SearchSpace` through the store.

    Execution policy mirrors :class:`~repro.experiments.runner.
    ExperimentRunner`: an optional persistent store (``use_cache=False``
    disables it) and ``jobs`` worker processes.
    ``trace_overrides`` applies to the source workloads (screen windows are
    carved from the overridden stream).

    Screen traces are written under ``<directory>/screens/`` and that
    directory joins the trace search path for the explorer's lifetime —
    use the explorer as a context manager (or :func:`run_search`, which
    does) to unregister it afterwards.
    """

    space: SearchSpace
    directory: Path = Path(DEFAULT_SEARCH_DIR)
    objective: str = "coverage"
    warmup_fraction: float = 0.4
    trace_overrides: dict = field(default_factory=dict)
    screen_accesses: int = DEFAULT_SCREEN_ACCESSES
    eta: int = DEFAULT_ETA
    confirm: int = DEFAULT_CONFIRM
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
        self._sources: dict[str, object] = {}
        self._screens: dict[tuple[str, int], str] = {}
        self._screens_registered = False

    # -- context management --------------------------------------------------
    def __enter__(self) -> "Explorer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Unregister the screens directory from the trace search path."""

        if self._screens_registered:
            from repro.workloads.registry import remove_trace_directory

            remove_trace_directory(self.directory / SCREENS_DIRNAME)
            self._screens_registered = False

    # -- execution plumbing --------------------------------------------------
    def _store(self) -> ResultStore | None:
        if not self.use_cache:
            return None
        return self.store if self.store is not None else default_store()

    def _source(self, workload: str):
        """The packed source stream of one workload (memoised per explorer)."""

        from repro.experiments.jobs import trace_for_workload
        from repro.traces.format import pack_trace

        packed = self._sources.get(workload)
        if packed is None:
            packed = pack_trace(
                trace_for_workload(workload, self.trace_overrides), name=workload
            )
            self._sources[workload] = packed
        return packed

    def _screen_workload(self, workload: str, accesses: int) -> tuple[str, dict]:
        """The (workload name, trace overrides) evaluating one screen cell.

        Materialises the first ``accesses`` of the source as an on-disk
        ``.rtrc`` prefix window (idempotent: :func:`~repro.traces.format.
        save_trace` writes deterministic bytes, so a resume re-saves the
        identical file and every spec digest — hence store key — is
        stable).  A screen at least as long as the source replays the
        source workload itself, so saturated screens share the full run's
        store entries instead of duplicating them.
        """

        source = self._source(workload)
        if accesses >= len(source):
            return workload, dict(self.trace_overrides)
        key = (workload, accesses)
        name = self._screens.get(key)
        if name is None:
            from repro.traces.format import save_trace
            from repro.traces.samplers import sample_prefix
            from repro.workloads.registry import TRACE_PREFIX, add_trace_directory

            screens_dir = self.directory / SCREENS_DIRNAME
            stem = f"{_slug(workload)}__screen{accesses}"
            window = sample_prefix(source, accesses, name=stem)
            save_trace(window, screens_dir / f"{stem}.rtrc")
            add_trace_directory(screens_dir)
            self._screens_registered = True
            name = f"{TRACE_PREFIX}{stem}"
            self._screens[key] = name
        return name, {}

    def _spec(self, configuration: str, workload: str, overrides: Mapping,
              scale: float, params: Mapping | None) -> RunSpec:
        """One canonical spec of this search."""

        return RunSpec.create(
            workload=workload,
            configuration=configuration,
            system=system_for(self.space.system, scale),
            trace_overrides=overrides,
            warmup_fraction=self.warmup_fraction,
            config_params=params,
        )

    # -- evaluation ----------------------------------------------------------
    def evaluate(
        self,
        candidates: Sequence[Candidate],
        rung_index: int = 0,
        accesses: int | None = None,
    ) -> list[Evaluation]:
        """Score candidates at one rung through a single deduplicated batch.

        ``accesses=None`` evaluates the full (possibly overridden) traces;
        an integer screens on that prefix window.  Every candidate cell
        and its per-(workload, scale) baseline run goes into one
        :meth:`~repro.service.scheduler.Scheduler.run` call, so the store
        is consulted once, ``jobs`` parallelises across candidates,
        workloads and baselines alike, and warm cells replay instead of
        re-executing.
        """

        cells: list[tuple[str, str, dict]] = []
        for workload in self.space.workloads:
            if accesses is None:
                cells.append((workload, workload, dict(self.trace_overrides)))
            else:
                name, overrides = self._screen_workload(workload, accesses)
                cells.append((workload, name, overrides))

        candidate_specs: dict[tuple[Candidate, str], RunSpec] = {}
        baseline_specs: dict[tuple[float, str], RunSpec] = {}
        for candidate in candidates:
            for workload, name, overrides in cells:
                candidate_specs[(candidate, workload)] = self._spec(
                    candidate.configuration, name, overrides, candidate.scale,
                    candidate.params_dict() or None,
                )
                key = (candidate.scale, workload)
                if key not in baseline_specs:
                    baseline_specs[key] = self._spec(
                        self.space.baseline, name, overrides, candidate.scale, None
                    )
        batch = list(candidate_specs.values()) + list(baseline_specs.values())
        with Scheduler(store=self._store(), jobs=self.jobs) as scheduler:
            results = scheduler.run(batch)

        evaluations = []
        for candidate in candidates:
            per_workload: dict[str, dict] = {}
            digests: dict[str, str] = {}
            baseline_digests: dict[str, str] = {}
            for workload, _, _ in cells:
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
                    rung=rung_index,
                    accesses=accesses,
                    score=metrics[self.objective],
                    metrics=metrics,
                    per_workload=per_workload,
                    spec_digests=digests,
                    baseline_digests=baseline_digests,
                )
            )
        return evaluations

    # -- the search loop -----------------------------------------------------
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
            "eta": self.eta,
            "confirm": self.confirm,
            "screen_accesses": self.screen_accesses,
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
        strategy: str = "halving",
        budget: int | None = None,
        seed: int = 0,
    ) -> SearchResult:
        """Run one search end to end and write its artifacts.

        Writes ``search.json`` up front (so a killed search can resume),
        appends a ``log.jsonl`` record per evaluation as rungs complete,
        and finishes with the deterministic ``front.json``.  Against a
        warm store the whole search replays without executing a single
        simulation — that *is* the resume path (:func:`resume_search`).
        """

        candidates = self.space.candidates()
        plan = plan_search(
            len(candidates),
            strategy=strategy,
            budget=budget,
            seed=seed,
            eta=self.eta,
            screen_accesses=self.screen_accesses,
            confirm=self.confirm,
        )
        _atomic_write_text(
            self.directory / MANIFEST_FILENAME,
            json.dumps(self._manifest(strategy, budget, seed), indent=2, sort_keys=True)
            + "\n",
        )
        store = self._store()
        hits0, puts0 = (store.hits, store.puts) if store is not None else (0, 0)

        try:
            active = [candidates[index] for index in plan.selected]
            evaluations: list[Evaluation] = []
            screen_top: Candidate | None = None
            for rung in plan.rungs:
                entrants = active[: rung.entrants]
                rung_evaluations = self.evaluate(
                    entrants, rung_index=rung.index, accesses=rung.accesses
                )
                ranked = _ranked(rung_evaluations, self.objective)
                survivors = {
                    id(evaluation)
                    for evaluation in ranked[: rung.survivors]
                }
                for evaluation in rung_evaluations:
                    record = evaluation.as_dict()
                    record.update(
                        strategy=strategy,
                        seed=seed,
                        objective=self.objective,
                        promoted=id(evaluation) in survivors,
                    )
                    self._log(record)
                evaluations.extend(rung_evaluations)
                if screen_top is None and rung.accesses is not None:
                    screen_top = ranked[0].candidate
                active = [
                    evaluation.candidate for evaluation in ranked[: rung.survivors]
                ]

            final = [
                evaluation for evaluation in evaluations if evaluation.accesses is None
            ]
            front = pareto_front(final)
            confirmed_top = _ranked(final, self.objective)[0] if final else None
            store = self._store()
            result = SearchResult(
                strategy=strategy,
                seed=seed,
                budget=budget,
                objective=self.objective,
                plan=plan,
                candidates=candidates,
                evaluations=evaluations,
                front=front,
                confirmed_top=confirmed_top,
                screen_top=screen_top,
                store_replayed=store.hits - hits0 if store is not None else None,
                store_executed=store.puts - puts0 if store is not None else None,
                directory=self.directory,
            )
            _atomic_write_text(
                self.directory / FRONT_FILENAME,
                json.dumps(result.front_payload(), indent=2, sort_keys=True) + "\n",
            )
            return result
        finally:
            self.close()

    def describe(
        self,
        strategy: str = "halving",
        budget: int | None = None,
        seed: int = 0,
    ) -> str:
        """The search's axes and compiled plan, without simulating anything."""

        candidates = self.space.candidates()
        plan = plan_search(
            len(candidates),
            strategy=strategy,
            budget=budget,
            seed=seed,
            eta=self.eta,
            screen_accesses=self.screen_accesses,
            confirm=self.confirm,
        )
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
    strategy: str = "halving",
    budget: int | None = None,
    seed: int = 0,
    directory: str | Path = DEFAULT_SEARCH_DIR,
    **options,
) -> SearchResult:
    """Run one search (see :meth:`Explorer.run`); ``options`` configure it."""

    with Explorer(space=space, directory=Path(directory), **options) as explorer:
        return explorer.run(strategy=strategy, budget=budget, seed=seed)


def describe_search(
    space: SearchSpace,
    strategy: str = "halving",
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

    The manifest replays the identical space, strategy, seed, budget and
    screen parameters; because every evaluated point is a content-hashed
    spec in the store (screen windows re-save byte-identically, so their
    digests are stable), everything the killed search completed is served
    from the store and **zero** specs re-execute.  ``options`` override
    only execution policy (store, jobs) — never the search itself.
    """

    manifest = load_manifest(directory)
    space = SearchSpace.from_dict(manifest["space"])
    explorer = Explorer(
        space=space,
        directory=Path(directory),
        objective=manifest["objective"],
        warmup_fraction=manifest["warmup_fraction"],
        trace_overrides=dict(manifest.get("trace_overrides") or {}),
        screen_accesses=manifest["screen_accesses"],
        eta=manifest["eta"],
        confirm=manifest["confirm"],
        **options,
    )
    with explorer:
        return explorer.run(
            strategy=manifest["strategy"],
            budget=manifest["budget"],
            seed=manifest["seed"],
        )


def render_search(result: SearchResult) -> str:
    """The text report of one finished search (the CLI output)."""

    plan = result.plan
    ladder = " -> ".join(
        f"[{rung.entrants} @ "
        + ("full" if rung.accesses is None else str(rung.accesses))
        + "]"
        for rung in plan.rungs
    )
    lines = [
        f"explore: {result.strategy} search over {len(plan.selected)} of "
        f"{len(result.candidates)} candidate(s), seed {result.seed}, "
        f"objective {result.objective}",
        f"rungs: {ladder}",
    ]
    if result.store_replayed is not None:
        lines.append(
            f"simulations: {result.store_replayed} replayed from store, "
            f"{result.store_executed} executed"
        )
    else:
        lines.append("store: disabled (--no-cache)")
    if result.screen_top is not None:
        lines.append(f"screen top pick:  {result.screen_top.label()}")
    if result.confirmed_top is not None:
        verdict = ""
        if result.screen_confirms is not None:
            verdict = (
                "  (screen pick confirmed)"
                if result.screen_confirms
                else "  (screen pick NOT confirmed)"
            )
        lines.append(f"confirmed top:    {result.confirmed_top.candidate.label()}{verdict}")
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
