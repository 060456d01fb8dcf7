"""Compiling HTTP job payloads into spec batches plus a reduce step.

``POST /jobs`` bodies are JSON dictionaries with a ``kind`` discriminator.
:func:`compile_request` validates one and returns a :class:`CompiledRequest`
holding

* the deduplicated list of specs the scheduler should resolve,
* a ``finalize`` callable that reduces the job's resolved results into the
  JSON payload ``GET /jobs/<id>/result`` returns, and
* the normalised request echoed into the job's manifest.

Four request kinds mirror the CLI's simulating surfaces:

``run``
    One workload under one or more configurations (``repro run``): each
    configuration compiles to a :class:`~repro.experiments.jobs.RunSpec`;
    the result maps configuration → raw statistics payload.
``multiprogram``
    One workload tuple under one configuration (figure 16's shape): a
    single :class:`~repro.experiments.jobs.MultiProgramSpec`.
``study``
    A registered study by name with the same axis overrides the CLI takes
    (``workloads``/``configs``/``set``); compiles to the unique specs of
    :meth:`~repro.experiments.study.Study.cells`, and its finalize reduces
    the job's own results (:meth:`~repro.experiments.study.Study.reduce`)
    to the rendered figure table.
``spec``
    Canonical spec dictionaries verbatim (the manifest's own ``spec``
    entries, with the ``systems`` table their keys name) — the round-trip
    path: a manifest fetched from one daemon can be resubmitted to another
    and deduped against its store.

An ``explore`` kind compiles a design-space search *description* (the
``repro explore describe`` plan — candidates, strategy, budget) without
simulating: it carries no specs, so the job completes instantly.

A daemon compiles each distinct ``study`` request once: a
:class:`PlanCache` keeps the compiled specs and finalize of recent study
requests, so a repeated request reuses spec instances whose digests are
already computed (see :class:`PlanCache`).

Every validation problem raises ``ValueError`` with a one-line,
user-renderable message naming the field; the HTTP layer maps those to
``400`` responses, exactly as the CLI maps them to exit code 2.
"""

from __future__ import annotations

import json
import sys
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Mapping, TYPE_CHECKING

from repro.experiments.jobs import _trace_digests
from repro.experiments.runner import ExperimentRunner
from repro.experiments.store import Spec, result_to_record
from repro.experiments.studies import STUDIES
from repro.service.scheduler import FINISHED_JOB_LIMIT
from repro.sim.config import SystemConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.scheduler import Job

#: Request kinds :func:`compile_request` understands.
REQUEST_KINDS = ("run", "multiprogram", "study", "spec", "explore")


@dataclass
class CompiledRequest:
    """A validated job request: specs to resolve + how to reduce them."""

    kind: str
    label: str
    specs: list = field(default_factory=list)
    request: dict = field(default_factory=dict)
    #: reduces the completed job's results to the JSON result payload; runs
    #: once, after every spec resolved, outside the scheduler lock.
    finalize: Callable[["Job"], dict] | None = None
    #: the job's scheduling priority (higher dispatches first).
    priority: int = 0


def _require(payload: Mapping, key: str, kind: str) -> object:
    value = payload.get(key)
    if value is None:
        raise ValueError(f"{kind!r} request requires a {key!r} field")
    return value


def _names(value, field_name: str) -> list[str]:
    """A non-empty list of names from a JSON list (or comma string)."""

    if isinstance(value, str):
        value = [part.strip() for part in value.split(",") if part.strip()]
    if not isinstance(value, list) or not value:
        raise ValueError(f"{field_name}: expected a non-empty list of names")
    bad = [item for item in value if not isinstance(item, str)]
    if bad:
        raise ValueError(f"{field_name}: names must be strings, got {bad}")
    return value


def _integer(payload: Mapping, key: str, default: int) -> int:
    """An integer field (a JSON bool is not one), ``default`` when absent."""

    value = payload.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return value


def _positive_int(payload: Mapping, key: str) -> int | None:
    """A positive integer field (a JSON bool is not one), or ``None`` if null."""

    value = payload.get(key)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int) or value <= 0:
        raise ValueError(f"{key} must be a positive integer or null, got {value!r}")
    return value


def _scale(payload: Mapping) -> float:
    """The system scale: a positive, finite real number, 1.0 when absent."""

    value = payload.get("scale", 1.0)
    real = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not real or not 0 < value <= sys.float_info.max:
        raise ValueError(f"scale must be a positive number, got {value!r}")
    return float(value)


def _config_params(payload: Mapping) -> dict | None:
    """The call-time configuration parameters: a mapping, or null."""

    value = payload.get("config_params")
    if value is not None and not isinstance(value, Mapping):
        raise ValueError(
            f"config_params must be a mapping of parameter names to values or "
            f"null, got {value!r}"
        )
    return dict(value) if value else None


def _warmup_fraction(payload: Mapping) -> float:
    """The warm-up fraction: a real number in [0, 1), 0.4 when absent."""

    value = payload.get("warmup_fraction", 0.4)
    real = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not real or not 0 <= value < 1:
        raise ValueError(f"warmup_fraction must be a number in [0, 1), got {value!r}")
    return float(value)


def _share_metadata(payload: Mapping) -> bool:
    """The multiprogram metadata-sharing flag: a JSON boolean, true when absent."""

    value = payload.get("share_metadata", True)
    if not isinstance(value, bool):
        raise ValueError(f"share_metadata must be true or false, got {value!r}")
    return value


def _trace_overrides(payload: Mapping) -> dict:
    """Trace-generation overrides from a request (same rule as the CLI)."""

    length = _positive_int(payload, "trace_length")
    return {} if length is None else {"length": length}


def _runner_for(payload: Mapping) -> ExperimentRunner:
    """The runner a ``run``/``multiprogram`` request's specs compile under."""

    return ExperimentRunner(
        system=SystemConfig.scaled(_scale(payload)),
        max_accesses=_positive_int(payload, "max_accesses"),
        trace_overrides=_trace_overrides(payload),
        warmup_fraction=_warmup_fraction(payload),
    )


def _assignments(payload: Mapping) -> dict[str, str]:
    """The ``set`` overrides as the raw strings the study layer coerces.

    JSON clients naturally send typed values (``{"scale": 0.5}``); the
    study override machinery applies its own per-axis coercion to strings,
    so everything is stringified first — ``None`` spelling the CLI's
    ``"none"``.
    """

    assignments = payload.get("set") or {}
    if not isinstance(assignments, Mapping):
        raise ValueError("'set' must be a mapping of axis/parameter overrides")
    return {
        str(key): "none" if value is None else str(value)
        for key, value in assignments.items()
    }


# -- per-kind compilers -------------------------------------------------------
def _compile_run(payload: Mapping) -> CompiledRequest:
    from repro.experiments.store import stats_to_payload

    workload = _require(payload, "workload", "run")
    if not isinstance(workload, str) or not workload:
        raise ValueError(f"workload must be a workload name, got {workload!r}")
    configurations = _names(
        payload.get("configurations") or ["triage", "triangel"], "configurations"
    )
    runner = _runner_for(payload)
    params = _config_params(payload)
    from repro.experiments.configs import CONFIGS

    system = runner.frozen_system()
    cells = [
        (
            configuration,
            runner.spec_for(
                workload,
                configuration,
                params if CONFIGS.takes_params(configuration) else None,
                system,
            ),
        )
        for configuration in configurations
    ]

    def finalize(job: "Job") -> dict:
        return {
            "workload": workload,
            "results": {
                configuration: stats_to_payload(job.results[spec])
                for configuration, spec in cells
            },
        }

    return CompiledRequest(
        kind="run",
        label=f"run {workload} × {len(cells)} configuration(s)",
        specs=[spec for _, spec in cells],
        request=dict(payload),
        finalize=finalize,
    )


def _compile_multiprogram(payload: Mapping) -> CompiledRequest:
    workloads = _names(_require(payload, "workloads", "multiprogram"), "workloads")
    configuration = _require(payload, "configuration", "multiprogram")
    runner = _runner_for(payload)
    spec = runner.multiprogram_spec_for(
        workloads,
        configuration,
        _positive_int(payload, "max_accesses_per_core"),
        share_metadata=_share_metadata(payload),
        config_params=_config_params(payload),
    )

    def finalize(job: "Job") -> dict:
        return {"result": job.results[spec].as_payload()}

    return CompiledRequest(
        kind="multiprogram",
        label=f"multiprogram {' + '.join(workloads)} × {configuration}",
        specs=[spec],
        request=dict(payload),
        finalize=finalize,
    )


def _compile_study(payload: Mapping) -> CompiledRequest:
    name = _require(payload, "name", "study")
    study = STUDIES.get(name).overridden(
        workloads=_names(payload["workloads"], "workloads")
        if payload.get("workloads") is not None
        else None,
        configurations=_names(payload["configs"], "configs")
        if payload.get("configs") is not None
        else None,
        assignments=_assignments(payload),
    )
    max_accesses = _positive_int(payload, "max_accesses")
    if study.pairs and max_accesses is not None:
        # Same rule as the CLI: multiprogram specs cap per-core accesses.
        raise ValueError(
            f"study {name!r} runs multiprogrammed; max_accesses does not "
            f"apply — use set.max_accesses_per_core"
        )
    runner = study.make_runner(
        max_accesses=max_accesses,
        trace_overrides=_trace_overrides(payload),
    )
    cells = study.cells(runner)
    specs = list(dict.fromkeys(cells.values()))

    def finalize(job: "Job") -> dict:
        # The job holds every cell's result: reduce them directly.
        result = study.reduce(cells, job.results)
        return {
            "figure": result.figure,
            "title": result.title,
            "table": result.table,
            "columns": result.columns,
            "rendered": result.rendered,
            "notes": result.notes,
        }

    return CompiledRequest(
        kind="study",
        label=f"study {name} ({len(specs)} spec(s))",
        specs=specs,
        request=dict(payload),
        finalize=finalize,
    )


def _compile_spec(payload: Mapping) -> CompiledRequest:
    from repro.service.manifest import frozen_systems, spec_from_payload

    entries = payload.get("specs")
    if not isinstance(entries, list) or not entries:
        raise ValueError("'spec' request requires a non-empty 'specs' list")
    systems = frozen_systems(payload.get("systems"))
    specs: list[Spec] = []
    for position, entry in enumerate(entries):
        if not isinstance(entry, Mapping):
            raise ValueError(f"specs[{position}]: expected a spec dictionary")
        # Accept both bare canonical forms and manifest entries ({digest,
        # kind, spec}) so a fetched manifest resubmits verbatim.
        data = entry.get("spec", entry)
        try:
            specs.append(spec_from_payload(data, systems))
        except (KeyError, TypeError, ValueError) as error:
            raise ValueError(f"specs[{position}] does not parse: {error}") from None

    def finalize(job: "Job") -> dict:
        results = {}
        for spec in job.specs:
            kind, result_payload = result_to_record(job.results[spec])
            results[spec.content_hash()] = {"kind": kind, "result": result_payload}
        return {"results": results}

    return CompiledRequest(
        kind="spec",
        label=f"spec batch ({len(specs)} spec(s))",
        specs=specs,
        request=dict(payload),
        finalize=finalize,
    )


def _compile_explore(payload: Mapping) -> CompiledRequest:
    from repro.experiments import explore

    space = explore.overridden_space(
        workloads=_names(payload["workloads"], "workloads")
        if payload.get("workloads") is not None
        else None,
        configurations=_names(payload["configs"], "configs")
        if payload.get("configs") is not None
        else None,
        assignments=_assignments(payload),
    )
    description = explore.describe_search(
        space,
        strategy=payload.get("strategy", "grid"),
        budget=_positive_int(payload, "budget"),
        seed=_integer(payload, "seed", 0),
        objective=payload.get("objective", "coverage"),
        trace_overrides=_trace_overrides(payload),
    )

    return CompiledRequest(
        kind="explore",
        label=f"explore describe ({payload.get('strategy', 'grid')})",
        specs=[],
        request=dict(payload),
        finalize=lambda job: {"description": description},
    )


_COMPILERS = {
    "run": _compile_run,
    "multiprogram": _compile_multiprogram,
    "study": _compile_study,
    "spec": _compile_spec,
    "explore": _compile_explore,
}


def compile_request(payload: Mapping) -> CompiledRequest:
    """Validate one job payload and compile it (see module docs).

    Raises ``ValueError`` for anything malformed — unknown kind, missing or
    mistyped fields, axis overrides the named study rejects.  ``priority``,
    which every kind takes, must be an integer (0 when absent).
    """

    if not isinstance(payload, Mapping):
        raise ValueError("job request must be a JSON object")
    kind = payload.get("kind")
    compiler = _COMPILERS.get(kind)
    if compiler is None:
        raise ValueError(
            f"unknown request kind {kind!r}; expected one of {list(_COMPILERS)}"
        )
    priority = _integer(payload, "priority", 0)
    compiled = compiler(payload)
    compiled.priority = priority
    return compiled


@dataclass(frozen=True)
class _Plan:
    """The reusable parts of one compiled ``study`` request."""

    kind: str
    label: str
    specs: tuple
    finalize: Callable[["Job"], dict] | None
    #: workload -> content digest of every ``trace:`` file the specs replay.
    traces: Mapping[str, str]

    def current(self) -> bool:
        """Whether every trace file still holds the bytes the specs digested."""

        if not self.traces:
            return True
        try:
            return _trace_digests(list(self.traces)) == self.traces
        except (OSError, ValueError):  # the file is gone: recompile to report it
            return False


class PlanCache:
    """Compiled ``study`` requests, so each distinct one compiles once.

    Keyed by the request's canonical JSON (sorted keys, compact
    separators), so key order does not matter but every value does.  A hit
    builds a fresh :class:`CompiledRequest` around the plan's kind, label,
    specs and finalize, with this request's own ``request`` and
    ``priority``: the job reuses spec instances whose digest and ``hash()``
    are already computed, and no study, runner or spec is made.  A plan
    over ``trace:`` workloads is reused only while each file's digest (a
    ``stat`` through the digest memo) is unchanged; otherwise the request
    compiles afresh.  A compile that raises is never kept, and a
    code-version change needs nothing, because each spec re-keys its own
    digest.  Other request kinds always compile.

    At most :data:`~repro.service.scheduler.FINISHED_JOB_LIMIT` plans are
    kept (the least recently used goes first), so a long-running daemon's
    memory does not grow with the requests it has served.  Handler threads
    share one cache under its lock; two threads that miss on the same
    request both compile, and the later plan is kept.
    """

    def __init__(self) -> None:
        self.limit = FINISHED_JOB_LIMIT
        self.hits = 0
        self.misses = 0
        self._plans: OrderedDict[str, _Plan] = OrderedDict()
        self._lock = threading.Lock()

    def compile(
        self, payload: Mapping, compiler: Callable[[Mapping], CompiledRequest]
    ) -> CompiledRequest:
        """``compiler(payload)``, or the kept plan of an identical study request.

        The daemon passes :func:`compile_request`, looked up when it handles
        the request, so a substitute installed on the server module is used.
        """

        if payload.get("kind") != "study":
            return compiler(payload)
        key = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self._plans.move_to_end(key)
        if plan is not None and plan.current():
            with self._lock:
                self.hits += 1
            return CompiledRequest(
                kind=plan.kind,
                label=plan.label,
                specs=list(plan.specs),
                request=dict(payload),
                finalize=plan.finalize,
                priority=_integer(payload, "priority", 0),
            )
        with self._lock:
            self.misses += 1
            if plan is not None and self._plans.get(key) is plan:
                del self._plans[key]  # its trace files changed
        compiled = compiler(payload)
        plan = _Plan(
            kind=compiled.kind,
            label=compiled.label,
            specs=tuple(compiled.specs),
            finalize=compiled.finalize,
            traces=dict(pair for spec in compiled.specs for pair in spec.trace_digests),
        )
        with self._lock:
            self._plans[key] = plan
            self._plans.move_to_end(key)
            while len(self._plans) > self.limit:
                self._plans.popitem(last=False)
        return compiled

    def stats(self) -> dict:
        """JSON-safe counters (the ``plans`` object of ``/healthz``)."""

        with self._lock:
            return {
                "size": len(self._plans),
                "limit": self.limit,
                "hits": self.hits,
                "misses": self.misses,
            }
