"""Immutable run specifications: the unit of work of the experiment layer.

Two spec types cover every simulation in the repository:

* a :class:`RunSpec` fully describes one single-core simulation — workload,
  configuration name, call-time configuration parameters, the complete
  system parameters, trace overrides, warm-up fraction and access cap;
* a :class:`MultiProgramSpec` describes one multiprogrammed run — the
  per-core workloads, the configuration every core runs, and the
  metadata-sharing flag — over the same system/trace/warm-up fields.

Both are frozen, hashable values.  They replace the ad-hoc tuple keys the
runner used to build for its module-global caches, and they are the only
thing that crosses a process boundary when runs execute in parallel: a
worker rebuilds the trace, hierarchy and prefetcher stack from the spec, so
nothing unpicklable (caches, simulators, factories) ever has to.  The
:func:`execute` dispatcher turns either spec kind into its result.

Each spec's ``content_hash`` keys the persistent result store
(:mod:`repro.experiments.store`).  It hashes the canonical JSON form of
every field (including a ``kind`` discriminator, so the two spec types can
never collide) plus a code-version salt derived from the simulator sources,
so results cached by one version of the code are never replayed by another.
Each instance computes its digest once and keeps it beside the code version
it was salted with, so asking again is a lookup.  Specs made together (a
study's cells) share one frozen system tree, and :func:`tree_json` encodes
that tree once for all of them.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, fields
from functools import cache
from pathlib import Path

from repro.sim.config import SystemConfig, TimingParams
from repro.memory.hierarchy import HierarchyParams
from repro.sim.stats import SimulationStats

#: Bump to force-invalidate every persisted result regardless of source hash.
SPEC_SCHEMA_VERSION = 1

#: Package subtrees whose sources determine simulation results.  Anything
#: else (CLI, reports, rendering) can change without invalidating the store.
_SIMULATION_SOURCES = (
    "core",
    "memory",
    "prefetch",
    "sim",
    "triage",
    # the trace I/O layer decodes on-disk access streams, so its code
    # determines what ``trace:`` workloads replay.
    "traces",
    "utils",
    "workloads",
    "experiments/configs.py",
    # this module: it computes the warm-up length and drives the simulator.
    "experiments/jobs.py",
)

_code_version_cache: str | None = None


def code_version() -> str:
    """A digest of every source file that can affect simulation results.

    Used as a salt in :meth:`RunSpec.content_hash` so that persisted results
    are automatically invalidated whenever the simulator changes, without
    anyone having to remember to bump a version constant.
    """

    global _code_version_cache
    if _code_version_cache is None:
        package_root = Path(__file__).resolve().parent.parent
        digest = hashlib.sha256(f"schema={SPEC_SCHEMA_VERSION}".encode())
        for entry in _SIMULATION_SOURCES:
            path = package_root / entry
            files = sorted(path.rglob("*.py")) if path.is_dir() else [path]
            for file in files:
                digest.update(str(file.relative_to(package_root)).encode())
                digest.update(file.read_bytes())
        _code_version_cache = digest.hexdigest()[:16]
    return _code_version_cache


#: Types :func:`_freeze` returns as they are, checked by exact type first.
_SCALAR_TYPES = frozenset((int, float, str, bool, type(None)))


@cache
def _sorted_field_names(cls: type) -> tuple[str, ...]:
    return tuple(sorted(field.name for field in fields(cls)))


def _freeze(value):
    """Recursively convert mappings/sequences to sorted, hashable tuples.

    A dataclass instance (a :class:`SystemConfig` tree) freezes to the same
    tree as ``_freeze(asdict(value))`` — its fields as name-sorted
    ``(name, value)`` pairs — by walking the fields instead of deep-copying
    them into a dictionary first.
    """

    if type(value) in _SCALAR_TYPES:
        return value
    if isinstance(value, Mapping):
        return tuple(sorted((key, _freeze(item)) for key, item in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple([_freeze(item) for item in value])
    if hasattr(type(value), "__dataclass_fields__"):
        names = _sorted_field_names(type(value))
        return tuple([(name, _freeze(getattr(value, name))) for name in names])
    return value


def _thaw(value):
    """Inverse of :func:`_freeze` for key/value trees."""

    if isinstance(value, tuple):
        if all(isinstance(item, tuple) and len(item) == 2 and isinstance(item[0], str) for item in value):
            return {key: _thaw(item) for key, item in value}
        return [_thaw(item) for item in value]
    return value


def _canonical_json(value) -> str:
    """The compact, key-sorted JSON that content hashes are taken over."""

    return json.dumps(value, sort_keys=True, separators=(",", ":"))


#: id(tree) -> (tree, canonical JSON) for recently encoded frozen trees.  Each
#: entry holds its tree, so the id cannot be reused while the entry lives.
_TREE_JSON: dict[int, tuple[tuple, str]] = {}
_TREE_JSON_LIMIT = 64


def tree_json(tree: tuple) -> str:
    """The canonical JSON of a frozen tree (``_canonical_json(_thaw(tree))``).

    Memoised by the tree's identity, never by equality: trees that differ
    only as ``25``/``25.0``, ``1``/``True`` or ``0.0``/``-0.0`` compare equal
    but encode differently, so an equality-keyed cache would make a digest
    depend on which tree the process happened to encode first.  The cache
    is emptied when full.  Threads share it without a lock: each entry is
    stored whole and always pairs a tree with its own JSON, so a race can
    at worst drop an entry or overshoot the limit briefly.
    """

    entry = _TREE_JSON.get(id(tree))
    if entry is not None and entry[0] is tree:
        return entry[1]
    text = _canonical_json(_thaw(tree))
    if len(_TREE_JSON) >= _TREE_JSON_LIMIT:
        _TREE_JSON.clear()
    _TREE_JSON[id(tree)] = (tree, text)
    return text


def _frozen_system(system: SystemConfig | tuple) -> tuple:
    """A system as the frozen tree specs carry (a frozen tree is kept as is)."""

    return system if isinstance(system, tuple) else _freeze(system)


def _trace_digests(workloads: Sequence[str]) -> dict[str, str]:
    """Content digests of every on-disk trace workload among ``workloads``.

    Generated workloads are fully described by their name and overrides, but
    a ``trace:`` workload's stream lives in a file — so its identity is the
    file's *content* digest (see
    :func:`repro.traces.format.trace_file_digest`).  Each spec captures the
    digests at *creation* time into its frozen ``trace_digests`` field, so
    a spec's content hash is immutable over its lifetime and hashing never
    touches the filesystem; the execute path re-digests and refuses to run
    if the file changed after the spec was compiled.  The persistent store
    therefore stays correct when a trace file is re-recorded or re-imported
    under the same name, while a mere rename or move never invalidates
    results.
    """

    digests: dict[str, str] = {}
    for workload in workloads:
        if workload.startswith("trace:") and workload not in digests:
            # Imported lazily: spec hashing must stay importable without the
            # trace layer, and most specs reference no trace files at all.
            from repro.traces.format import trace_file_digest
            from repro.workloads.registry import resolve_trace_path

            digests[workload] = trace_file_digest(resolve_trace_path(workload))
    return digests


class _SpecBase:
    """Behaviour shared by both spec kinds: reconstruction and identity."""

    # -- reconstruction -----------------------------------------------------
    def system_config(self) -> SystemConfig:
        """Rebuild the full :class:`SystemConfig` this spec was created from."""

        data = _thaw(self.system)
        hierarchy = HierarchyParams(**data.pop("hierarchy"))
        timing = TimingParams(**data.pop("timing"))
        return SystemConfig(hierarchy=hierarchy, timing=timing, **data)

    def trace_overrides_dict(self) -> dict:
        """The trace-generation overrides as a plain dictionary."""

        return _thaw(self.trace_overrides) or {}

    def config_params_dict(self) -> dict:
        """The call-time configuration parameters as a plain dictionary."""

        return _thaw(self.config_params) or {}

    def trace_digests_dict(self) -> dict:
        """The creation-time trace-file digests as a plain dictionary."""

        return _thaw(self.trace_digests) or {}

    def _verify_trace_digests(self, workloads: Sequence[str]) -> None:
        """Refuse to execute against trace files that changed after compile.

        The spec's hash — and hence the store key the result lands under —
        reflects the digests captured at creation; simulating the file's
        *current* bytes would persist a result under the wrong key.
        """

        current = _trace_digests(workloads)
        if self.trace_digests_dict() != current:
            raise ValueError(
                f"trace file(s) backing {sorted(current)} changed since this "
                f"spec was created; re-compile the study/spec to run against "
                f"the new contents"
            )

    # -- identity -----------------------------------------------------------
    def as_dict(self) -> dict:
        """JSON-serialisable canonical form (also stored alongside results).

        :meth:`canonical_fields` plus the thawed ``system`` tree.
        """

        return {**self.canonical_fields(), "system": _thaw(self.system)}

    def content_hash(self) -> str:
        """Hex digest keying the persistent store (salted by code version).

        The SHA-256 of ``code_version()``, ``|`` and the key-sorted compact
        JSON of :meth:`as_dict`.  That JSON is assembled from the encoded
        :meth:`canonical_fields` and the system tree's :func:`tree_json`, so
        specs sharing one tree encode it once.  The digest is computed once
        per instance and cached as a ``(code_version, digest)`` pair, so a
        code-version change re-keys the instance.  The cache is a plain
        instance attribute, not a dataclass field: it takes no part in
        equality, ``hash()``, ``repr`` or :func:`dataclasses.replace`, and it
        pickles with the spec.
        """

        version = code_version()
        cached = self.__dict__.get("_digest")
        if cached is not None and cached[0] == version:
            return cached[1]
        # Key-sorted JSON is "{" + the sorted "key":value items + "}", so the
        # fields sorting before and after "system" encode on either side.
        fields = self.canonical_fields()
        items = [
            _canonical_json({key: value for key, value in fields.items() if key < "system"})[1:-1],
            f'"system":{tree_json(self.system)}',
            _canonical_json({key: value for key, value in fields.items() if key > "system"})[1:-1],
        ]
        canonical = "{" + ",".join(item for item in items if item) + "}"
        digest = hashlib.sha256(f"{version}|{canonical}".encode()).hexdigest()
        object.__setattr__(self, "_digest", (version, digest))
        return digest

    def __hash__(self) -> int:
        """The hash of every field's value, computed once per instance.

        Equal specs hash equal, as under the generated dataclass hash, but
        the walk over the frozen system tree happens once, not on every
        dict or set operation.  Like the digest, the value is a plain
        instance attribute; unlike it, it is left out of pickles (see
        :meth:`__getstate__`), because string hashes are salted per process.
        """

        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash(
                tuple([getattr(self, name) for name in _sorted_field_names(type(self))])
            )
            object.__setattr__(self, "_hash", cached)
        return cached

    def __getstate__(self) -> dict:
        """The instance state to pickle, without the per-process hash."""

        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state


@dataclass(frozen=True)
class RunSpec(_SpecBase):
    """Everything needed to (re)run one (workload × configuration) cell.

    Instances are created through :meth:`RunSpec.create`, which canonicalises
    the mutable inputs (the system config becomes a frozen parameter tree,
    trace overrides and configuration parameters key-sorted tuples) so that
    equal simulations compare and hash equal no matter how their inputs were
    spelled.

    ``config_params`` carries the call-time parameters of a *parameterised*
    configuration (e.g. the replacement study's ``max_entries`` cap).  They
    are part of the spec's identity, so two variants of the same study can
    never collide in the store, and a worker process can rebuild the exact
    prefetcher stack from the spec alone (see
    :data:`repro.experiments.configs.CONFIGS`).
    """

    workload: str
    configuration: str
    system: tuple
    trace_overrides: tuple
    warmup_fraction: float = 0.4
    max_accesses: int | None = None
    config_params: tuple = ()
    #: (name, digest) pairs of any ``trace:`` file backing the workload,
    #: captured at creation time (empty for generated workloads).
    trace_digests: tuple = ()

    # Declared here, so the dataclass keeps it instead of generating one.
    __hash__ = _SpecBase.__hash__

    @classmethod
    def create(
        cls,
        workload: str,
        configuration: str,
        system: SystemConfig | tuple,
        trace_overrides: Mapping | None = None,
        warmup_fraction: float = 0.4,
        max_accesses: int | None = None,
        config_params: Mapping | None = None,
    ) -> "RunSpec":
        """Build a canonical spec from mutable inputs (see class docs).

        ``system`` is a :class:`SystemConfig` or the tree it freezes to; a
        batch of specs passes one tree, so they share it.
        """

        return cls(
            workload=workload,
            configuration=configuration,
            system=_frozen_system(system),
            trace_overrides=_freeze(dict(trace_overrides or {})),
            warmup_fraction=warmup_fraction,
            max_accesses=max_accesses,
            config_params=_freeze(dict(config_params or {})),
            trace_digests=_freeze(_trace_digests([workload])),
        )

    def canonical_fields(self) -> dict:
        """The canonical form of every field but ``system`` (see :meth:`as_dict`).

        For ``trace:`` workloads a ``trace_digests`` entry content-addresses
        the backing file, so the spec's hash — and hence the store key —
        changes exactly when the file's bytes do.  Specs over generated
        workloads carry no such entry and hash as they always have.
        """

        data = {
            "kind": "run",
            "workload": self.workload,
            "configuration": self.configuration,
            "config_params": self.config_params_dict(),
            "trace_overrides": self.trace_overrides_dict(),
            "warmup_fraction": self.warmup_fraction,
            "max_accesses": self.max_accesses,
        }
        digests = self.trace_digests_dict()
        if digests:
            data["trace_digests"] = digests
        return data


@dataclass(frozen=True)
class MultiProgramSpec(_SpecBase):
    """Everything needed to (re)run one multiprogrammed (pair × config) cell.

    ``workloads`` lists the per-core traces in core order (order matters:
    core 0's workload is not interchangeable with core 1's), all cores run
    the same named ``configuration``, and ``share_metadata`` records whether
    the cores' temporal prefetchers unify their Markov partition and sizing
    state (the paper's figure 16 setup; see
    :func:`repro.sim.multiprogram.share_temporal_metadata`).

    ``config_params`` carries the call-time parameters of a parameterised
    configuration — every core's stack is built from the same
    ``(configuration, config_params)`` pair, exactly as a
    :class:`RunSpec`'s is — so parameterised configurations (e.g. the
    replacement study's capped policies) run multiprogrammed and hash
    distinctly per variant.  Like :class:`RunSpec`, the
    ``max_accesses_per_core`` cap — figure 16's call-time parameter — is
    part of the hash, so truncated and full runs occupy distinct store
    entries.
    """

    workloads: tuple
    configuration: str
    system: tuple
    trace_overrides: tuple
    warmup_fraction: float = 0.4
    max_accesses_per_core: int | None = None
    share_metadata: bool = True
    config_params: tuple = ()
    #: (name, digest) pairs of any ``trace:`` files among the per-core
    #: workloads, captured at creation time (see :class:`RunSpec`).
    trace_digests: tuple = ()

    __hash__ = _SpecBase.__hash__

    @classmethod
    def create(
        cls,
        workloads: Sequence[str],
        configuration: str,
        system: SystemConfig | tuple,
        trace_overrides: Mapping | None = None,
        warmup_fraction: float = 0.4,
        max_accesses_per_core: int | None = None,
        share_metadata: bool = True,
        config_params: Mapping | None = None,
    ) -> "MultiProgramSpec":
        """Build a canonical multiprogram spec from mutable inputs.

        ``system`` may be an already-frozen tree, as for :meth:`RunSpec.create`.
        """

        return cls(
            workloads=tuple(workloads),
            configuration=configuration,
            system=_frozen_system(system),
            trace_overrides=_freeze(dict(trace_overrides or {})),
            warmup_fraction=warmup_fraction,
            max_accesses_per_core=max_accesses_per_core,
            share_metadata=share_metadata,
            config_params=_freeze(dict(config_params or {})),
            trace_digests=_freeze(_trace_digests(workloads)),
        )

    def canonical_fields(self) -> dict:
        """The canonical form of every field but ``system`` (see :meth:`as_dict`).

        ``trace_digests`` content-addresses any ``trace:`` workloads among
        the per-core streams, exactly as :meth:`RunSpec.canonical_fields`
        does.
        """

        data = {
            "kind": "multiprogram",
            "workloads": list(self.workloads),
            "configuration": self.configuration,
            "config_params": self.config_params_dict(),
            "trace_overrides": self.trace_overrides_dict(),
            "warmup_fraction": self.warmup_fraction,
            "max_accesses_per_core": self.max_accesses_per_core,
            "share_metadata": self.share_metadata,
        }
        digests = self.trace_digests_dict()
        if digests:
            data["trace_digests"] = digests
        return data


# Traces are regenerated deterministically, so each process (the parent's
# serial path and every pool worker alike) memoises them: a matrix runs each
# workload under many configurations against the same trace.  This is the
# single per-process trace memo; the runner's ``trace_for`` delegates here.
_TRACE_MEMO: dict[tuple, object] = {}


def trace_for_workload(workload: str, overrides: Mapping | None = None):
    """The (memoised) trace for a workload under the given overrides.

    ``trace:`` workloads memoise under their file's *content digest* too,
    so rewriting a trace file mid-process (a re-record, a re-import) can
    never replay the previously loaded stream against a spec whose hash
    already reflects the new bytes.
    """

    from repro.workloads.registry import generate_workload

    key = (workload, _freeze(dict(overrides or {})))
    if workload.startswith("trace:"):
        key = key + tuple(sorted(_trace_digests([workload]).items()))
    trace = _TRACE_MEMO.get(key)
    if trace is None:
        trace = generate_workload(workload, **dict(overrides or {}))
        _TRACE_MEMO[key] = trace
    return trace


def clear_trace_memo() -> None:
    """Drop every memoised trace (tests and cache-clearing paths)."""

    _TRACE_MEMO.clear()


def execute_spec(spec: RunSpec, trace=None) -> SimulationStats:
    """Run the simulation a spec describes and return its statistics.

    This is the scheduler's worker function: it builds everything — trace,
    hierarchy, prefetchers, timing model — from the spec alone, so it can
    run in a fresh process.  ``trace`` lets an in-process caller reuse an
    already-generated trace.  Either way this is the *single* place a spec
    becomes a run — every prefetcher stack resolves through the
    configuration registry — so serial and pool results can never diverge.
    """

    # Imported here (not at module top) to keep spec hashing importable
    # without dragging in the whole simulator, and to avoid an import cycle
    # with the configuration registry.  ``run_fast`` is looked up at call
    # time so the parity tests can substitute the reference engine.
    from repro.experiments.configs import build_prefetchers
    from repro.sim import kernel
    from repro.sim.engine import Simulator
    from repro.sim.timing import TimingModel

    system = spec.system_config()
    spec._verify_trace_digests([spec.workload])
    if trace is None:
        trace = trace_for_workload(spec.workload, spec.trace_overrides_dict())
    simulator = Simulator(
        system.build_hierarchy(),
        build_prefetchers(
            spec.configuration, system, params=spec.config_params_dict() or None
        ),
        timing=TimingModel(system.timing),
        config=system,
        configuration_name=spec.configuration,
    )
    result = kernel.run_fast(
        simulator,
        trace,
        max_accesses=spec.max_accesses,
        workload_name=spec.workload,
        warmup_accesses=int(len(trace) * spec.warmup_fraction),
    )
    return result.stats


def execute_multiprogram_spec(spec: MultiProgramSpec):
    """Run the multiprogrammed simulation a spec describes.

    The multiprogram analogue of :func:`execute_spec`: traces, the shared
    L3/DRAM hierarchy and every core's prefetcher stack are rebuilt from the
    spec alone, so the spec can execute in a pool worker exactly as it does
    in-process.  Returns a
    :class:`~repro.sim.multiprogram.MultiProgramResult`.
    """

    from repro.experiments.configs import build_prefetchers
    from repro.sim.multiprogram import MultiProgramSimulator

    system = spec.system_config()
    spec._verify_trace_digests(spec.workloads)
    overrides = spec.trace_overrides_dict()
    traces = [trace_for_workload(workload, overrides) for workload in spec.workloads]
    simulator = MultiProgramSimulator(
        system,
        prefetcher_factory=lambda: build_prefetchers(
            spec.configuration, system, params=spec.config_params_dict() or None
        ),
        num_cores=len(spec.workloads),
        configuration_name=spec.configuration,
        share_metadata=spec.share_metadata,
    )
    shortest = min(len(trace) for trace in traces)
    cap = spec.max_accesses_per_core
    warmup = int((cap if cap is not None else shortest) * spec.warmup_fraction)
    return simulator.run(
        traces,
        workload_names=list(spec.workloads),
        max_accesses_per_core=cap,
        warmup_accesses_per_core=warmup,
    )


def execute(spec):
    """Run any spec kind (the scheduler's single worker entry point)."""

    if isinstance(spec, MultiProgramSpec):
        return execute_multiprogram_spec(spec)
    return execute_spec(spec)
