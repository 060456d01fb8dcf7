"""Per-layer tracing for the traced benchmark run.

Every boundary below is a public function or method of one ``src/repro``
package.  :class:`Tracer` wraps them in place on their classes or modules
(no program file is edited), records a span for every call, and restores
the originals afterwards.  A span knows its name, start, end and the span
that caused it; self time is a span's duration minus its children's.

Per-operation boundaries (a cell, a replay, a request, a trace load) keep
every span whole.  Per-access boundaries would produce millions of spans,
so they are aggregated in memory per (name, parent) into a count, total
time and self time.  Everything is written out when the run ends.
"""

from __future__ import annotations

import importlib
import sys
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter


def _already_present(args, result) -> int:
    return 1 if result.already_present else 0


def _evicted(args, result) -> int:
    return 0 if result is None else 1


def _emitted(args, result) -> int:
    # observe_into(self, pc, line, result, now, sink): the kernel zeroes
    # sink.count before each call, so a non-zero count is an emission.
    return 1 if args[5].count else 0


def _hit(args, result) -> int:
    return 0 if result is None else 1


@dataclass(frozen=True)
class Boundary:
    """One traced boundary: ``<layer>.<name>`` over one or more callables.

    ``owner`` is ``module`` or ``module:Class``; ``attrs`` the functions or
    methods wrapped under this one name.  ``whole`` keeps every span (the
    boundary runs about once per operation).  ``observe(args, result)``
    returns 0 or 1 and counts outcomes for a ratio metric; ``delta`` names
    an instance counter whose growth across a call is summed.
    """

    name: str
    owner: str
    attrs: tuple[str, ...]
    whole: bool = False
    observe: object = None
    delta: str | None = None
    #: reported from the set-up phase instead of the timed region.
    setup_only: bool = False


BOUNDARIES: tuple[Boundary, ...] = (
    # sim: the kernels (run_fast inlines the L1-hit path, so it is in its
    # self time).
    Boundary("sim.run_fast", "repro.sim.kernel", ("run_fast",), whole=True),
    Boundary(
        "sim.multiprogram_run",
        "repro.sim.multiprogram:MultiProgramSimulator",
        ("run",),
        whole=True,
    ),
    Boundary("sim.step_fast", "repro.sim.kernel", ("step_fast",)),
    # memory: the shared cache/DRAM model.
    Boundary(
        "memory.demand_after_l1_miss",
        "repro.memory.hierarchy:MemoryHierarchy",
        ("demand_after_l1_miss",),
    ),
    Boundary(
        "memory.prefetch_fill",
        "repro.memory.hierarchy:MemoryHierarchy",
        ("prefetch_fill",),
        observe=_already_present,
    ),
    Boundary("memory.cache_access", "repro.memory.cache:SetAssociativeCache", ("access",)),
    Boundary(
        "memory.cache_fill",
        "repro.memory.cache:SetAssociativeCache",
        ("fill",),
        observe=_evicted,
    ),
    Boundary("memory.cache_probe", "repro.memory.cache:SetAssociativeCache", ("probe",)),
    Boundary("memory.dram_access", "repro.memory.dram:DramModel", ("access",)),
    Boundary(
        "memory.set_reserved_ways",
        "repro.memory.partitioned_cache:PartitionedCache",
        ("set_reserved_ways",),
    ),
    # prefetch: the baseline stride prefetcher.
    Boundary(
        "prefetch.stride_observe",
        "repro.prefetch.stride:StridePrefetcher",
        ("observe_into",),
        observe=_emitted,
    ),
    # core: Triangel and its components.
    Boundary(
        "core.triangel_observe", "repro.core.triangel:TriangelPrefetcher", ("observe_into",)
    ),
    Boundary(
        "core.training_table",
        "repro.core.training_table:TriangelTrainingTable",
        ("find_or_allocate",),
    ),
    Boundary(
        "core.history_sampler",
        "repro.core.history_sampler:HistorySampler",
        ("lookup", "insert"),
    ),
    Boundary(
        "core.second_chance",
        "repro.core.second_chance:SecondChanceSampler",
        ("insert", "check", "expire_older_than"),
    ),
    Boundary(
        "core.mrb",
        "repro.core.metadata_reuse_buffer:MetadataReuseBuffer",
        ("lookup", "insert", "would_be_redundant_update", "invalidate"),
    ),
    Boundary(
        "core.set_dueller",
        "repro.core.set_dueller:SetDueller",
        ("observe_data_access", "observe_markov_access"),
    ),
    # triage: Triage and the Markov table Triangel shares (the parent span
    # in the written trace shows which prefetcher called it).
    Boundary("triage.triage_observe", "repro.triage.triage:TriagePrefetcher", ("observe_into",)),
    Boundary("triage.markov_lookup", "repro.triage.markov_table:MarkovTable", ("lookup",)),
    Boundary("triage.markov_train", "repro.triage.markov_table:MarkovTable", ("train",)),
    Boundary("triage.bloom_observe", "repro.triage.bloom:BloomPartitionSizer", ("observe",)),
    # workloads: trace generation (and the registry's trace: loading).
    Boundary("workloads.generate", "repro.workloads.registry", ("generate_workload",), whole=True),
    # traces: the .rtrc container.
    Boundary("traces.load", "repro.traces.format", ("load_trace",), whole=True),
    Boundary(
        "traces.decode",
        "repro.traces.format:ChunkedTrace",
        ("access_columns", "window_columns"),
        delta="chunks_decoded",
    ),
    Boundary("traces.digest", "repro.traces.format", ("trace_file_digest",)),
    Boundary("traces.save", "repro.traces.format", ("save_trace",), whole=True, setup_only=True),
    # experiments: specs, execution and the result store.
    Boundary(
        "experiments.execute_spec",
        "repro.experiments.jobs",
        ("execute_spec", "execute_multiprogram_spec"),
        whole=True,
    ),
    Boundary("experiments.build_prefetchers", "repro.experiments.configs", ("build_prefetchers",)),
    Boundary("experiments.spec_create", "repro.experiments.jobs:RunSpec", ("create",)),
    Boundary("experiments.spec_create", "repro.experiments.jobs:MultiProgramSpec", ("create",)),
    Boundary("experiments.content_hash", "repro.experiments.jobs:RunSpec", ("content_hash",)),
    Boundary(
        "experiments.content_hash", "repro.experiments.jobs:MultiProgramSpec", ("content_hash",)
    ),
    Boundary("experiments.store_get", "repro.experiments.store:ResultStore", ("get",), observe=_hit),
    Boundary("experiments.store_put", "repro.experiments.store:ResultStore", ("put",)),
    Boundary("experiments.study_compile", "repro.experiments.study:Study", ("compile",), whole=True),
    Boundary("experiments.study_run", "repro.experiments.study:Study", ("run",), whole=True),
    # service: the daemon's request path and the client.
    Boundary("service.compile_request", "repro.service.requests", ("compile_request",), whole=True),
    Boundary("service.scheduler_submit", "repro.service.scheduler:Scheduler", ("submit",), whole=True),
    Boundary("service.job_snapshot", "repro.service.scheduler:Scheduler", ("job_snapshot",), whole=True),
    Boundary("service.job_manifest", "repro.service.manifest", ("job_manifest",), whole=True),
    Boundary(
        "service.client",
        "repro.client:ServiceClient",
        ("submit", "status", "result"),
        whole=True,
    ),
)

#: Timed from the benchmark's own code (the first touch of a fresh store,
#: through ``len(store)``), not by patching: loading is internal to the store.
STORE_LOAD = "experiments.store_load"

#: Every boundary name, in report order (``store_load`` included).
BOUNDARY_NAMES: tuple[str, ...] = tuple(
    dict.fromkeys([boundary.name for boundary in BOUNDARIES] + [STORE_LOAD])
)
SETUP_ONLY = frozenset(
    [boundary.name for boundary in BOUNDARIES if boundary.setup_only] + [STORE_LOAD]
)


class _ThreadData:
    """One thread's span stack, aggregates and whole spans."""

    def __init__(self) -> None:
        self.stack: list = []
        #: (phase, name, parent) -> [calls, total_s, self_s]
        self.aggregate: dict = {}
        #: (name, parent, start, end, op, phase)
        self.spans: list = []
        #: (phase, name) -> outcomes counted by ``observe``/``delta``
        self.counts: dict = {}
        #: (op, content digest) pairs seen by content_hash
        self.digests: set = set()
        self.thread = threading.current_thread().name
        self.main = threading.current_thread() is threading.main_thread()


class _Local(threading.local):
    # threading.local re-runs __init__ in every thread that touches it, so
    # each thread registers its own data exactly once.
    def __init__(self, registry: list) -> None:
        self.data = _ThreadData()
        registry.append(self.data)


class Tracer:
    """Wraps :data:`BOUNDARIES` while :meth:`install`-ed; see module docs.

    ``phase`` ("setup" or "timed") and ``op`` (the benchmark's current
    operation index) are stamped onto every span, so spans of one request
    share an identifier across the client and daemon threads.
    """

    def __init__(self) -> None:
        self.phase = "setup"
        self.op = -1
        self._states: list[_ThreadData] = []
        self._local = _Local(self._states)
        self._patched: list[tuple[object, str, object, bool]] = []

    # -- spans ----------------------------------------------------------------
    def _state(self) -> _ThreadData:
        return self._local.data

    def _close(self, state, name, parent, start, end, child, whole) -> None:
        duration = end - start
        if parent is not None:
            parent[1] += duration
        key = (self.phase, name, parent[0] if parent is not None else None)
        entry = state.aggregate.get(key)
        if entry is None:
            state.aggregate[key] = entry = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child
        if whole:
            state.spans.append((name, key[2], start, end, self.op, self.phase))

    def _count(self, state, name: str, value: int) -> None:
        key = (self.phase, name)
        state.counts[key] = state.counts.get(key, 0) + value

    @contextmanager
    def span(self, name: str):
        """Record one whole span around benchmark code (``with`` block)."""

        state = self._state()
        parent = state.stack[-1] if state.stack else None
        frame = [name, 0.0]
        state.stack.append(frame)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            state.stack.pop()
            self._close(state, name, parent, start, end, frame[1], True)

    def _wrap(self, boundary: Boundary, func):
        tracer = self
        name = boundary.name
        whole = boundary.whole
        observe = boundary.observe
        delta = boundary.delta
        hashing = name == "experiments.content_hash"

        def wrapper(*args, **kwargs):
            state = tracer._state()
            stack = state.stack
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            before = getattr(args[0], delta) if delta is not None else 0
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer._close(state, name, parent, start, end, frame[1], whole)
            if observe is not None:
                tracer._count(state, name, observe(args, result))
            elif delta is not None:
                tracer._count(state, name, getattr(args[0], delta) - before)
            if hashing:
                state.digests.add((tracer.op, result))
            return result

        wrapper.__wrapped__ = func
        wrapper.__name__ = getattr(func, "__name__", name)
        wrapper.__qualname__ = getattr(func, "__qualname__", name)
        return wrapper

    # -- patching ---------------------------------------------------------------
    def install(self) -> None:
        """Patch every boundary in place (before any simulator is built).

        The fast kernel binds ``prefetch_fill`` and ``demand_after_l1_miss``
        at loop entry, so objects built before this call would bypass the
        wrappers: the benchmark builds every traced simulator afterwards.
        Module-level functions are also replaced in every ``repro`` module
        that imported them by name.
        """

        if self._patched:
            raise RuntimeError("tracer already installed")
        for boundary in BOUNDARIES:
            module_name, _, class_name = boundary.owner.partition(":")
            module = importlib.import_module(module_name)
            for attr in boundary.attrs:
                if class_name:
                    owner = getattr(module, class_name)
                    self._patch_method(owner, attr, boundary)
                else:
                    self._patch_function(module, attr, boundary)

    def _patch_method(self, owner: type, attr: str, boundary: Boundary) -> None:
        own = attr in owner.__dict__
        original = owner.__dict__[attr] if own else getattr(owner, attr)
        if isinstance(original, classmethod):
            replacement = classmethod(self._wrap(boundary, original.__func__))
        elif isinstance(original, staticmethod):
            replacement = staticmethod(self._wrap(boundary, original.__func__))
        else:
            replacement = self._wrap(boundary, original)
        setattr(owner, attr, replacement)
        self._patched.append((owner, attr, original, own))

    def _patch_function(self, module, attr: str, boundary: Boundary) -> None:
        original = getattr(module, attr)
        replacement = self._wrap(boundary, original)
        for name, holder in sorted(sys.modules.items()):
            if holder is None or not (name == "repro" or name.startswith("repro.")):
                continue
            if holder.__dict__.get(attr) is original:
                setattr(holder, attr, replacement)
                self._patched.append((holder, attr, original, True))

    def restore(self) -> None:
        """Put every original back, then fail loudly if any is still patched."""

        for owner, attr, original, own in reversed(self._patched):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        leftovers = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original, own in self._patched
            if (owner.__dict__.get(attr) is not original if own else attr in owner.__dict__)
        ]
        self._patched = []
        if leftovers:
            raise RuntimeError(f"still patched after restore: {leftovers}")

    # -- results ------------------------------------------------------------------
    def metrics(self, extra: dict) -> dict:
        """The per-layer metrics: ``.calls``/``.self_s`` per boundary plus ratios.

        Boundaries come from the timed region, except the set-up-only ones.
        ``extra`` carries values measured outside the tracer
        (``trace_overhead``).
        """

        calls: dict = {}
        self_s: dict = {}
        server_roots = 0.0
        for state in self._states:
            for (phase, name, parent), (count, total, own) in state.aggregate.items():
                wanted = "setup" if name in SETUP_ONLY else "timed"
                if phase != wanted:
                    continue
                calls[name] = calls.get(name, 0) + count
                self_s[name] = self_s.get(name, 0.0) + own
                if phase == "timed" and parent is None and not state.main:
                    server_roots += total
        client_total = sum(
            entry[1]
            for state in self._states
            for (phase, name, _parent), entry in state.aggregate.items()
            if phase == "timed" and name == "service.client"
        )
        counts: dict = {}
        digests: set = set()
        for state in self._states:
            for (phase, name), value in state.counts.items():
                if phase == "timed":
                    counts[name] = counts.get(name, 0) + value
            digests |= state.digests

        def ratio(numerator, denominator) -> float:
            return numerator / denominator if denominator else 0.0

        metrics = {}
        for name in BOUNDARY_NAMES:
            metrics[f"{name}.calls"] = {"value": calls.get(name, 0), "unit": "count"}
            metrics[f"{name}.self_s"] = {"value": self_s.get(name, 0.0), "unit": "s"}
        derived = {
            "memory.prefetch_fill.resident_ratio": ratio(
                counts.get("memory.prefetch_fill", 0), calls.get("memory.prefetch_fill", 0)
            ),
            "memory.cache_fill.victim_ratio": ratio(
                counts.get("memory.cache_fill", 0), calls.get("memory.cache_fill", 0)
            ),
            "prefetch.stride_observe.emit_ratio": ratio(
                counts.get("prefetch.stride_observe", 0),
                calls.get("prefetch.stride_observe", 0),
            ),
            "experiments.store_get.hit_ratio": ratio(
                counts.get("experiments.store_get", 0), calls.get("experiments.store_get", 0)
            ),
        }
        for name, value in derived.items():
            metrics[name] = {"value": value, "unit": "ratio"}
        metrics["experiments.content_hash.per_spec"] = {
            "value": ratio(calls.get("experiments.content_hash", 0), len(digests)),
            "unit": "hashes/spec",
        }
        metrics["traces.decode.chunks"] = {
            "value": counts.get("traces.decode", 0),
            "unit": "count",
        }
        metrics["service.http_s"] = {
            "value": max(client_total - server_roots, 0.0) if client_total else 0.0,
            "unit": "s",
        }
        metrics.update(extra)
        return metrics

    def dump(self) -> dict:
        """Every aggregate and whole span, for writing out at the end."""

        aggregate: dict = {}
        for state in self._states:
            for key, (count, total, own) in state.aggregate.items():
                entry = aggregate.setdefault(key, [0, 0.0, 0.0])
                entry[0] += count
                entry[1] += total
                entry[2] += own
        spans = [
            {
                "name": name,
                "parent": parent,
                "start": start,
                "end": end,
                "op": op,
                "phase": phase,
                "thread": state.thread,
            }
            for state in self._states
            for name, parent, start, end, op, phase in state.spans
        ]
        spans.sort(key=lambda span: span["start"])
        return {
            "aggregate": [
                {
                    "phase": phase,
                    "name": name,
                    "parent": parent,
                    "calls": count,
                    "total_s": total,
                    "self_s": own,
                }
                for (phase, name, parent), (count, total, own) in sorted(
                    aggregate.items(), key=lambda item: tuple(map(str, item[0]))
                )
            ],
            "spans": spans,
        }
