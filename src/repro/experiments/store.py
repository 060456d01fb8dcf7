"""Persistent, process-shared storage for completed simulation results.

The store is a JSON-lines file under a cache directory (``.repro_cache/`` by
default, overridable with the ``REPRO_CACHE_DIR`` environment variable or
per-store).  Each record holds a spec content hash, the record ``kind``, the
spec's canonical form (for inspection), and the result payload.  Two record
kinds exist, one per spec type:

* ``"run"`` — a :class:`~repro.experiments.jobs.RunSpec` keyed record whose
  payload is the raw :class:`~repro.sim.stats.SimulationStats` counters
  (parameterised runs such as the replacement study are plain ``"run"``
  records whose spec carries ``config_params``);
* ``"multiprogram"`` — a :class:`~repro.experiments.jobs.MultiProgramSpec`
  keyed record whose payload is a full
  :class:`~repro.sim.multiprogram.MultiProgramResult` (per-core stats plus
  per-core prefetcher counters).

Because the key hashes every spec field *plus* a code-version salt, a store
can be shared freely between processes, benchmark sessions and CLI
invocations: a stale entry can never be replayed, it simply stops being
found.

Concurrent writers sharing one directory (parallel benchmark sessions, the
``repro serve`` daemon next to one-shot CLI runs) are safe: each append
takes an ``fcntl`` advisory lock on the JSONL file, so records from
different processes can never interleave mid-line — without the lock, a
record larger than the kernel's atomic-append window (multiprogram payloads
easily are) could tear.  On platforms without ``fcntl`` the lock degrades
to a no-op and the load path's torn-line skip remains the backstop.  On
load the *last* record for a key wins, so concurrent sessions degrade to
harmless duplicate work rather than corruption.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import dataclass, field
from pathlib import Path

try:  # pragma: no cover - import-time platform probe
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

from repro import obs
from repro.experiments.jobs import MultiProgramSpec, RunSpec, code_version
from repro.sim.multiprogram import MultiProgramResult
from repro.sim.stats import SimulationStats

# Telemetry: store traffic counters (bumped only when telemetry is on; the
# event log additionally narrates hits and puts so `repro obs tail` shows
# cache behaviour inline with job lifecycle events).
_STORE_HITS = obs.REGISTRY.counter(
    "repro_store_hits_total", "Result-store lookups satisfied from the index."
)
_STORE_MISSES = obs.REGISTRY.counter(
    "repro_store_misses_total", "Result-store lookups that found nothing."
)
_STORE_PUTS = obs.REGISTRY.counter(
    "repro_store_puts_total", "Results persisted into the store."
)

#: Spec/result union types accepted and returned by the store.
Spec = RunSpec | MultiProgramSpec
Result = SimulationStats | MultiProgramResult

#: Environment variable overriding the default cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Directory used when neither the env var nor an explicit path is given.
DEFAULT_CACHE_DIR = ".repro_cache"

_RESULTS_FILENAME = "results.jsonl"


def stats_to_payload(stats: SimulationStats) -> dict:
    """Flatten stats to a JSON-safe dict (exact float round-trip)."""

    from dataclasses import asdict

    return asdict(stats)


def stats_from_payload(payload: dict) -> SimulationStats:
    """Rebuild :class:`SimulationStats` from its stored payload."""

    return SimulationStats(**payload)


def result_to_record(result: Result) -> tuple[str, dict]:
    """Serialise any result type to its ``(kind, payload)`` record form."""

    if isinstance(result, MultiProgramResult):
        return "multiprogram", result.as_payload()
    return "run", stats_to_payload(result)


def result_from_record(kind: str, payload: dict) -> Result:
    """Deserialise a stored ``(kind, payload)`` pair back to a live result."""

    if kind == "multiprogram":
        return MultiProgramResult.from_payload(payload)
    return stats_from_payload(payload)


def _classify(kind: str, spec: dict) -> dict:
    """Display kind and listing label for one record (``label`` may be None)."""

    configuration = spec.get("configuration", "?")
    if kind == "multiprogram":
        pair = " + ".join(spec.get("workloads", []))
        return {"kind": "multiprogram", "label": f"{pair} × {configuration}"}
    if spec.get("config_params"):
        params = ", ".join(
            f"{key}={value}" for key, value in sorted(spec["config_params"].items())
        )
        return {
            "kind": "parameterised run",
            "label": f"{spec.get('workload', '?')} × {configuration} [{params}]",
        }
    return {"kind": "run", "label": None}


@dataclass
class StoreStats:
    """Counters describing one store instance's traffic and contents."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    write_errors: int = 0
    entries: int = 0
    path: str = ""

    def as_dict(self) -> dict:
        """The counters as a flat dictionary (reports and tests)."""

        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "write_errors": self.write_errors,
            "entries": self.entries,
            "path": self.path,
        }


@dataclass
class ResultStore:
    """On-disk result store keyed by each spec's ``content_hash()``.

    Both spec kinds share one store: ``get``/``put`` accept a
    :class:`~repro.experiments.jobs.RunSpec` or a
    :class:`~repro.experiments.jobs.MultiProgramSpec` and return the
    matching result type.  Live result objects stay in an in-memory index,
    so repeated gets within one process return the *same* object (preserving
    the old module-cache identity semantics); payloads read from disk are
    deserialised lazily, once.
    """

    directory: Path | None = None
    hits: int = 0
    misses: int = 0
    puts: int = 0
    #: appends that failed with ``OSError`` (their results stayed in memory).
    write_errors: int = 0
    _index: dict | None = field(default=None, repr=False)
    _meta: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.directory is None:
            self.directory = Path(os.environ.get(CACHE_DIR_ENV, DEFAULT_CACHE_DIR))
        self.directory = Path(self.directory)

    # -- persistence --------------------------------------------------------
    @property
    def results_path(self) -> Path:
        """The JSON-lines file results are appended to."""

        return self.directory / _RESULTS_FILENAME

    def _load_index(self) -> dict:
        """Read the JSONL file once and build the key → entry index."""

        if self._index is None:
            self._index = {}
            try:
                text = self.results_path.read_text()
            except OSError:
                # Missing or unreadable store: start empty; the in-memory
                # index still gives within-process caching.
                return self._index
            current_version = code_version()
            for line in text.splitlines():
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue  # torn/partial line: skip, never crash
                key = record.get("key")
                if not key:
                    continue
                if record.get("v") != current_version:
                    # Written by a different code version: its key can never
                    # be looked up (the hash is version-salted), so skipping
                    # it bounds the index and keeps `entries` honest.
                    continue
                if record.get("deleted"):
                    self._index.pop(key, None)
                    self._meta.pop(key, None)
                    continue
                # Lazy entry: (kind, payload), deserialised on first get().
                # "stats" is the pre-kind record field, kept readable so a
                # store written moments before an upgrade degrades cleanly.
                if "payload" in record:
                    entry = (record.get("kind", "run"), record["payload"])
                elif "stats" in record:
                    entry = ("run", record["stats"])
                else:
                    continue
                self._index[key] = entry
                self._meta[key] = {
                    "kind": entry[0],
                    "spec": record.get("spec") or {},
                }
        return self._index

    def _append(self, record: dict) -> None:
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            with self.results_path.open("a", encoding="utf-8") as handle:
                if fcntl is not None:
                    # Exclusive advisory lock for the duration of the write:
                    # appends from concurrent processes serialise instead of
                    # interleaving partial lines.  Released by close() even
                    # if the write raises.
                    fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
                handle.write(json.dumps(record, sort_keys=True) + "\n")
                handle.flush()
        except OSError as error:
            # Unwritable store (read-only checkout, full disk): a completed
            # simulation must never be lost to a cache write, so degrade to
            # the in-memory index — counted, and warned about once.
            self.write_errors += 1
            if self.write_errors == 1:
                warnings.warn(
                    f"result store {self.directory} is not writable ({error}); "
                    f"results are kept in memory only",
                    RuntimeWarning,
                    stacklevel=3,
                )
            if obs.enabled():
                obs.emit(
                    "store_write_failed", path=str(self.directory), error=str(error)
                )

    # -- store API ----------------------------------------------------------
    def get(self, spec: Spec) -> Result | None:
        """Return the stored result for a spec, or ``None`` (counts hit/miss)."""

        index = self._load_index()
        key = spec.content_hash()
        entry = index.get(key)
        if entry is None:
            self.misses += 1
            if obs.enabled():
                _STORE_MISSES.inc()
            return None
        if isinstance(entry, tuple):
            entry = result_from_record(*entry)
            index[key] = entry
        self.hits += 1
        if obs.enabled():
            _STORE_HITS.inc()
            obs.emit("store_hit", key=key[:12])
        return entry

    def put(self, spec: Spec, result: Result) -> None:
        """Persist one result (and keep the live object for in-process gets)."""

        key = spec.content_hash()
        kind, payload = result_to_record(result)
        canonical = spec.as_dict()
        self._append(
            {
                "key": key,
                "v": code_version(),
                "kind": kind,
                "spec": canonical,
                "payload": payload,
            }
        )
        self._load_index()[key] = result
        self._meta[key] = {"kind": kind, "spec": canonical}
        self.puts += 1
        if obs.enabled():
            _STORE_PUTS.inc()
            obs.emit("store_put", key=key[:12], kind=kind)

    def __contains__(self, spec: Spec) -> bool:
        """Whether the spec has a stored result (without counting hit/miss)."""

        return spec.content_hash() in self._load_index()

    def __len__(self) -> int:
        """The number of replayable results in the store."""

        return len(self._load_index())

    def invalidate(self, spec: Spec) -> bool:
        """Drop one entry (tombstone record); returns whether it existed."""

        key = spec.content_hash()
        index = self._load_index()
        if key not in index:
            return False
        del index[key]
        self._meta.pop(key, None)
        self._append({"key": key, "v": code_version(), "deleted": True})
        return True

    def clear(self) -> int:
        """Remove every persisted result; returns how many were dropped."""

        dropped = len(self._load_index())
        self._index = {}
        self._meta = {}
        try:
            self.results_path.unlink(missing_ok=True)
        except OSError:
            pass
        return dropped

    # -- inspection ---------------------------------------------------------
    def records(self) -> list[dict]:
        """Display metadata of every stored result.

        Each entry holds the display ``kind`` (``"run"`` for plain
        single-core records, ``"parameterised run"`` for single-core records
        whose spec carries ``config_params`` — e.g. the replacement study —
        and ``"multiprogram"``), a human-readable ``label`` (``None`` for
        plain runs), and the canonical ``spec``.  This is the single
        classification point ``kind_summary`` and the CLI's ``cache show``
        listing both derive from.
        """

        self._load_index()
        return [
            dict(_classify(meta["kind"], meta["spec"]), spec=meta["spec"])
            for meta in self._meta.values()
        ]

    def kind_summary(self) -> dict[str, int]:
        """Entry counts per display kind (see :meth:`records`); non-zero only."""

        counts: dict[str, int] = {}
        for meta in self.records():
            counts[meta["kind"]] = counts.get(meta["kind"], 0) + 1
        return counts

    def stats(self) -> StoreStats:
        """A snapshot of this instance's traffic counters and entry count."""

        return StoreStats(
            hits=self.hits,
            misses=self.misses,
            puts=self.puts,
            write_errors=self.write_errors,
            entries=len(self),
            path=str(self.directory),
        )


def store_stats_payload(store: ResultStore) -> dict:
    """One store's statistics as a JSON-safe dictionary.

    The *single* machine-readable serialisation of a store: both ``repro
    cache show --json`` and the daemon's ``GET /store/stats`` return exactly
    this, so scripts never have to reconcile two shapes.  Carries the
    instance traffic counters (hits/misses/puts/write_errors), the on-disk
    footprint, the per-kind entry breakdown, and the code version the
    entries are keyed under.
    """

    info = store.stats()
    try:
        size = store.results_path.stat().st_size
    except OSError:
        size = 0
    return {
        **info.as_dict(),
        "size_bytes": size,
        "kinds": store.kind_summary(),
        "code_version": code_version(),
    }


# ---------------------------------------------------------------------------
# The process-wide default store (what ExperimentRunner uses unless told
# otherwise).  Tests point it at a temporary directory; the benchmark
# harness points it at a directory shared across sessions.
# ---------------------------------------------------------------------------
_default_store: ResultStore | None = None


def default_store() -> ResultStore:
    """The lazily-created process-wide store (honours ``REPRO_CACHE_DIR``)."""

    global _default_store
    if _default_store is None:
        _default_store = ResultStore()
    return _default_store


def set_default_store(store: ResultStore | None) -> ResultStore | None:
    """Replace the process-wide store; returns the previous one."""

    global _default_store
    previous = _default_store
    _default_store = store
    return previous
