"""Workload registry: name → trace generator or on-disk trace file.

The experiment harness refers to workloads by name (the same names the
paper's figures use on their x axes); this registry maps those names onto
the generators in :mod:`repro.workloads.spec`, :mod:`repro.workloads.
graph500` and :mod:`repro.workloads.micro` — and, with the ``trace:``
prefix, onto packed ``.rtrc`` trace files on the trace search path (see
:mod:`repro.traces`).  A recorded or imported file is thereby a first-class
workload: ``generate_workload("trace:foo")`` loads ``foo.rtrc`` from the
search path, and every study/CLI surface that accepts workload names
accepts it.

The search path is the ``REPRO_TRACE_DIR`` environment variable (one or
more directories separated by the platform path separator), falling back to
``./traces``; directories registered at runtime through
:func:`add_trace_directory` take precedence.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Callable

from repro.workloads.graph500 import GRAPH500_SPECS, generate_graph500_trace
from repro.workloads.micro import (
    generate_pointer_chase_trace,
    generate_random_trace,
    generate_sequential_trace,
)
from repro.workloads.spec import SPEC_SPECS, generate_spec_trace
from repro.workloads.trace import Trace

#: The seven SPEC-like workloads, in the order the paper's figures use.
SPEC_WORKLOADS: tuple[str, ...] = (
    "xalan",
    "omnet",
    "mcf",
    "gcc_166",
    "astar",
    "soplex_3500",
    "sphinx3",
)

#: The multiprogrammed pairs of figure 16 (Xalan doubled to make an even set).
MULTIPROGRAM_PAIRS: tuple[tuple[str, str], ...] = (
    ("xalan", "omnet"),
    ("mcf", "gcc_166"),
    ("astar", "soplex_3500"),
    ("sphinx3", "xalan"),
)

#: The Graph500 inputs of figure 17.
GRAPH500_WORKLOADS: tuple[str, ...] = ("graph500_s16", "graph500_s21")

_MICRO_GENERATORS: dict[str, Callable[..., Trace]] = {
    "pointer_chase": generate_pointer_chase_trace,
    "sequential": generate_sequential_trace,
    "random": generate_random_trace,
}

# ---------------------------------------------------------------------------
# On-disk trace workloads (the ``trace:`` namespace)
# ---------------------------------------------------------------------------
#: Prefix marking a workload name as an on-disk trace file.
TRACE_PREFIX = "trace:"

#: Suffix of every trace file; ``trace:<name>`` resolves ``<name>.rtrc``.
TRACE_SUFFIX = ".rtrc"

#: Environment variable holding the trace search path (path-separator list).
TRACE_DIR_ENV = "REPRO_TRACE_DIR"

#: Directory searched when the environment variable is unset.
DEFAULT_TRACE_DIR = "traces"

def trace_search_path() -> list[Path]:
    """The directories ``trace:`` workloads resolve against, in order.

    Never empty: an environment value that contains no usable entries
    (e.g. only path separators) falls back to the default directory, so
    callers can rely on ``trace_search_path()[0]`` as the write target.
    """

    raw = os.environ.get(TRACE_DIR_ENV)
    entries = [Path(entry) for entry in raw.split(os.pathsep) if entry] if raw else []
    return entries or [Path(DEFAULT_TRACE_DIR)]


def add_trace_directory(directory: str | Path) -> Path:
    """Prepend a directory to the trace search path; returns it.

    The registration is written into the ``REPRO_TRACE_DIR`` environment
    variable (preserving the existing path, or the default directory when
    unset) rather than module state, so worker processes spawned later —
    which re-import this module — inherit it and resolve the same
    ``trace:`` workloads as the parent.
    """

    path = Path(directory)
    current = os.environ.get(TRACE_DIR_ENV)
    entries = [str(path)]
    if current:
        entries += [
            entry
            for entry in current.split(os.pathsep)
            if entry and Path(entry) != path
        ]
    else:
        entries.append(DEFAULT_TRACE_DIR)
    os.environ[TRACE_DIR_ENV] = os.pathsep.join(entries)
    return path


def remove_trace_directory(directory: str | Path) -> bool:
    """Drop a registered directory from the search path (see ``add``).

    Returns whether it was present.  Removing the last entry restores the
    default search path.
    """

    current = os.environ.get(TRACE_DIR_ENV)
    if not current:
        return False
    path = Path(directory)
    entries = [entry for entry in current.split(os.pathsep) if entry]
    kept = [entry for entry in entries if Path(entry) != path]
    if len(kept) == len(entries):
        return False
    os.environ[TRACE_DIR_ENV] = os.pathsep.join(kept)
    return True


def resolve_trace_path(name: str) -> Path:
    """The file a trace workload name refers to (``trace:`` prefix optional).

    Searches every directory on :func:`trace_search_path` for
    ``<name>.rtrc``; the first hit wins.
    """

    stem = name[len(TRACE_PREFIX):] if name.startswith(TRACE_PREFIX) else name
    if not stem:
        raise ValueError("empty trace workload name")
    for directory in trace_search_path():
        candidate = directory / f"{stem}{TRACE_SUFFIX}"
        if candidate.is_file():
            return candidate
    searched = ", ".join(str(directory) for directory in trace_search_path())
    raise ValueError(
        f"no trace file for workload {TRACE_PREFIX}{stem} "
        f"(searched {searched} for {stem}{TRACE_SUFFIX}; record or import one "
        f"with `repro trace record|import`)"
    )


def available_trace_workloads() -> list[str]:
    """Every ``trace:<name>`` workload discoverable on the search path."""

    names = set()
    for directory in trace_search_path():
        if not directory.is_dir():
            continue
        for path in directory.glob(f"*{TRACE_SUFFIX}"):
            stem = path.name[: -len(TRACE_SUFFIX)]
            if stem:
                names.add(f"{TRACE_PREFIX}{stem}")
    return sorted(names)


def _load_trace_workload(name: str, **overrides) -> Trace:
    """Load a ``trace:`` workload, applying the overrides traces support.

    On-disk traces are fixed streams, so the only generation override that
    has a meaning is ``length`` (truncate to the first N accesses — the
    replay analogue of generating a shorter trace); anything else would be
    silently ignored and is rejected instead.
    """

    from repro.traces.format import load_trace

    length = overrides.pop("length", None)
    if overrides:
        raise ValueError(
            f"trace workloads accept only the 'length' override "
            f"(got {sorted(overrides)}); resample the file instead "
            f"(`repro trace sample`)"
        )
    trace = load_trace(resolve_trace_path(name))
    if length is not None:
        if length <= 0:
            raise ValueError("length override must be positive")
        if length < len(trace):
            truncated = trace.slice(0, length)
            truncated.name = name
            return truncated
    trace.name = name
    return trace


def available_workloads() -> list[str]:
    """All workload names the registry can produce (on-disk traces included)."""

    generated = sorted(set(SPEC_SPECS) | set(GRAPH500_SPECS) | set(_MICRO_GENERATORS))
    return generated + available_trace_workloads()


def generate_workload(name: str, **overrides) -> Trace:
    """Generate (or load) the named workload's trace.

    ``overrides`` are forwarded to the underlying generator (``length`` and
    ``seed`` for the SPEC-like workloads, ``max_accesses``/``seed`` for
    Graph500, and the micro generators' own parameters).  Graph500 also
    takes ``length``, as its ``max_accesses``, so one ``length`` override
    sizes every generated trace.  Names with the ``trace:`` prefix load
    packed trace files from the search path instead of generating; they
    accept only the ``length`` override.
    """

    if name.startswith(TRACE_PREFIX):
        return _load_trace_workload(name, **overrides)
    key = name.lower()
    if key in SPEC_SPECS:
        return generate_spec_trace(key, **overrides)
    if key in GRAPH500_SPECS:
        if "length" in overrides:
            if "max_accesses" in overrides:
                raise ValueError(
                    f"{name}: give 'length' or 'max_accesses', not both "
                    f"(length is the trace's max_accesses)"
                )
            overrides["max_accesses"] = overrides.pop("length")
        return generate_graph500_trace(key, **overrides)
    if key in _MICRO_GENERATORS:
        return _MICRO_GENERATORS[key](**overrides)
    raise ValueError(
        f"unknown workload {name!r}; available: {available_workloads()}"
    )
