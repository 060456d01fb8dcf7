"""Record registered workload generators' streams to ``.rtrc`` files.

Recording turns a synthetic generator into an on-disk artefact: the access
stream a generator produces (under given overrides) is packed and saved, and
from then on loading the file — the ``trace:<name>`` workload path — yields
the *identical* stream without re-running any generation code.  The
record→replay parity tests in ``tests/test_traces.py`` assert this down to
bit-identical simulation statistics.

Provenance travels in the file header: ``metadata["recorded"]`` names the
source workload and the overrides it was generated with, on top of whatever
metadata the generator itself attached, so a recorded file is always
self-describing.
"""

from __future__ import annotations

from pathlib import Path
from typing import Mapping

from repro.traces.format import pack_trace, save_trace


def record_trace(trace, path: str | Path, name: str | None = None) -> Path:
    """Capture any live trace-like object to ``path`` (thin save wrapper)."""

    return save_trace(trace, path, name=name)


def record_workload(
    workload: str,
    directory: str | Path,
    name: str | None = None,
    overrides: Mapping | None = None,
) -> Path:
    """Generate a registered workload and save its stream under ``directory``.

    ``name`` defaults to the workload name (so ``record_workload("mcf", d)``
    writes ``d/mcf.rtrc`` and ``trace:mcf`` resolves to it when ``d`` is on
    the trace search path).  ``overrides`` are forwarded to the generator
    exactly as :func:`~repro.workloads.registry.generate_workload` would
    (``length``, ``seed``, ...), and are recorded as provenance.  Returns
    the path written.
    """

    from repro.workloads.registry import TRACE_PREFIX, TRACE_SUFFIX, generate_workload

    overrides = dict(overrides or {})
    try:
        trace = generate_workload(workload, **overrides)
    except TypeError as error:
        # A generator rejecting an override is caller input, not a bug:
        # surface it as the validation error the CLI knows how to render.
        # With no overrides given, a TypeError can only be a real defect
        # inside the generator — let it propagate untouched.
        if not overrides:
            raise
        raise ValueError(
            f"workload {workload!r} does not accept override(s) "
            f"{sorted(overrides)} ({error})"
        ) from None
    # The file stem IS the workload name, so the trace: prefix must never
    # leak into it — whether from re-recording an on-disk trace (`record
    # trace:<name>`) or from a caller passing a prefixed name.  A prefixed
    # stem would advertise a double-prefixed workload nothing resolves.
    stem = name or workload
    if stem.startswith(TRACE_PREFIX):
        stem = stem[len(TRACE_PREFIX):]
    if not stem:
        raise ValueError("empty trace name")
    packed = pack_trace(trace, name=stem)
    packed.metadata["recorded"] = {
        "workload": workload,
        "overrides": overrides,
        "accesses": len(packed),
    }
    return save_trace(packed, Path(directory) / f"{packed.name}{TRACE_SUFFIX}")
