"""repro.obs — the unified telemetry layer (metrics, spans, events).

One dependency-free package gives every layer of the stack — columnar
kernel, scheduler, result store, HTTP daemon — a shared
instrumentation vocabulary:

* :mod:`repro.obs.metrics` — a process-local registry of counters, gauges
  and histograms with labels; snapshot-able as a dictionary and renderable
  in Prometheus text exposition format (the daemon's ``GET /metrics``);
* :mod:`repro.obs.spans` — nestable timing spans with a thread-local stack
  and a shared no-op when disabled, so the allocation-free kernel contract
  holds with the instrumentation compiled in;
* :mod:`repro.obs.events` — an append-only, size-rotated, schema-versioned
  JSONL event log under ``<cache-dir>/obs/`` (``repro obs tail|summary``
  reads it).

**The toggle.**  Telemetry is *off* by default: every producer call is a
cheap boolean check and nothing else.  Turn it on with the
``REPRO_TELEMETRY=1`` environment variable or any simulating CLI command's
``--telemetry`` flag (:func:`set_enabled` writes through to the
environment, so lazily-spawned pool workers inherit the setting exactly
like ``REPRO_TRACE_DIR`` registrations do).  The kernels additionally keep
their hot-loop contract regardless of the toggle: they take a few coarse
clock samples per *run* — never per-access work — and report through
:func:`record_replay` after the loop ends.
"""

from __future__ import annotations

import os

from repro.obs.events import EventLog, default_log, emit, set_default_log
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    REGISTRY,
)
from repro.obs.spans import (
    Span,
    add_phase,
    breakdown,
    collect,
    current_span,
    span,
)

#: Environment variable toggling telemetry for a whole process tree.
TELEMETRY_ENV = "REPRO_TELEMETRY"

#: Values of :data:`TELEMETRY_ENV` that mean "on".
_TRUTHY = ("1", "true", "yes", "on")

_enabled: bool | None = None


def enabled() -> bool:
    """Whether telemetry is on (resolved from the environment once)."""

    global _enabled
    if _enabled is None:
        raw = os.environ.get(TELEMETRY_ENV, "").strip().lower()
        _enabled = raw in _TRUTHY
    return _enabled


def set_enabled(on: bool | None) -> None:
    """Turn telemetry on/off explicitly, or reset to environment resolution.

    ``True``/``False`` also write the environment variable so worker
    processes spawned later (the scheduler's lazy pool) inherit the choice;
    ``None`` clears both the cache and the variable.
    """

    global _enabled
    if on is None:
        _enabled = None
        os.environ.pop(TELEMETRY_ENV, None)
        return
    _enabled = bool(on)
    os.environ[TELEMETRY_ENV] = "1" if on else "0"


# ---------------------------------------------------------------------------
# Well-known kernel instrumentation.  Declared lazily so importing the obs
# package costs nothing; the kernels call record_replay() once per run.
# ---------------------------------------------------------------------------
_replay_metrics = None


def record_replay(
    workload: str,
    accesses: int,
    prefix_accesses: int,
    prefix_seconds: float,
    sample_seconds: float,
) -> None:
    """Report one kernel run's coarse phase sample (post-loop, O(1)).

    Called by :func:`repro.sim.kernel.run_fast` after its fused loop
    ends — two or three ``perf_counter`` reads per *run* are the entire
    kernel-side cost.  Records the replay throughput
    counters plus the ``prefix_replay``/``sampled_window`` phases on the
    current span (or collector), which is how a job's per-phase breakdown
    learns about kernel time when execution is in-process.
    """

    if not enabled():
        return
    global _replay_metrics
    if _replay_metrics is None:
        _replay_metrics = (
            REGISTRY.counter(
                "repro_replay_accesses_total",
                "Accesses replayed by the fast kernels, by phase.",
                labels=("phase",),
            ),
            REGISTRY.counter(
                "repro_replay_seconds_total",
                "Wall seconds spent in the fast kernels, by phase.",
                labels=("phase",),
            ),
            REGISTRY.gauge(
                "repro_replay_last_accesses_per_second",
                "Sampled-window throughput of the most recent kernel run.",
            ),
        )
    accesses_total, seconds_total, last_aps = _replay_metrics
    accesses_total.inc(prefix_accesses, phase="prefix")
    accesses_total.inc(accesses, phase="sample")
    seconds_total.inc(max(prefix_seconds, 0.0), phase="prefix")
    seconds_total.inc(max(sample_seconds, 0.0), phase="sample")
    if sample_seconds > 0.0 and accesses:
        last_aps.set(accesses / sample_seconds)
    if prefix_seconds > 0.0:
        add_phase("prefix_replay", prefix_seconds, workload=workload)
    add_phase("sampled_window", sample_seconds, workload=workload)


__all__ = [
    "Counter",
    "EventLog",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "Span",
    "TELEMETRY_ENV",
    "add_phase",
    "breakdown",
    "collect",
    "current_span",
    "default_log",
    "emit",
    "enabled",
    "record_replay",
    "set_default_log",
    "set_enabled",
    "span",
]
