"""The service layer: one shared scheduling core for CLI and daemon.

This package turns the experiment layer's batch compute engine (specs →
scheduler → content-hashed store) into something many concurrent clients
can share:

* :mod:`repro.service.backends` — the :class:`~repro.service.backends.
  WorkerBackend` protocol behind which execution runs (in the scheduler's
  dispatch thread, or on a process pool), so "where work runs" is a
  pluggable policy, plus :func:`~repro.service.backends.resolve_jobs`,
  which resolves and validates worker counts;
* :mod:`repro.service.scheduler` — the :class:`~repro.service.scheduler.
  Scheduler`: a priority job queue over spec batches with per-client
  quotas, cooperative cancellation of not-yet-started specs, and in-flight
  deduplication so concurrent jobs never execute the same spec twice.  The
  experiment runner runs each one-shot batch on one of these;
* :mod:`repro.service.requests` — parsing/compiling HTTP job requests
  (``run``/``multiprogram``/``study``/``explore``) into spec batches plus a
  finalize step that reduces results into a JSON payload;
* :mod:`repro.service.manifest` — the run-manifest schema every completed
  job carries (request, spec digests, code-version salt, store
  hit/miss/shared provenance) and its round-trip verification;
* :mod:`repro.service.server` — the ``repro serve`` daemon: a stdlib
  ``ThreadingHTTPServer`` exposing ``POST /jobs``, ``GET /jobs/<id>``,
  ``GET /jobs/<id>/result``, ``POST /jobs/<id>/cancel``, ``GET /healthz``
  and ``GET /store/stats``.

The thin Python client for the HTTP API lives in :mod:`repro.client`.
"""

# Re-exports resolve lazily: the experiment runner builds schedulers, so an
# eager package import here would cycle back through requests → runner →
# scheduler.  Lazy resolution also keeps `import repro.experiments` from
# dragging in the HTTP server machinery.
_EXPORTS = {
    "InlineBackend": "repro.service.backends",
    "ProcessPoolBackend": "repro.service.backends",
    "WorkerBackend": "repro.service.backends",
    "backend_for_jobs": "repro.service.backends",
    "resolve_jobs": "repro.service.backends",
    "job_manifest": "repro.service.manifest",
    "spec_from_payload": "repro.service.manifest",
    "verify_manifest": "repro.service.manifest",
    "compile_request": "repro.service.requests",
    "Job": "repro.service.scheduler",
    "QuotaExceededError": "repro.service.scheduler",
    "Scheduler": "repro.service.scheduler",
    "build_server": "repro.service.server",
    "serve": "repro.service.server",
}


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))


__all__ = [
    "InlineBackend",
    "Job",
    "ProcessPoolBackend",
    "QuotaExceededError",
    "Scheduler",
    "WorkerBackend",
    "backend_for_jobs",
    "build_server",
    "compile_request",
    "job_manifest",
    "resolve_jobs",
    "serve",
    "spec_from_payload",
    "verify_manifest",
]
