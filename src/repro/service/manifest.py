"""Run manifests: the provenance record every completed job carries.

A manifest is the service's answer to "what exactly produced this result?".
It captures the original request, the canonical form *and* content digest of
every spec the job resolved, the code-version salt those digests were
computed under, and how each spec was satisfied (store hit, fresh execution,
or shared with a concurrently running job).  ``GET /jobs/<id>/result``
returns it alongside the reduced tables, and the smoke tests in CI assert
on its ``store`` block (e.g. *zero re-executions against a warm store*).

The canonical spec dictionaries are the same JSON
:meth:`~repro.experiments.jobs.RunSpec.as_dict` forms that key the result
store, so a manifest round-trips: :func:`spec_from_payload` rebuilds the
frozen spec objects, and :func:`verify_manifest` checks that every recorded
digest still matches what the rebuilt spec hashes to under the current
code version.  A verification failure means the result was produced by
different code (or the manifest was edited) — exactly the staleness the
store's version salt guards against, surfaced at the API boundary.
"""

from __future__ import annotations

import time
from dataclasses import fields
from typing import TYPE_CHECKING, Mapping

from repro.experiments.jobs import (
    MultiProgramSpec,
    RunSpec,
    _freeze,
    code_version,
)
from repro.experiments.store import ResultStore, Spec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.scheduler import Job

#: Bump when the manifest layout changes incompatibly.
MANIFEST_VERSION = 1


def spec_payload(spec: Spec) -> dict:
    """One manifest entry for a spec: digest + kind + canonical form."""

    data = spec.as_dict()
    return {"digest": spec.content_hash(), "kind": data["kind"], "spec": data}


def spec_from_payload(payload: Mapping) -> Spec:
    """Rebuild the frozen spec a manifest entry (or job request) describes.

    Accepts the canonical :meth:`~repro.experiments.jobs.RunSpec.as_dict` /
    :meth:`~repro.experiments.jobs.MultiProgramSpec.as_dict` form.  The
    rebuild is exact — freezing the thawed trees restores the original
    tuples, and JSON floats round-trip bit-for-bit — so
    ``spec_from_payload(spec.as_dict()).content_hash() == spec.content_hash()``
    holds for every spec, which is what manifest verification relies on.
    Keys outside the canonical form are rejected rather than dropped: a
    spec that silently lost a field would hash — and replay — as a
    different simulation than the one its sender described.
    """

    data = dict(payload)
    kind = data.pop("kind", "run")
    spec_type = {"run": RunSpec, "multiprogram": MultiProgramSpec}.get(kind)
    if spec_type is None:
        raise ValueError(f"unknown spec kind {kind!r} (expected run or multiprogram)")
    unknown = sorted(set(data) - {field.name for field in fields(spec_type)})
    if unknown:
        raise ValueError(
            f"{kind} spec has unknown field(s) {', '.join(map(repr, unknown))}; "
            f"expected the canonical form a manifest records"
        )
    if kind == "run":
        return RunSpec(
            workload=data["workload"],
            configuration=data["configuration"],
            system=_freeze(data["system"]),
            trace_overrides=_freeze(data.get("trace_overrides") or {}),
            warmup_fraction=data.get("warmup_fraction", 0.4),
            max_accesses=data.get("max_accesses"),
            config_params=_freeze(data.get("config_params") or {}),
            trace_digests=_freeze(data.get("trace_digests") or {}),
        )
    return MultiProgramSpec(
        workloads=tuple(data["workloads"]),
        configuration=data["configuration"],
        system=_freeze(data["system"]),
        trace_overrides=_freeze(data.get("trace_overrides") or {}),
        warmup_fraction=data.get("warmup_fraction", 0.4),
        max_accesses_per_core=data.get("max_accesses_per_core"),
        share_metadata=data.get("share_metadata", True),
        config_params=_freeze(data.get("config_params") or {}),
        trace_digests=_freeze(data.get("trace_digests") or {}),
    )


def job_manifest(job: "Job", store: ResultStore | None = None) -> dict:
    """The Snippet-3-style ``manifest.json`` for one job.

    ``store`` (when given) contributes the cache path the provenance
    counters refer to.  The manifest is pure JSON — every spec appears in
    its canonical dictionary form with its content digest, salted by the
    ``code_version`` recorded at the top level.
    """

    return {
        "manifest_version": MANIFEST_VERSION,
        "generated": time.time(),
        "code_version": code_version(),
        "job": {
            "id": job.id,
            "kind": job.kind,
            "label": job.label,
            "client": job.client,
            "priority": job.priority,
            "state": job.state,
            "submitted": job.submitted,
            "finished": job.finished,
        },
        "request": dict(job.request),
        "specs": [spec_payload(spec) for spec in job.specs],
        "store": {
            "path": str(store.directory) if store is not None else None,
            "hits": job.provenance["store"],
            "executed": job.provenance["executed"],
            "shared": job.provenance["shared"],
        },
    }


def verify_manifest(manifest: Mapping) -> list[str]:
    """Check a manifest's digests against the current code; list problems.

    Returns an empty list when every spec entry rebuilds to a spec whose
    ``content_hash`` matches the recorded digest and the recorded
    ``code_version`` matches the running code.  Each problem is one
    human-readable string — suitable for printing or asserting empty.
    """

    problems: list[str] = []
    recorded = manifest.get("code_version")
    if recorded != code_version():
        problems.append(
            f"manifest code_version {recorded!r} does not match the running "
            f"code ({code_version()!r}); its results were produced by a "
            f"different simulator version"
        )
        # Digests are salted by code version, so every one would mismatch
        # for the same root cause — report the version skew once instead.
        return problems
    for position, entry in enumerate(manifest.get("specs", [])):
        try:
            spec = spec_from_payload(entry["spec"])
        except (KeyError, TypeError, ValueError) as error:
            problems.append(f"spec #{position} does not rebuild: {error}")
            continue
        if spec.content_hash() != entry.get("digest"):
            problems.append(
                f"spec #{position} ({entry.get('digest', '?')[:12]}…) digest "
                f"mismatch: rebuilt spec hashes to "
                f"{spec.content_hash()[:12]}…"
            )
    return problems
