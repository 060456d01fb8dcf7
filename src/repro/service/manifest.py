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
store, except that each distinct system tree is written once, in the
manifest's ``systems`` table, under the :func:`system_key` of its canonical
JSON, and a spec entry's ``system`` names its tree by that key (an inline
tree is also read, as version 1 manifests wrote it).  So a manifest
round-trips: :func:`spec_from_payload` rebuilds the frozen spec objects
from the pair, and :func:`verify_manifest` checks that every system key
and every recorded digest still matches what the rebuilt tree and spec hash
to under the current code version.  A verification failure means the result
was produced by different code (or the manifest was edited) — exactly the
staleness the store's version salt guards against, surfaced at the API
boundary.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import fields
from typing import TYPE_CHECKING, Mapping

from repro.experiments.jobs import (
    MultiProgramSpec,
    RunSpec,
    _freeze,
    _thaw,
    code_version,
    tree_json,
)
from repro.experiments.store import ResultStore, Spec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.scheduler import Job

#: Bump when the manifest layout changes incompatibly.
MANIFEST_VERSION = 2
#: Layouts :func:`verify_manifest` reads: version 1 inlined every spec's
#: system tree; version 2 names it in the ``systems`` table.
READABLE_MANIFEST_VERSIONS = (1, 2)


def system_key(tree: tuple) -> str:
    """The key a manifest files a frozen system tree under.

    A digest of the tree's canonical JSON, so trees that compare equal but
    encode differently (``25`` and ``25.0``) get different keys, exactly as
    they give their specs different content hashes.
    """

    return hashlib.sha256(tree_json(tree).encode()).hexdigest()[:16]


def spec_payload(spec: Spec, system: str | None = None) -> dict:
    """One manifest entry for a spec: digest + kind + canonical form.

    With ``system`` (the tree's :func:`system_key`) the entry names its
    system tree instead of inlining it.
    """

    data = spec.as_dict() if system is None else {**spec.canonical_fields(), "system": system}
    return {"digest": spec.content_hash(), "kind": data["kind"], "spec": data}


def frozen_systems(table) -> dict[str, tuple]:
    """A manifest's ``systems`` table (key → tree), each tree frozen once.

    ``None`` (no table) gives an empty one.  The keys are not checked
    against the trees here; :func:`verify_manifest` does that.
    """

    if table is None:
        return {}
    if not isinstance(table, Mapping) or not all(
        isinstance(tree, Mapping) for tree in table.values()
    ):
        raise ValueError("'systems' must map each system key to a system tree")
    return {key: _freeze(tree) for key, tree in table.items()}


def spec_from_payload(payload: Mapping, systems: Mapping[str, tuple] | None = None) -> Spec:
    """Rebuild the frozen spec a manifest entry (or job request) describes.

    Accepts the canonical :meth:`~repro.experiments.jobs.RunSpec.as_dict` /
    :meth:`~repro.experiments.jobs.MultiProgramSpec.as_dict` form, whose
    ``system`` is either the tree itself or a key into ``systems`` (the
    :func:`frozen_systems` of a manifest's table; specs naming one key
    share its tree).  The rebuild is exact — freezing the thawed trees
    restores the original tuples, and JSON floats round-trip bit-for-bit —
    so ``spec_from_payload(spec.as_dict()).content_hash() ==
    spec.content_hash()`` holds for every spec, which is what manifest
    verification relies on.  Keys outside the canonical form are rejected
    rather than dropped: a spec that silently lost a field would hash — and
    replay — as a different simulation than the one its sender described.
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
    system = data["system"]
    if isinstance(system, str):
        if system not in (systems or {}):
            raise ValueError(f"{kind} spec names unknown system {system!r}")
        system = systems[system]
    elif isinstance(system, Mapping):
        system = _freeze(system)
    else:
        raise ValueError(
            f"{kind} spec's system must be a system tree or a key of the "
            f"manifest's systems table, got {system!r}"
        )
    if kind == "run":
        return RunSpec(
            workload=data["workload"],
            configuration=data["configuration"],
            system=system,
            trace_overrides=_freeze(data.get("trace_overrides") or {}),
            warmup_fraction=data.get("warmup_fraction", 0.4),
            max_accesses=data.get("max_accesses"),
            config_params=_freeze(data.get("config_params") or {}),
            trace_digests=_freeze(data.get("trace_digests") or {}),
        )
    return MultiProgramSpec(
        workloads=tuple(data["workloads"]),
        configuration=data["configuration"],
        system=system,
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
    ``code_version`` recorded at the top level, and names its system tree
    in the ``systems`` table, which holds each distinct tree once.
    """

    systems: dict[str, dict] = {}
    keys: dict[int, str] = {}  # id(tree) -> key; job.specs keeps each tree alive
    entries = []
    for spec in job.specs:
        key = keys.get(id(spec.system))
        if key is None:
            key = keys[id(spec.system)] = system_key(spec.system)
            if key not in systems:
                systems[key] = _thaw(spec.system)
        entries.append(spec_payload(spec, key))
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
        "systems": systems,
        "specs": entries,
        "store": {
            "path": str(store.directory) if store is not None else None,
            "hits": job.provenance["store"],
            "executed": job.provenance["executed"],
            "shared": job.provenance["shared"],
        },
    }


def verify_manifest(manifest: Mapping) -> list[str]:
    """Check a manifest's digests against the current code; list problems.

    Returns an empty list when the manifest's layout is one this code
    reads, its recorded ``code_version`` matches the running code, every
    ``systems`` tree hashes to its key, and every spec entry rebuilds to a
    spec whose ``content_hash`` matches the recorded digest.  Each problem
    is one human-readable string — suitable for printing or asserting
    empty — and each fault is reported once: a spec naming a tree that
    failed its own check is not reported again.
    """

    version = manifest.get("manifest_version")
    if version not in READABLE_MANIFEST_VERSIONS:
        return [
            f"manifest_version {version!r} is not one this code reads "
            f"({', '.join(map(str, READABLE_MANIFEST_VERSIONS))})"
        ]
    recorded = manifest.get("code_version")
    if recorded != code_version():
        # Digests are salted by code version, so every one would mismatch
        # for the same root cause — report the version skew once instead.
        return [
            f"manifest code_version {recorded!r} does not match the running "
            f"code ({code_version()!r}); its results were produced by a "
            f"different simulator version"
        ]
    try:
        systems = frozen_systems(manifest.get("systems"))
    except ValueError as error:
        return [str(error)]
    problems: list[str] = []
    failed: set[str] = set()
    for key, tree in systems.items():
        if system_key(tree) != key:
            failed.add(key)
            problems.append(
                f"system {key!r} digest mismatch: its tree hashes to "
                f"{system_key(tree)!r}"
            )
    for position, entry in enumerate(manifest.get("specs", [])):
        try:
            named = entry["spec"].get("system")
            if isinstance(named, str) and named in failed:
                continue
            spec = spec_from_payload(entry["spec"], systems)
        except (AttributeError, KeyError, TypeError, ValueError) as error:
            problems.append(f"spec #{position} does not rebuild: {error}")
            continue
        if spec.content_hash() != entry.get("digest"):
            problems.append(
                f"spec #{position} ({str(entry.get('digest', '?'))[:12]}…) digest "
                f"mismatch: rebuilt spec hashes to "
                f"{spec.content_hash()[:12]}…"
            )
    return problems
