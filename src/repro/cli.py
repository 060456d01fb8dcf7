"""Command-line interface for the Triangel reproduction.

The subcommands cover the common workflows without writing any Python:

``list``
    Show the available workloads, prefetcher configurations (parameterised
    ones with their parameter signatures), and registered studies.
``run``
    Simulate one workload under one (or several) configurations and print
    the paper's headline metrics, normalised against the stride-only
    baseline.
``study``
    Work with the declarative study registry: ``list`` the registered
    studies, ``describe`` one study's axes and compiled batch, or ``run``
    a study — one of the paper's figures or tables, printed as a text
    table — optionally with its axes overridden (``--workloads``,
    ``--configs``, and ``--set key=value`` for the system scale, metric, or
    any configuration parameter).  ``run --all`` regenerates every study;
    against a warm store that re-executes zero simulations.
``trace``
    Work with on-disk packed traces (the ``.rtrc`` format of
    :mod:`repro.traces`): ``record`` a registered generator's stream to a
    file, ``import`` a ChampSim-style LS text/gzip trace, ``info`` a
    file's header and footprint, or ``sample`` a window / systematic
    subsample into a new file.  Files on the trace search path (the
    ``REPRO_TRACE_DIR`` environment variable, default ``./traces``)
    resolve as first-class ``trace:<name>`` workloads everywhere a
    workload name is accepted — ``repro run``, ``--workloads`` study
    overrides, multiprogram pairs.
``explore``
    Search the configuration design space (:mod:`repro.experiments.
    explore`): ``run`` a grid or seeded-random search — every selected
    candidate runs the full trace — ``describe`` the compiled plan without
    simulating, or ``resume`` a killed search from its directory's
    manifest.  Every evaluated point is a normal spec in the result store,
    so resumed (or re-run) searches replay completed evaluations and
    re-execute nothing; results land as a Pareto front of
    coverage/accuracy against metadata traffic (``front.json``) plus a
    provenance log (``log.jsonl``).  Axis overrides (``--workloads``,
    ``--configs``, ``--set max_entries=64,4096``, ``--set scale=0.5,1``)
    are validated up front, exactly as ``study run`` overrides are.
``bench``
    Measure simulated accesses/second under both execution kernels (the
    readable reference engine and the fused columnar fast kernel of
    :mod:`repro.sim.kernel`) on a fixed synthetic workload and a recorded
    ``.rtrc`` trace, verify the two agree bit-for-bit, and write the
    ``BENCH_engine.json`` performance record.
``cache``
    Inspect (``show``) or empty (``clear``) the persistent result store
    that the simulating subcommands read and write under ``.repro_cache/``.
    ``show`` breaks the entries down by record kind (plain single-core
    runs, parameterised runs such as the replacement study, and
    multiprogram runs) and lists the latter two individually;
    ``show --json`` prints the same machine-readable statistics the
    daemon's ``GET /store/stats`` endpoint serves.
``serve``
    Run the simulation service daemon (:mod:`repro.service`): a
    long-running HTTP/JSON API over the shared result store, with a
    priority job scheduler, per-client quotas and cooperative
    cancellation.  Every client dedupes against the daemon's warm store,
    so concurrent submissions of overlapping studies execute each unique
    simulation at most once.
``submit`` / ``status`` / ``result`` / ``cancel``
    Talk to a running daemon (``--url``, or ``REPRO_SERVE_URL``):
    ``submit`` a run/multiprogram/study/explore job — with the same axis
    overrides ``study run`` takes — and optionally ``--wait`` for it;
    ``status`` polls a job's state and progress events; ``result``
    fetches the reduced tables plus the run manifest (spec digests,
    code-version salt, store provenance); ``cancel`` stops a queued job.

``run``, ``study run`` and ``explore run`` accept ``--jobs N`` to execute
simulation matrices in N worker processes (default: the ``REPRO_JOBS``
environment variable, or 1), and ``--cache-dir`` to relocate the result
store (the ``REPRO_CACHE_DIR`` environment variable does the same).  A
second invocation with the same parameters replays completed simulations
from the store instead of re-running them.

Examples::

    python -m repro list
    python -m repro run xalan --config triangel --config triage
    python -m repro run mcf --trace-length 20000 --max-accesses 10000
    python -m repro study list
    python -m repro study describe fig16
    python -m repro study run fig10 --jobs 4
    python -m repro study run table1
    python -m repro study run fig10 --workloads mcf,astar --jobs 4
    python -m repro study run replacement-study --set max_entries=2048
    python -m repro study run --all
    python -m repro trace record mcf --length 20000
    python -m repro trace import champsim_dump.trace.gz --name leela
    python -m repro trace info trace:leela
    python -m repro trace sample trace:leela --window 5000:20000 --name leela_hot
    python -m repro study run fig10 --workloads trace:leela --configs triangel
    python -m repro explore describe --set max_entries=64,256,1024
    python -m repro explore run --jobs 4
    python -m repro explore run --strategy random --seed 7 --set scale=0.5,1.0
    python -m repro explore resume --dir .repro_search
    python -m repro bench
    python -m repro cache show
    python -m repro cache show --json
    python -m repro cache clear
    python -m repro serve --port 8642 --jobs 4
    python -m repro submit study fig10 --workloads xalan --configs triangel --wait
    python -m repro status job-1a2b3c4d5e6f
    python -m repro result job-1a2b3c4d5e6f --json
    python -m repro cancel job-1a2b3c4d5e6f
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import Sequence

from repro import obs
from repro.client import ServiceClient, ServiceError
from repro.experiments.configs import configuration_signatures
from repro.experiments.runner import ExperimentRunner
from repro.experiments.store import ResultStore, default_store
from repro.experiments.studies import STUDIES
from repro.experiments.study import parse_assignments
from repro.service.backends import resolve_jobs
from repro.sim.config import SystemConfig
from repro.workloads.registry import available_workloads

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of Triangel (ISCA 2024): temporal prefetching experiments",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list available workloads and configurations")

    run_parser = subparsers.add_parser(
        "run", help="simulate one workload under one or more configurations"
    )
    run_parser.add_argument("workload", help="workload name (see `repro list`)")
    run_parser.add_argument(
        "--config",
        action="append",
        default=None,
        help="configuration name; may be repeated (default: triage and triangel)",
    )
    run_parser.add_argument(
        "--trace-length", type=int, default=None, help="override the trace length"
    )
    run_parser.add_argument(
        "--max-accesses", type=int, default=None, help="cap the sampled accesses"
    )
    run_parser.add_argument(
        "--warmup-fraction", type=float, default=0.4, help="warm-up fraction of the trace"
    )
    run_parser.add_argument(
        "--scale", type=float, default=1.0, help="system scale factor (1.0 = default sim scale)"
    )
    _add_execution_arguments(run_parser)

    study_parser = subparsers.add_parser(
        "study", help="list, describe, or run declarative studies"
    )
    study_subparsers = study_parser.add_subparsers(dest="study_command", required=True)
    study_subparsers.add_parser("list", help="list every registered study")
    describe_parser = study_subparsers.add_parser(
        "describe", help="show one study's axes and compiled batch"
    )
    describe_parser.add_argument("name", help="study name (see `repro study list`)")
    study_run_parser = study_subparsers.add_parser(
        "run", help="run one study (or --all), with optional axis overrides"
    )
    study_run_parser.add_argument(
        "name", nargs="?", default=None, help="study name (see `repro study list`)"
    )
    study_run_parser.add_argument(
        "--all", action="store_true", help="run every registered study"
    )
    study_run_parser.add_argument(
        "--set",
        action="append",
        dest="sets",
        default=None,
        metavar="KEY=VALUE",
        help="override a study axis (scale, system, metric, baseline, "
        "max_accesses_per_core) or any configuration parameter; repeatable",
    )
    study_run_parser.add_argument(
        "--workloads", default=None, help="comma-separated workload-axis override"
    )
    study_run_parser.add_argument(
        "--configs", default=None, help="comma-separated configuration-axis override"
    )
    study_run_parser.add_argument(
        "--trace-length", type=int, default=None, help="override every trace's length"
    )
    study_run_parser.add_argument(
        "--max-accesses", type=int, default=None, help="cap the sampled accesses per run"
    )
    _add_execution_arguments(study_run_parser)

    trace_parser = subparsers.add_parser(
        "trace", help="record, import, inspect or sample on-disk packed traces"
    )
    trace_subparsers = trace_parser.add_subparsers(dest="trace_command", required=True)

    def _add_output_arguments(parser: argparse.ArgumentParser) -> None:
        parser.add_argument(
            "--name", default=None, help="name for the written trace (sets the file stem)"
        )
        parser.add_argument(
            "--dir",
            dest="trace_dir",
            default=None,
            help="directory to write into (default: the first trace search-path entry)",
        )

    record_parser = trace_subparsers.add_parser(
        "record", help="record a registered workload generator's stream to disk"
    )
    record_parser.add_argument("workload", help="workload name (see `repro list`)")
    record_parser.add_argument(
        "--length", type=int, default=None, help="override the generated trace length"
    )
    record_parser.add_argument(
        "--override",
        action="append",
        dest="overrides",
        default=None,
        metavar="KEY=VALUE",
        help="extra generator override (e.g. seed=9); repeatable",
    )
    _add_output_arguments(record_parser)

    import_parser = trace_subparsers.add_parser(
        "import", help="import a ChampSim-style LS text/gzip trace file"
    )
    import_parser.add_argument("file", help="path of the trace file to import")
    import_parser.add_argument(
        "--radix",
        choices=("auto", "hex", "dec"),
        default="auto",
        help="radix of bare (un-prefixed) numbers; auto sniffs the file "
        "(one radix per file)",
    )
    _add_output_arguments(import_parser)

    info_parser = trace_subparsers.add_parser(
        "info", help="show a trace file's header, footprint and provenance"
    )
    info_parser.add_argument(
        "trace", help="trace workload name (trace:<name> or <name>) or a file path"
    )

    sample_parser = trace_subparsers.add_parser(
        "sample", help="write a sampled sub-trace (window or systematic) to disk"
    )
    sample_parser.add_argument(
        "trace", help="source: trace workload name (trace:<name>) or a file path"
    )
    sample_parser.add_argument(
        "--window",
        default=None,
        metavar="START:LENGTH",
        help="keep the contiguous window of LENGTH accesses starting at START",
    )
    sample_parser.add_argument(
        "--every",
        type=int,
        default=None,
        metavar="PERIOD",
        help="systematic sampling: keep a block out of every PERIOD accesses",
    )
    sample_parser.add_argument(
        "--block", type=int, default=1, help="accesses kept per period (default: 1)"
    )
    sample_parser.add_argument(
        "--offset", type=int, default=0, help="first sampled index (default: 0)"
    )
    _add_output_arguments(sample_parser)

    explore_parser = subparsers.add_parser(
        "explore",
        help="search the configuration design space (grid or seeded random)",
    )
    explore_subparsers = explore_parser.add_subparsers(
        dest="explore_command", required=True
    )

    def _add_search_arguments(parser: argparse.ArgumentParser) -> None:
        """The flags declaring a search (shared by ``run`` and ``describe``)."""

        parser.add_argument(
            "--strategy",
            choices=("grid", "random"),
            default="grid",
            help="search strategy (default: grid — every candidate in "
            "declaration order; random — a seeded shuffle)",
        )
        parser.add_argument(
            "--budget",
            type=int,
            default=None,
            help="cap on candidate evaluations; the selection shrinks to "
            "fit, never exceeding it",
        )
        parser.add_argument(
            "--seed", type=int, default=0,
            help="seed of the random candidate order (default: 0)",
        )
        parser.add_argument(
            "--workloads",
            default=None,
            metavar="W1[,W2...]",
            help="workload axis override (default: xalan)",
        )
        parser.add_argument(
            "--configs",
            default=None,
            metavar="C1[,C2...]",
            help="configuration axis override "
            "(default: triage-lru,triage-srrip,triage-hawkeye)",
        )
        parser.add_argument(
            "--set",
            action="append",
            dest="sets",
            default=None,
            metavar="KEY=V1[,V2...]",
            help="axis override: a comma list per key — configuration "
            "parameters become grid axes (--set max_entries=64,4096), "
            "'scale' a system-scale axis, 'system'/'baseline' single names",
        )
        parser.add_argument(
            "--objective",
            choices=("accuracy", "coverage", "metadata_traffic", "speedup"),
            default="coverage",
            help="metric the strategies rank candidates by (default: coverage)",
        )
        parser.add_argument(
            "--trace-length",
            type=int,
            default=None,
            help="truncate/extend generated traces to N accesses",
        )

    explore_run_parser = explore_subparsers.add_parser(
        "run", help="run a search and print its Pareto front"
    )
    _add_search_arguments(explore_run_parser)
    explore_run_parser.add_argument(
        "--dir",
        dest="search_dir",
        default=None,
        help="search directory for the manifest, log and front "
        "(default: .repro_search)",
    )
    _add_execution_arguments(explore_run_parser)
    explore_describe_parser = explore_subparsers.add_parser(
        "describe", help="show a search's candidates and plan (no simulation)"
    )
    _add_search_arguments(explore_describe_parser)
    explore_resume_parser = explore_subparsers.add_parser(
        "resume",
        help="re-run the search a directory's manifest describes; completed "
        "evaluations replay from the store",
    )
    explore_resume_parser.add_argument(
        "--dir",
        dest="search_dir",
        default=None,
        help="search directory holding search.json (default: .repro_search)",
    )
    _add_execution_arguments(explore_resume_parser)

    bench_parser = subparsers.add_parser(
        "bench",
        help="measure simulated accesses/second under both execution kernels",
    )
    bench_parser.add_argument(
        "--length", type=int, default=44_000, help="accesses per benchmark stream"
    )
    bench_parser.add_argument(
        "--repeats", type=int, default=3, help="timed runs per (case, kernel); best wins"
    )
    bench_parser.add_argument(
        "--output",
        default=None,
        help="where to write the JSON record (default: ./BENCH_engine.json; "
        "'-' skips writing)",
    )

    cache_parser = subparsers.add_parser(
        "cache", help="inspect or clear the persistent result store"
    )
    cache_parser.add_argument(
        "action", choices=("show", "clear"), help="what to do with the store"
    )
    cache_parser.add_argument(
        "--cache-dir", default=None, help="result-store directory (default: .repro_cache)"
    )
    cache_parser.add_argument(
        "--json",
        action="store_true",
        help="machine-readable statistics for `show` (the same payload the "
        "serve daemon's /store/stats endpoint returns)",
    )

    serve_parser = subparsers.add_parser(
        "serve", help="run the simulation service daemon (HTTP/JSON API)"
    )
    serve_parser.add_argument(
        "--host", default=None, help="bind address (default: 127.0.0.1)"
    )
    serve_parser.add_argument(
        "--port", type=int, default=None, help="TCP port (default: 8642; 0 picks a free port)"
    )
    serve_parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for submitted simulations "
        "(default: $REPRO_JOBS, or 1)",
    )
    serve_parser.add_argument(
        "--quota",
        type=int,
        default=None,
        help="per-client cap on unresolved (not-yet-simulated) specs; "
        "over-quota submissions are rejected with HTTP 429 (default: none)",
    )
    serve_parser.add_argument(
        "--cache-dir", default=None, help="result-store directory (default: .repro_cache)"
    )
    serve_parser.add_argument(
        "--no-cache", action="store_true", help="serve without a persistent store"
    )
    serve_parser.add_argument(
        "--verbose", action="store_true", help="log every HTTP request to stderr"
    )
    serve_parser.add_argument(
        "--telemetry",
        action="store_true",
        help="enable the telemetry layer (metrics registry, timing spans, "
        "event log; same as REPRO_TELEMETRY=1) — GET /metrics serves the "
        "registry either way, but series only move when enabled",
    )

    obs_parser = subparsers.add_parser(
        "obs", help="inspect the telemetry event log (requires REPRO_TELEMETRY=1 runs)"
    )
    obs_parser.add_argument(
        "action",
        choices=("tail", "summary"),
        help="'tail' prints the newest events; 'summary' aggregates by event type",
    )
    obs_parser.add_argument(
        "--count", type=int, default=20, help="events to show with 'tail' (default: 20)"
    )
    obs_parser.add_argument(
        "--cache-dir",
        default=None,
        help="cache directory whose obs/ log to read (default: .repro_cache "
        "or $REPRO_CACHE_DIR)",
    )
    obs_parser.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )

    def _add_client_arguments(parser: argparse.ArgumentParser) -> None:
        parser.add_argument(
            "--url",
            default=None,
            help="daemon base URL (default: $REPRO_SERVE_URL, or "
            "http://127.0.0.1:8642)",
        )
        parser.add_argument(
            "--json", action="store_true", help="print the raw JSON response"
        )

    submit_parser = subparsers.add_parser(
        "submit", help="submit a job to a running repro serve daemon"
    )
    submit_parser.add_argument(
        "kind",
        choices=("run", "multiprogram", "study", "spec", "explore"),
        help="what to submit (mirrors the daemon's request kinds)",
    )
    submit_parser.add_argument(
        "name",
        nargs="?",
        default=None,
        help="workload (run), study name (study), or configuration "
        "(multiprogram, with --workloads)",
    )
    _add_client_arguments(submit_parser)
    submit_parser.add_argument(
        "--client", default=None, help="client name for quotas and manifests"
    )
    submit_parser.add_argument(
        "--priority", type=int, default=0, help="scheduling priority (higher first)"
    )
    submit_parser.add_argument(
        "--workloads", default=None, help="comma-separated workload list/override"
    )
    submit_parser.add_argument(
        "--configs", default=None, help="comma-separated configuration list/override"
    )
    submit_parser.add_argument(
        "--set",
        action="append",
        dest="sets",
        default=None,
        metavar="KEY=VALUE",
        help="axis/parameter override, exactly as `study run --set`; repeatable",
    )
    submit_parser.add_argument(
        "--trace-length", type=int, default=None, help="override every trace's length"
    )
    submit_parser.add_argument(
        "--max-accesses", type=int, default=None, help="cap the sampled accesses per run"
    )
    submit_parser.add_argument(
        "--file",
        default=None,
        help="read the request body from a JSON file ('-' for stdin); "
        "command-line fields override its keys",
    )
    submit_parser.add_argument(
        "--wait", action="store_true", help="poll until the job finishes"
    )
    submit_parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="give up waiting after this many seconds (with --wait)",
    )

    status_parser = subparsers.add_parser(
        "status", help="show a submitted job's state and progress events"
    )
    status_parser.add_argument("job", help="job id (from `repro submit`)")
    status_parser.add_argument(
        "--after",
        type=int,
        default=None,
        help="only events with seq greater than this (streaming polls)",
    )
    _add_client_arguments(status_parser)

    result_parser = subparsers.add_parser(
        "result", help="fetch a completed job's result and run manifest"
    )
    result_parser.add_argument("job", help="job id (from `repro submit`)")
    _add_client_arguments(result_parser)

    cancel_parser = subparsers.add_parser(
        "cancel", help="cooperatively cancel a submitted job"
    )
    cancel_parser.add_argument("job", help="job id (from `repro submit`)")
    _add_client_arguments(cancel_parser)
    return parser


def _add_execution_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for simulation matrices "
        "(default: $REPRO_JOBS, or 1, in-process)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="result-store directory (default: .repro_cache or $REPRO_CACHE_DIR)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the persistent result store for this invocation",
    )
    parser.add_argument(
        "--telemetry",
        action="store_true",
        help="enable the telemetry layer for this invocation (metrics, "
        "timing spans, event log; same as REPRO_TELEMETRY=1); results are "
        "bit-identical either way",
    )


def _store_for(args: argparse.Namespace) -> ResultStore:
    cache_dir = getattr(args, "cache_dir", None)
    return ResultStore(cache_dir) if cache_dir else default_store()


def _trace_overrides(args: argparse.Namespace) -> dict:
    """Trace-generation overrides from the CLI flags (validated)."""

    length = getattr(args, "trace_length", None)
    if length is None:
        return {}
    if length <= 0:
        raise ValueError("--trace-length must be positive")
    return {"length": length}


def _resolve_jobs(args: argparse.Namespace) -> int:
    """The worker count for this invocation: flag, then environment, then 1."""

    return resolve_jobs(getattr(args, "jobs", None))


def _make_runner(args: argparse.Namespace) -> ExperimentRunner:
    overrides = _trace_overrides(args)
    return ExperimentRunner(
        system=SystemConfig.scaled(getattr(args, "scale", 1.0)),
        max_accesses=getattr(args, "max_accesses", None),
        trace_overrides=overrides,
        warmup_fraction=getattr(args, "warmup_fraction", 0.4),
        use_cache=not getattr(args, "no_cache", False),
        jobs=_resolve_jobs(args),
        store=_store_for(args),
    )


def _command_list() -> str:
    lines = ["Workloads:"]
    lines.extend(f"  {name}" for name in available_workloads())
    lines.append("Configurations:")
    # Parameterised configurations show their call-time parameter signature
    # (plain ones show nothing): e.g. `triage-lru(max_entries=1024)`.
    lines.extend(
        f"  {name}{signature}"
        for name, signature in configuration_signatures().items()
    )
    lines.append("Studies:")
    lines.extend(f"  {name}" for name in STUDIES.names())
    return "\n".join(lines)


def _command_run(args: argparse.Namespace) -> str:
    runner = _make_runner(args)
    configurations = args.config or ["triage", "triangel"]
    # One batch for the baseline plus every requested configuration, so
    # --jobs parallelises across them and the store is consulted once.
    matrix = runner.run_matrix([args.workload], ["baseline"] + configurations)
    per_config = matrix[args.workload]
    baseline = per_config["baseline"]
    lines = [
        f"workload: {args.workload} ({baseline.accesses} sampled accesses)",
        f"{'configuration':<20} {'speedup':>8} {'dram':>7} {'accuracy':>9} {'coverage':>9} {'markov ways':>12}",
    ]
    for configuration in configurations:
        stats = per_config[configuration]
        lines.append(
            f"{configuration:<20} "
            f"{stats.speedup_relative_to(baseline):>8.3f} "
            f"{stats.dram_traffic_relative_to(baseline):>7.3f} "
            f"{stats.accuracy:>9.3f} "
            f"{stats.coverage_relative_to(baseline):>9.3f} "
            f"{stats.markov_final_ways:>12d}"
        )
    return "\n".join(lines)


def _split_names(raw: str | None, flag: str) -> list[str] | None:
    """Split a comma-separated name list, tolerating whitespace.

    An explicitly given but empty list is an error — overriding an axis
    to nothing would print a degenerate table, not fail loudly.
    """

    if raw is None:
        return None
    names = [name.strip() for name in raw.split(",") if name.strip()]
    if not names:
        raise ValueError(f"{flag}: no names given")
    return names


def _command_study(args: argparse.Namespace) -> str | None:
    """Implement ``repro study list|describe|run``.

    Returns the text to print, or ``None`` when the ``run --all`` path has
    already streamed each table as it completed.
    """

    if args.study_command == "list":
        lines = []
        for name, study in STUDIES.items():
            lines.append(f"{name:<20} {study.figure}: {study.display_title()}")
        return "\n".join(lines)
    if args.study_command == "describe":
        return STUDIES.describe(args.name)

    # -- run ---------------------------------------------------------------
    assignments = parse_assignments(args.sets)
    workloads = _split_names(args.workloads, "--workloads")
    configurations = _split_names(args.configs, "--configs")
    if args.all:
        # Axis overrides are per-study (a scale valid for fig10 is invalid
        # for table2's fixed paper system); combining them with --all would
        # either crash mid-sweep or silently skip, so reject up front — as
        # is a study name, which --all would otherwise silently ignore.
        if args.name is not None:
            raise ValueError(
                f"repro study run: give either {args.name!r} or --all, not both"
            )
        if assignments or workloads or configurations:
            raise ValueError(
                "repro study run --all does not take axis overrides; "
                "run the overridden study by name instead"
            )
        if args.max_accesses is not None or args.trace_length is not None:
            # Truncation flags don't apply uniformly across the sweep
            # (multiprogram studies cap per-core, Graph500 traces take no
            # length); failing at fig16/fig17 mid-sweep would waste the
            # minutes already simulated, so reject before starting.
            raise ValueError(
                "repro study run --all does not take truncation flags; "
                "run truncated studies by name instead"
            )
        names = STUDIES.names()
    elif args.name is not None:
        names = [args.name]
    else:
        raise ValueError("repro study run: give a study name or --all")

    store = _store_for(args)
    outputs = []
    for name in names:
        study = STUDIES.get(name).overridden(
            workloads=workloads,
            configurations=configurations,
            assignments=assignments,
        )
        if study.pairs and args.max_accesses is not None:
            # Multiprogram specs cap per-core accesses, not total sampled
            # accesses; silently running uncapped would mislabel the table.
            raise ValueError(
                f"study {name!r} runs multiprogrammed; --max-accesses does "
                f"not apply — use --set max_accesses_per_core=N"
            )
        # The runner carries the study's (possibly overridden) system axis
        # plus this invocation's execution policy.
        runner = study.make_runner(
            max_accesses=args.max_accesses,
            trace_overrides=_trace_overrides(args),
            use_cache=not args.no_cache,
            jobs=_resolve_jobs(args),
            store=store,
        )
        rendered = study.run(runner).rendered
        if args.all:
            # Print each table as it completes so a long sweep streams its
            # results instead of holding everything until the end.
            print(rendered)
            print()
        else:
            outputs.append(rendered)
    return "\n".join(outputs) if not args.all else None


def _trace_output_dir(args: argparse.Namespace) -> Path:
    """The directory a trace-writing subcommand targets (one rule for all)."""

    from repro.workloads.registry import trace_search_path

    return Path(args.trace_dir) if args.trace_dir else trace_search_path()[0]


def _trace_output_path(args: argparse.Namespace, default_name: str) -> Path:
    """Where a trace-writing subcommand should put its file."""

    from repro.workloads.registry import TRACE_SUFFIX

    return _trace_output_dir(args) / f"{args.name or default_name}{TRACE_SUFFIX}"


def _resolve_trace_source(raw: str) -> Path:
    """A trace argument as a file path or a (``trace:``-prefixed) name."""

    from repro.workloads.registry import resolve_trace_path

    path = Path(raw)
    if path.is_file():
        return path
    return resolve_trace_path(raw)


def _workload_claim(path: Path, name: str) -> str:
    """How a freshly written trace file is addressable as a workload.

    Only files on the trace search path resolve as ``trace:<name>``;
    claiming the name for a file written elsewhere (``--dir /tmp/out``)
    would advertise a workload that does not exist, so point at the
    environment variable instead.
    """

    from repro.workloads.registry import TRACE_DIR_ENV, TRACE_PREFIX, trace_search_path

    parent = path.parent.resolve()
    if any(parent == directory.resolve() for directory in trace_search_path()):
        return f"workload {TRACE_PREFIX}{name}"
    return (
        f"not on the trace search path — set {TRACE_DIR_ENV}={path.parent} "
        f"to run it as {TRACE_PREFIX}{name}"
    )


def _command_trace(args: argparse.Namespace) -> str:
    """Implement ``repro trace record|import|info|sample``."""

    from repro.traces.format import open_trace, save_trace, trace_file_digest
    from repro.workloads.registry import TRACE_PREFIX

    # `--name trace:leela` means the workload name, not a literal file stem
    # — a stem containing the prefix would resolve as trace:trace:leela,
    # i.e. never.  Normalise once for every writing subcommand.
    explicit_name = getattr(args, "name", None)
    if explicit_name and explicit_name.startswith(TRACE_PREFIX):
        args.name = explicit_name[len(TRACE_PREFIX):]
        if not args.name:
            raise ValueError("--name: empty trace name")

    if args.trace_command == "record":
        from repro.experiments.study import coerce_param
        from repro.traces.recorder import record_workload

        overrides = {
            key: coerce_param(value)
            for key, value in parse_assignments(args.overrides).items()
        }
        if args.length is not None:
            if args.length <= 0:
                raise ValueError("--length must be positive")
            overrides["length"] = args.length
        path = record_workload(
            args.workload,
            directory=_trace_output_dir(args),
            name=args.name,
            overrides=overrides,
        )
        # The written file's stem IS the workload name; path.stem already
        # reflects the recorder's prefix-stripping, so derive it from there
        # rather than re-deriving (and possibly double-prefixing) it here.
        return (
            f"recorded {args.workload} -> {path} "
            f"({_workload_claim(path, path.stem)})"
        )

    if args.trace_command == "import":
        from repro.traces.champsim import import_champsim_trace

        imported = import_champsim_trace(args.file, name=args.name, radix=args.radix)
        path = _trace_output_path(args, imported.name)
        save_trace(imported, path)
        return (
            f"imported {args.file} -> {path} "
            f"({len(imported)} accesses; {_workload_claim(path, imported.name)})"
        )

    if args.trace_command == "info":
        from repro.traces.format import FORMAT_VERSION, TraceFormatError, read_header
        from repro.workloads.trace import LINE_SHIFT

        path = _resolve_trace_source(args.trace)
        try:
            trace, header = open_trace(path)
        except TraceFormatError:
            # Inspection must still work on files this build refuses to
            # *load* — an earlier build's encoding or a foreign line shift
            # is exactly what a user needs `info` to diagnose.  Genuinely
            # corrupt files re-raise.
            header = read_header(path)
            if header.version == FORMAT_VERSION and header.line_shift == LINE_SHIFT:
                raise
            trace = None
        lines = [
            f"file:         {path} ({path.stat().st_size} bytes)",
            f"name:         {header.name}",
            f"format:       .rtrc v{header.version}, line shift {header.line_shift}",
        ]
        if trace is None:
            if header.version != FORMAT_VERSION:
                reason = (
                    f"written by an earlier build as .rtrc v{header.version}; "
                    f"this build reads only v{FORMAT_VERSION} — regenerate it "
                    f"with `repro trace record|import|sample`"
                )
            else:
                reason = (
                    f"recorded under line shift {header.line_shift}; this "
                    f"build simulates {1 << LINE_SHIFT}-byte lines (shift "
                    f"{LINE_SHIFT})"
                )
            lines += [
                f"accesses:     {header.records}",
                f"note:         {reason}, so the payload cannot be replayed "
                f"(header shown only)",
            ]
        else:
            if len(trace):
                payload = trace.payload_bytes
                lines += [
                    f"encoding:     {trace.chunk_count} chunk(s) x "
                    f"{trace.chunk_records} records, zlib payload "
                    f"{payload} bytes",
                    f"              {payload / len(trace):.2f} B/access vs 16 raw "
                    f"({16 * len(trace) / payload:.1f}x smaller)",
                ]
            unique_lines = trace.unique_lines()
            lines += [
                f"accesses:     {len(trace)}",
                f"writes:       {trace.write_count()}",
                f"unique lines: {unique_lines} "
                f"({unique_lines << header.line_shift} bytes footprint)",
                f"unique pcs:   {trace.unique_pcs()}",
                f"digest:       {trace_file_digest(path)[:16]}",
            ]
        for key in ("recorded", "imported", "sampled"):
            if key in header.metadata:
                details = ", ".join(
                    f"{k}={v}" for k, v in sorted(header.metadata[key].items())
                )
                lines.append(f"{key + ':':<13} {details}")
        generator = header.metadata.get("generator")
        if generator:
            lines.append(f"generator:    {generator}")
        return "\n".join(lines)

    # -- sample ------------------------------------------------------------
    if (args.window is None) == (args.every is None):
        raise ValueError(
            "repro trace sample: give exactly one of --window START:LENGTH "
            "or --every PERIOD"
        )
    source, _header = open_trace(_resolve_trace_source(args.trace))
    if args.window is not None:
        from repro.traces.samplers import sample_window

        if args.block != 1 or args.offset != 0:
            # Silently writing a plain window would drop the options the
            # user asked for; reject, as every other inapplicable-override
            # path in this CLI does.
            raise ValueError(
                "--block/--offset apply to --every (systematic) sampling, "
                "not --window"
            )
        start_text, separator, length_text = args.window.partition(":")
        if not separator:
            raise ValueError("--window takes START:LENGTH (e.g. 5000:20000)")
        try:
            start, length = int(start_text), int(length_text)
        except ValueError:
            raise ValueError("--window START and LENGTH must be integers") from None
        sampled = sample_window(source, start, length, name=args.name)
    else:
        from repro.traces.samplers import sample_systematic

        sampled = sample_systematic(
            source, args.every, block=args.block, offset=args.offset, name=args.name
        )
    path = _trace_output_path(args, sampled.name)
    save_trace(sampled, path)
    provenance = sampled.metadata["sampled"]
    return (
        f"sampled {source.name} ({len(source)} accesses) -> {path} "
        f"({len(sampled)} accesses, {provenance['sampler']} sampler; "
        f"{_workload_claim(path, sampled.name)})"
    )


def _command_explore(args: argparse.Namespace) -> str:
    """Implement ``repro explore run|describe|resume``."""

    from repro.experiments import explore

    if args.explore_command == "resume":
        directory = args.search_dir or explore.DEFAULT_SEARCH_DIR
        result = explore.resume_search(
            directory,
            store=_store_for(args),
            use_cache=not args.no_cache,
            jobs=_resolve_jobs(args),
        )
        return explore.render_search(result)

    space = explore.overridden_space(
        workloads=_split_names(args.workloads, "--workloads"),
        configurations=_split_names(args.configs, "--configs"),
        assignments=parse_assignments(args.sets),
    )
    if args.explore_command == "describe":
        return explore.describe_search(
            space,
            strategy=args.strategy,
            budget=args.budget,
            seed=args.seed,
            objective=args.objective,
            trace_overrides=_trace_overrides(args),
        )
    result = explore.run_search(
        space,
        strategy=args.strategy,
        budget=args.budget,
        seed=args.seed,
        directory=args.search_dir or explore.DEFAULT_SEARCH_DIR,
        objective=args.objective,
        trace_overrides=_trace_overrides(args),
        store=_store_for(args),
        use_cache=not args.no_cache,
        jobs=_resolve_jobs(args),
    )
    return explore.render_search(result)


def _command_bench(args: argparse.Namespace) -> str:
    """Implement ``repro bench``: kernel microbenchmark + JSON record."""

    from repro.experiments.bench import (
        BENCH_FILENAME,
        render_bench,
        run_bench,
        write_bench,
    )

    record = run_bench(length=args.length, repeats=args.repeats)
    lines = [render_bench(record)]
    if args.output != "-":
        path = write_bench(record, args.output or BENCH_FILENAME)
        lines.append(f"wrote {path}")
    return "\n".join(lines)


def _command_cache(args: argparse.Namespace) -> str:
    """Implement ``repro cache show|clear``: inspect or empty the store."""

    from repro.experiments.store import store_stats_payload

    store = _store_for(args)
    if args.action == "clear":
        if args.json:
            raise ValueError("--json applies to `cache show`, not `cache clear`")
        dropped = store.clear()
        return f"cleared {dropped} cached result(s) from {store.directory}"
    if args.json:
        # The exact payload the serve daemon's GET /store/stats returns —
        # one serializer (store_stats_payload) feeds both.
        return json.dumps(store_stats_payload(store), indent=2, sort_keys=True)
    info = store.stats()
    size = store.results_path.stat().st_size if store.results_path.exists() else 0
    lines = [
        f"store:   {info.path}",
        f"entries: {info.entries}",
        f"size:    {size} bytes",
    ]
    records = store.records()
    labels: dict[str, list[str]] = {}
    counts: dict[str, int] = {}
    for meta in records:
        counts[meta["kind"]] = counts.get(meta["kind"], 0) + 1
        if meta["label"] is not None:
            labels.setdefault(meta["kind"], []).append(meta["label"])
    for kind in ("run", "parameterised run", "multiprogram"):
        if kind in counts:
            lines.append(f"  {kind + ' records:':<26} {counts[kind]}")
            for label in sorted(labels.get(kind, [])):
                lines.append(f"    {label}")
    return "\n".join(lines)


def _command_serve(args: argparse.Namespace) -> int:
    """Implement ``repro serve``: run the service daemon until SIGTERM."""

    from repro.service.server import DEFAULT_HOST, DEFAULT_PORT, serve

    if args.quota is not None and args.quota < 1:
        raise ValueError(f"--quota must be at least 1, got {args.quota}")
    store = None if args.no_cache else _store_for(args)
    return serve(
        store,
        host=args.host or DEFAULT_HOST,
        port=DEFAULT_PORT if args.port is None else args.port,
        jobs=_resolve_jobs(args),
        quota=args.quota,
        verbose=args.verbose,
    )


def _client_for(args: argparse.Namespace) -> ServiceClient:
    return ServiceClient(args.url, client=getattr(args, "client", None))


def _submit_payload(args: argparse.Namespace) -> dict:
    """Build the ``POST /jobs`` body from the ``repro submit`` flags.

    ``--file`` supplies a base JSON body (the round-trip path: a fetched
    manifest's ``specs`` resubmit verbatim under ``kind=spec``); explicit
    flags override its keys.
    """

    payload: dict = {}
    if args.file:
        raw = sys.stdin.read() if args.file == "-" else Path(args.file).read_text()
        try:
            payload = json.loads(raw)
        except json.JSONDecodeError as error:
            raise ValueError(f"--file: not valid JSON: {error}") from None
        if not isinstance(payload, dict):
            raise ValueError("--file: the request body must be a JSON object")
    payload["kind"] = args.kind
    assignments = parse_assignments(args.sets)
    if assignments:
        payload["set"] = {**(payload.get("set") or {}), **assignments}
    workloads = _split_names(args.workloads, "--workloads")
    configurations = _split_names(args.configs, "--configs")
    if args.kind == "run":
        if args.name:
            payload["workload"] = args.name
        if not payload.get("workload"):
            raise ValueError("repro submit run: give a workload name")
        if configurations:
            payload["configurations"] = configurations
    elif args.kind == "study":
        if args.name:
            payload["name"] = args.name
        if not payload.get("name"):
            raise ValueError("repro submit study: give a study name")
        if workloads:
            payload["workloads"] = workloads
        if configurations:
            payload["configs"] = configurations
    elif args.kind == "multiprogram":
        if args.name:
            payload["configuration"] = args.name
        if workloads:
            payload["workloads"] = workloads
        if not payload.get("configuration") or not payload.get("workloads"):
            raise ValueError(
                "repro submit multiprogram: give a configuration name and "
                "--workloads W1,W2"
            )
    elif args.kind == "explore":
        if workloads:
            payload["workloads"] = workloads
        if configurations:
            payload["configs"] = configurations
    elif args.kind == "spec" and not payload.get("specs"):
        raise ValueError(
            "repro submit spec: provide the specs via --file (a JSON body "
            "with a 'specs' list, e.g. a fetched manifest's specs)"
        )
    if args.trace_length is not None:
        payload["trace_length"] = args.trace_length
    if args.max_accesses is not None:
        payload["max_accesses"] = args.max_accesses
    if args.priority:
        payload["priority"] = args.priority
    return payload


def _render_job_result(result: dict) -> str:
    """Human-readable form of a ``GET /jobs/<id>/result`` response."""

    payload = result.get("result") or {}
    manifest = result.get("manifest") or {}
    if payload.get("rendered"):
        body = payload["rendered"]
    elif payload.get("description"):
        body = payload["description"]
    else:
        body = json.dumps(payload, indent=2, sort_keys=True)
    provenance = manifest.get("store") or {}
    summary = (
        f"store: {provenance.get('hits', 0)} hit(s), "
        f"{provenance.get('executed', 0)} executed, "
        f"{provenance.get('shared', 0)} shared"
    )
    return f"{body}\n{summary}"


def _render_job_snapshot(snapshot: dict) -> str:
    """Human-readable form of a job status snapshot."""

    specs = snapshot.get("specs") or {}
    lines = [
        f"job {snapshot['id']}: {snapshot['state']} "
        f"({snapshot['kind']}: {snapshot['label']})",
        f"  specs: {specs.get('resolved', 0)}/{specs.get('total', 0)} resolved "
        f"(store {specs.get('store', 0)}, executed {specs.get('executed', 0)}, "
        f"shared {specs.get('shared', 0)})",
    ]
    if snapshot.get("error"):
        lines.append(f"  error: {snapshot['error']}")
    for event in snapshot.get("events") or []:
        detail = ", ".join(
            f"{key}={value}"
            for key, value in event.items()
            if key not in ("seq", "time", "event")
        )
        lines.append(
            f"  [{event['seq']}] {event['event']}" + (f": {detail}" if detail else "")
        )
    return "\n".join(lines)


def _command_submit(args: argparse.Namespace) -> str:
    """Implement ``repro submit``: build the request, post it, maybe wait."""

    with _client_for(args) as client:
        job = client.submit(_submit_payload(args))
        if not args.wait:
            if args.json:
                return json.dumps(job, indent=2, sort_keys=True)
            return (
                f"submitted {job['id']} ({job['kind']}: {job['label']}) "
                f"to {client.url}\npoll with: repro status {job['id']}"
            )
        try:
            snapshot = client.wait(job["id"], timeout=args.timeout)
        except TimeoutError as error:
            raise ValueError(str(error)) from None
        if snapshot["state"] != "completed":
            suffix = f": {snapshot['error']}" if snapshot.get("error") else ""
            raise ValueError(f"job {job['id']} {snapshot['state']}{suffix}")
        result = client.result(job["id"])
    if args.json:
        return json.dumps(
            {**result, "wait": client.last_wait}, indent=2, sort_keys=True
        )
    return _render_job_result(result)


def _command_obs(args: argparse.Namespace) -> str:
    """Implement ``repro obs``: tail or summarise the telemetry event log."""

    from repro.obs.events import EventLog, default_log_path

    log = EventLog(default_log_path(getattr(args, "cache_dir", None)))
    if args.action == "tail":
        if args.count < 1:
            raise ValueError("--count must be at least 1")
        records = log.tail(args.count)
        if args.json:
            return json.dumps(records, indent=2, sort_keys=True)
        if not records:
            return (
                f"no telemetry events under {log.path}\n"
                "(produce some with --telemetry or REPRO_TELEMETRY=1)"
            )
        lines = []
        for record in records:
            stamp = time.strftime("%H:%M:%S", time.localtime(record["ts"]))
            detail = " ".join(
                f"{key}={record[key]}"
                for key in sorted(record)
                if key not in ("v", "ts", "event")
            )
            lines.append(f"{stamp}  {record['event']:<16} {detail}".rstrip())
        return "\n".join(lines)

    records = log.read()
    by_event: dict[str, int] = {}
    for record in records:
        by_event[record["event"]] = by_event.get(record["event"], 0) + 1
    summary = {
        "path": str(log.path),
        "files": [str(path) for path in log.paths()],
        "events": len(records),
        "by_event": by_event,
        "first_ts": records[0]["ts"] if records else None,
        "last_ts": records[-1]["ts"] if records else None,
    }
    if args.json:
        return json.dumps(summary, indent=2, sort_keys=True)
    if not records:
        return (
            f"no telemetry events under {log.path}\n"
            "(produce some with --telemetry or REPRO_TELEMETRY=1)"
        )
    span_s = summary["last_ts"] - summary["first_ts"]
    lines = [
        f"event log: {log.path} ({len(log.paths())} file(s))",
        f"{len(records)} event(s) spanning {span_s:.1f}s",
    ]
    width = max(len(name) for name in by_event)
    for name, count in sorted(by_event.items(), key=lambda item: -item[1]):
        lines.append(f"  {name:<{width}}  {count}")
    return "\n".join(lines)


def _command_status(args: argparse.Namespace) -> str:
    """Implement ``repro status``: one job's state and progress events."""

    with _client_for(args) as client:
        snapshot = client.status(args.job, after=args.after)
    if args.json:
        return json.dumps(snapshot, indent=2, sort_keys=True)
    return _render_job_snapshot(snapshot)


def _command_result(args: argparse.Namespace) -> str:
    """Implement ``repro result``: a completed job's payload + manifest."""

    with _client_for(args) as client:
        result = client.result(args.job)
    if args.json:
        return json.dumps(result, indent=2, sort_keys=True)
    return _render_job_result(result)


def _command_cancel(args: argparse.Namespace) -> str:
    """Implement ``repro cancel``: cooperative cancellation by job id."""

    with _client_for(args) as client:
        outcome = client.cancel(args.job)
    if args.json:
        return json.dumps(outcome, indent=2, sort_keys=True)
    if outcome.get("cancelled"):
        return f"cancelled {args.job}"
    state = (outcome.get("job") or {}).get("state", "unknown")
    return f"job {args.job} was not cancellable (already {state})"


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""

    args = build_parser().parse_args(argv)
    if getattr(args, "telemetry", False):
        # Before any simulation or server construction, so module-level
        # producers see the toggle and pool workers inherit it via the env.
        obs.set_enabled(True)
    try:
        if args.command == "list":
            print(_command_list())
        elif args.command == "run":
            print(_command_run(args))
        elif args.command == "study":
            output = _command_study(args)
            if output is not None:
                print(output)
        elif args.command == "trace":
            print(_command_trace(args))
        elif args.command == "explore":
            print(_command_explore(args))
        elif args.command == "bench":
            from repro.experiments.bench import BenchParityError

            try:
                print(_command_bench(args))
            except BenchParityError as error:
                # A kernel divergence is a bug, not bad input: render it
                # cleanly but exit 1 (not the validation-error 2) so CI and
                # scripts can tell the two apart.
                print(f"repro: {error}", file=sys.stderr)
                return 1
        elif args.command == "cache":
            print(_command_cache(args))
        elif args.command == "obs":
            print(_command_obs(args))
        elif args.command == "serve":
            return _command_serve(args)
        elif args.command == "submit":
            print(_command_submit(args))
        elif args.command == "status":
            print(_command_status(args))
        elif args.command == "result":
            print(_command_result(args))
        elif args.command == "cancel":
            print(_command_cancel(args))
    except BrokenPipeError:  # e.g. `repro cache show | head`
        # The reader went away mid-write.  Point stdout at devnull so the
        # interpreter's shutdown flush doesn't re-raise and dirty the exit
        # status with "Exception ignored" noise.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (ValueError, FileNotFoundError, ServiceError) as error:
        # Validation errors (unknown names, inapplicable overrides, bad
        # flags, missing/corrupt trace files) and service-call failures
        # (daemon unreachable, rejected submission, unknown job) are user
        # input problems: deliver the message, not a traceback.
        print(f"repro: {error}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
