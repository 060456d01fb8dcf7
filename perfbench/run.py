"""Benchmark of record for the Triangel reproduction.

    python3 perfbench/run.py --workload figures-cold --seed 1 --seconds 25 --trace 0

Runs one workload in this process, from the root of a source checkout:

* ``figures-cold``  a cold regeneration of figure 10's matrix and figure
  16's pair (the simulator's cache model and temporal prefetchers);
* ``trace-replay``  replays of recorded ``.rtrc`` pointer chases (the fused
  loop, the stride prefetcher and trace decoding);
* ``serve-warm``    a closed loop of one client against a warm
  ``repro serve`` daemon (specs, hashing, the store, reduce, HTTP).

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
runs the workload untraced and then traced, and prints the per-layer
metrics.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A run record (commit,
seed, interpreter, host, sample counts) and, for traced runs, every span
are written under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import time

import calibration

# The memory probe's table is the benchmark's own, not the program's set-up,
# and is built before the program is imported (see calibration.py).
calibration.MEMORY.build()
STARTED = time.perf_counter()

import argparse  # noqa: E402 - the clock starts before any other import
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
WORK = ROOT / ".perfbench"

#: Environment the program reads; cleared so every run sees the defaults.
PINNED_ENV = (
    "REPRO_KERNEL",
    "REPRO_JOBS",
    "REPRO_SHARDS",
    "REPRO_TELEMETRY",
    "REPRO_CACHE_DIR",
    "REPRO_TRACE_DIR",
)
#: Set-up is repeated and its median reported, so one slow repetition
#: does not move ``setup_s``.
SETUP_REPEATS = 3
#: Seed of the recorded digests; ``digests.json`` also holds a held-out one.
DEFAULT_SEED = 1


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=("figures-cold", "trace-replay", "serve-warm")
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-digests",
        action="store_true",
        help="store this run's output digests in digests.json for its seed",
    )
    return parser.parse_args(argv)


def _commit() -> str | None:
    """HEAD of the checkout's git metadata, when there is any."""

    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _measure(workload, count: int) -> list:
    return [workload.iterate() for _ in range(count)]


def _iterations(workload, seconds: float) -> int:
    return max(1, round(seconds / workload.nominal_s))


def _ops(iterations) -> list:
    return [op for iteration in iterations for op in iteration.ops]


def _check_recorded(workload, ops) -> None:
    import oracle

    recorded = oracle.load_recorded().get(workload.name, {}).get(str(workload.seed))
    if not recorded:
        return
    for op in ops:
        if op.digest is not None and recorded.get(op.label) != op.digest:
            op.problems.append(f"digest differs from the recorded {op.label}")


def _peak_rss_mb() -> float:
    """Peak resident set of this process, without the memory probe's table."""

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return peak - calibration.MEMORY.resident_mb


def _end_to_end(iterations, setup_s: float) -> dict:
    # Every time is calibrated (see calibration.py): host seconds at the
    # reference speed.
    walls = [iteration.wall for iteration in iterations]
    rates = [
        sum(op.accesses for op in iteration.ops) / iteration.wall for iteration in iterations
    ]
    # Round trips: each one's median over the run's iterations, then
    # percentiles across them, which describe the mix.
    by_label: dict = {}
    for iteration in iterations:
        trips: dict = {}
        for trip in iteration.trips:
            trips[trip.label] = trips.get(trip.label, 0.0) + trip.seconds
        for label, seconds in trips.items():
            by_label.setdefault(label, []).append(seconds)
    latencies = [statistics.median(values) for values in by_label.values()]
    p90 = (
        statistics.quantiles(latencies, n=10, method="inclusive")[-1]
        if len(latencies) > 1
        else latencies[0]
    )
    return {
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "sim_accesses_per_s": {"value": statistics.median(rates), "unit": "accesses/s"},
        "rtt_p50_ms": {"value": statistics.median(latencies) * 1e3, "unit": "ms"},
        "rtt_p90_ms": {"value": p90 * 1e3, "unit": "ms"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": _peak_rss_mb(), "unit": "MiB"},
    }


def _run_untraced(workload, args, import_s: float) -> tuple[dict, list, dict]:
    # Set-up (imports, trace recording, store fill, daemon start) is
    # interpreter-bound work, so the interpreter probe calibrates it.
    setups = []
    slowdowns = [calibration.INTERPRETER.slowdown()]
    for _ in range(SETUP_REPEATS):
        began = time.perf_counter()
        workload.prepare()
        setups.append(time.perf_counter() - began)
        slowdowns.append(calibration.INTERPRETER.slowdown())
    setup_slowdown = statistics.median(slowdowns)
    setup_s = (import_s + statistics.median(setups)) / setup_slowdown
    iterations = _measure(workload, _iterations(workload, args.seconds))
    ops = _ops(iterations)
    workload.verify(ops)
    details = {
        "iterations": len(iterations),
        "probe": "memory" if workload.probe is calibration.MEMORY else "interpreter",
        "raw_iteration_s": [iteration.raw for iteration in iterations],
        "iteration_s": [iteration.wall for iteration in iterations],
        "trips": [
            [trip.label, trip.raw, trip.slowdown]
            for iteration in iterations
            for trip in iteration.trips
        ],
        "probe_resident_mb": calibration.MEMORY.resident_mb,
        "raw_import_s": import_s,
        "raw_setup_s": setups,
        "setup_slowdown": setup_slowdown,
        "model": workload.model_record(),
    }
    return _end_to_end(iterations, setup_s), ops, details


def _run_traced(workload, args) -> tuple[dict, list, dict, dict]:
    import layers

    workload.prepare()
    untraced = _measure(workload, max(1, _iterations(workload, args.seconds) // 2))
    untraced_ops = _ops(untraced)
    workload.verify(untraced_ops)
    workload.close()

    tracer = layers.Tracer()
    tracer.install()
    try:
        workload.tracer = tracer
        workload.prepare()
        tracer.phase = "timed"
        traced = _measure(workload, len(untraced))
        workload.close()
    finally:
        tracer.restore()
    traced_ops = _ops(traced)
    mismatched = [
        before.label
        for before, after in zip(untraced_ops, traced_ops)
        if before.digest != after.digest
    ]
    for op in traced_ops:
        if op.label in mismatched:
            op.problems.append("traced output digest differs from the untraced run")
    overhead = statistics.median(it.wall for it in traced) / statistics.median(
        it.wall for it in untraced
    )
    metrics = tracer.metrics({"trace_overhead": {"value": overhead, "unit": "ratio"}})
    details = {
        "iterations": len(untraced),
        "raw_untraced_s": [it.raw for it in untraced],
        "raw_traced_s": [it.raw for it in traced],
        "untraced_s": [it.wall for it in untraced],
        "traced_s": [it.wall for it in traced],
    }
    return metrics, untraced_ops + traced_ops, details, tracer.dump()


def main(argv=None) -> int:
    args = _parse(argv)
    for name in PINNED_ENV:
        os.environ.pop(name, None)
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SOURCE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    # Relative defaults (./traces, ./.repro_cache) now resolve inside the
    # run's own scratch directory, never the checkout's.
    os.chdir(workdir)
    try:
        import repro
        from repro.experiments.jobs import code_version

        if Path(repro.__file__).resolve().parent != SOURCE / "repro":
            print(f"perfbench: imported repro from {repro.__file__}", file=sys.stderr)
            return 2
        import oracle
        from workloads import WORKLOADS

        import_s = time.perf_counter() - STARTED
        workload = WORKLOADS[args.workload](args.seed, workdir)
        try:
            if args.trace:
                metrics, ops, details, spans = _run_traced(workload, args)
            else:
                metrics, ops, details = _run_untraced(workload, args, import_s)
                spans = None
        finally:
            workload.close()
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)

    _check_recorded(workload, ops)
    failed = [op for op in ops if op.problems]
    if args.record_digests:
        if failed:
            print("perfbench: not recording digests of a failing run", file=sys.stderr)
            return 1
        oracle.record(workload.name, args.seed, {op.label: op.digest for op in ops})

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "commit": _commit(),
        "code_version": code_version(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "run_seconds": args.seconds,
        "operations": len(ops),
        "error_rate": len(failed) / len(ops) if ops else 1.0,
        "failures": [f"{op.label}: {op.problems}" for op in failed[:10]],
        "pinned_env_cleared": list(PINNED_ENV),
        **details,
    }
    records = WORK / "records"
    records.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (records / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans is not None:
        (records / f"{stem}-spans.json").write_text(json.dumps(spans) + "\n")

    for name, metric in metrics.items():
        print(f"{name:48} {metric['value']:>16.6g} {metric['unit']}")
    print(f"{'error_rate':48} {record['error_rate']:>16.6g} fraction ({len(failed)}/{len(ops)})")
    for failure in record["failures"]:
        print(f"FAILED {failure}")
    print(json.dumps({"record": record}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": not failed,
                "attempted": len(ops),
                "failed": len(failed),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
