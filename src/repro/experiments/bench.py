"""The ``repro bench`` engine microbenchmark: simulated accesses per second.

Every figure in the repository is bounded by how fast the engine replays
memory accesses, so this module measures exactly that — the same simulation
run under the **reference** kernel (readable, object-per-access) and the
**fast** kernel (fused, columnar, allocation-free; see
:mod:`repro.sim.kernel`) — and records the result in ``BENCH_engine.json``,
the repository's performance trajectory file.

Two benchmark cases bracket the engine's operating range:

* ``synthetic-xalan`` — the ``xalan`` synthetic workload under the full
  Triangel stack, packed in memory at build time.  Fill- and
  prefetch-heavy, so the shared cache model dominates; this is the
  end-to-end figure-generation rate.
* ``replay-hot`` — a *recorded* ``.rtrc`` pointer-chase trace whose working
  set stays L1-resident after warm-up, replayed under the same Triangel
  stack.  With almost no cache-model work per access, the per-access engine
  overhead is the measurement — the replay-rate ceiling, and the case where
  the fused kernel's object elimination shows up undiluted.  This is "the
  packed-trace benchmark" the project tracks a ≥ 2× fast-vs-reference
  target on.

Both kernels must agree bit-for-bit on every statistic; a mismatch makes
the bench fail (and exit non-zero from the CLI) rather than report a
meaningless rate.  Timing uses best-of-``repeats`` wall time over the whole
run, warm-up included.

Each case also records ``fast_calls_per_access``: the Python and C calls
one fast-kernel run makes, per access, counted by a profile hook in a
separate untimed pass (:func:`count_fast_calls`).  Unlike a rate, the
count is exact and repeats from run to run, so it is the ledger a change
to the per-access path quotes; a speed claim still rests on timed runs.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import tempfile
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro import obs
from repro.experiments.configs import build_prefetchers
from repro.sim.config import SystemConfig
from repro.sim.engine import Simulator
from repro.sim.kernel import run_fast
from repro.sim.stream import access_columns
from repro.sim.timing import TimingModel

#: Where the CLI writes the benchmark record by default (repository root in
#: development checkouts; the current directory otherwise).
BENCH_FILENAME = "BENCH_engine.json"

#: Lines in the replay-hot chain: well inside the scaled 4 KiB L1.
_HOT_CHAIN_LINES = 48

#: The kernels every case is timed under, in record order: the readable
#: reference engine and the fast kernel it is held to.  Both are called as
#: ``kernel(simulator, trace, **options)``.
KERNELS = {"reference": Simulator.run, "fast": run_fast}


class BenchParityError(RuntimeError):
    """The two kernels disagreed on a statistic — the bench result is void."""


@dataclass
class BenchCase:
    """One (workload, configuration) cell measured under both kernels."""

    name: str
    workload: str
    configuration: str
    description: str
    trace: object = field(repr=False)


def _simulator(system: SystemConfig, configuration: str) -> Simulator:
    return Simulator(
        system.build_hierarchy(),
        build_prefetchers(configuration, system),
        timing=TimingModel(system.timing),
        config=system,
        configuration_name=configuration,
    )


def _assert_prepared(case: BenchCase) -> None:
    """Assert a case's stream statistics work stays off the timed path.

    The kernels ask the trace for its columns; a stream that re-packed (or
    re-expanded its write bitset) per call would bill that preparation to
    whichever kernel ran first and skew every rate.  Likewise the footprint
    counters the bench does *not* time must be memoised, not recomputed.
    """

    columns = access_columns(case.trace)
    again = access_columns(case.trace)
    if (
        again.pcs is not columns.pcs
        or again.addresses is not columns.addresses
        or again.writes is not columns.writes
    ):
        raise BenchParityError(
            f"{case.name}: trace re-packs its columns per call — stream "
            f"preparation would leak into the timed region"
        )
    counter = getattr(case.trace, "write_count", None)
    if counter is not None:
        counter()
        if getattr(case.trace, "_write_count", 0) is None:
            raise BenchParityError(
                f"{case.name}: write_count is not memoised — footprint "
                f"statistics would recount on every inspection"
            )


def _measure(
    case: BenchCase,
    system: SystemConfig,
    kernel: str,
    repeats: int,
    warmup_fraction: float,
) -> tuple[float, dict]:
    """Best wall-time over ``repeats`` runs and the (identical) statistics."""

    best = None
    stats = None
    warmup = int(len(case.trace) * warmup_fraction)
    for _ in range(repeats):
        simulator = _simulator(system, case.configuration)
        started = time.perf_counter()
        result = KERNELS[kernel](
            simulator,
            case.trace,
            workload_name=case.workload,
            warmup_accesses=warmup,
        )
        elapsed = time.perf_counter() - started
        if best is None or elapsed < best:
            best = elapsed
        stats = asdict(result.stats)
    return best, stats


def count_fast_calls(
    case: BenchCase, system: SystemConfig, warmup_fraction: float
) -> int:
    """Python and C calls made by one fast-kernel run of ``case`` (untimed).

    Counted with a :func:`sys.setprofile` hook around the kernel call only:
    the simulator is built, the trace's columns prepared and the telemetry
    switch resolved (it reads the environment on first use) before the
    hook is installed, so the count does not depend on what the process
    ran before.
    """

    simulator = _simulator(system, case.configuration)
    warmup = int(len(case.trace) * warmup_fraction)
    access_columns(case.trace)
    obs.enabled()
    calls = 0

    def count(frame, event, arg) -> None:
        nonlocal calls
        if event == "call" or event == "c_call":
            calls += 1

    sys.setprofile(count)
    try:
        KERNELS["fast"](
            simulator,
            case.trace,
            workload_name=case.workload,
            warmup_accesses=warmup,
        )
    finally:
        sys.setprofile(None)
    return calls


def _bench_cases(length: int, trace_dir: Path) -> list[BenchCase]:
    """Build the two benchmark streams (packing/recording is not timed)."""

    from repro.experiments.jobs import trace_for_workload
    from repro.traces.format import load_trace, pack_trace
    from repro.traces.recorder import record_workload

    synthetic = pack_trace(
        trace_for_workload("xalan", {"length": length}), name="xalan"
    )
    repeats = max(2, length // _HOT_CHAIN_LINES)
    recorded_path = record_workload(
        "pointer_chase",
        directory=trace_dir,
        name="bench_hot",
        overrides={"nodes": _HOT_CHAIN_LINES, "repeats": repeats},
    )
    recorded = load_trace(recorded_path)
    return [
        BenchCase(
            name="synthetic-xalan",
            workload="xalan",
            configuration="triangel",
            description=(
                "fill/prefetch-heavy synthetic workload, packed at build "
                "time; end-to-end figure-generation rate"
            ),
            trace=synthetic,
        ),
        BenchCase(
            name="replay-hot",
            workload="trace:bench_hot",
            configuration="triangel",
            description=(
                "recorded .rtrc pointer chase, L1-resident after warm-up; "
                "per-access engine overhead, the replay-rate ceiling"
            ),
            trace=recorded,
        ),
    ]


def _best_of(action, repeats: int) -> float:
    """Best wall time of ``action()`` over ``repeats`` runs."""

    best = None
    for _ in range(repeats):
        started = time.perf_counter()
        action()
        elapsed = time.perf_counter() - started
        if best is None or elapsed < best:
            best = elapsed
    return best


def _measure_trace_io(trace_dir: Path, repeats: int) -> dict:
    """Size and full-load time of the recorded ``bench_hot`` trace.

    A full load opens the file and inflates every chunk into columns —
    what a ``trace:`` replay pays before its first simulated access.
    """

    from repro.traces.format import load_trace

    path = trace_dir / "bench_hot.rtrc"  # written by _bench_cases
    size = path.stat().st_size
    accesses = len(load_trace(path))
    load_seconds = _best_of(lambda: load_trace(path).access_columns(), repeats)
    return {
        "trace": "bench_hot",
        "accesses": accesses,
        "bytes": size,
        "bytes_per_access": round(size / accesses, 3),
        "full_load_seconds": round(load_seconds, 6),
    }


def run_bench(
    length: int = 44_000,
    repeats: int = 3,
    scale: float = 1.0,
    warmup_fraction: float = 0.25,
) -> dict:
    """Run every bench case under both kernels; return the JSON-safe record.

    Raises :class:`BenchParityError` if any case's statistics differ
    between kernels — speed numbers for diverging simulations would be
    meaningless, and the parity guarantee is the fast kernel's contract.
    """

    if length <= 0:
        raise ValueError("--length must be positive")
    if repeats <= 0:
        raise ValueError("--repeats must be positive")
    system = SystemConfig.scaled(scale)
    record: dict = {
        "bench": "engine-kernels",
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "host": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "machine": platform.machine(),
        },
        "length": length,
        "repeats": repeats,
        "kernels": list(KERNELS),
        "cases": [],
    }
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
        for case in _bench_cases(length, Path(tmp)):
            _assert_prepared(case)
            timings: dict[str, float] = {}
            statistics: dict[str, dict] = {}
            for kernel in KERNELS:
                timings[kernel], statistics[kernel] = _measure(
                    case, system, kernel, repeats, warmup_fraction
                )
            if statistics["reference"] != statistics["fast"]:
                diverging = sorted(
                    key
                    for key in statistics["reference"]
                    if statistics["reference"][key] != statistics["fast"][key]
                )
                raise BenchParityError(
                    f"{case.name}: kernels disagree on {diverging} — "
                    f"fast-kernel results are not trustworthy"
                )
            accesses = len(case.trace)
            reference_aps = accesses / timings["reference"]
            fast_aps = accesses / timings["fast"]
            calls = count_fast_calls(case, system, warmup_fraction)
            record["cases"].append(
                {
                    "name": case.name,
                    "workload": case.workload,
                    "configuration": case.configuration,
                    "description": case.description,
                    "accesses": accesses,
                    "reference_seconds": round(timings["reference"], 6),
                    "fast_seconds": round(timings["fast"], 6),
                    "reference_accesses_per_second": round(reference_aps),
                    "fast_accesses_per_second": round(fast_aps),
                    "speedup": round(fast_aps / reference_aps, 2),
                    "fast_calls_per_access": round(calls / accesses, 2),
                    "parity": True,
                }
            )

        # Trace-container I/O on the recorded hot trace: its size on disk
        # and what loading it costs.
        record["trace_io"] = _measure_trace_io(Path(tmp), repeats)
    record["packed_trace_speedup"] = next(
        case["speedup"] for case in record["cases"] if case["name"] == "replay-hot"
    )
    return record


def render_bench(record: dict) -> str:
    """The bench record as the aligned text table the CLI prints."""

    lines = [
        f"engine kernel benchmark ({record['python']}, "
        f"best of {record['repeats']}, parity-checked)",
        f"{'case':<18} {'config':<10} {'accesses':>9} "
        f"{'reference/s':>12} {'fast/s':>12} {'speedup':>8} {'calls/access':>13}",
    ]
    for case in record["cases"]:
        lines.append(
            f"{case['name']:<18} {case['configuration']:<10} "
            f"{case['accesses']:>9} "
            f"{case['reference_accesses_per_second']:>12,} "
            f"{case['fast_accesses_per_second']:>12,} "
            f"{case['speedup']:>7.2f}x "
            f"{case['fast_calls_per_access']:>13.2f}"
        )
    trace_io = record.get("trace_io")
    if trace_io:
        lines.append(
            f"trace I/O ({trace_io['trace']}, {trace_io['accesses']} accesses): "
            f"{trace_io['bytes']:,} bytes, {trace_io['bytes_per_access']} "
            f"B/access, full load {trace_io['full_load_seconds']:.4f}s"
        )
    return "\n".join(lines)


def write_bench(record: dict, path: str | Path) -> Path:
    """Write the record as stable, diff-friendly JSON; returns the path."""

    path = Path(path)
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return path


def main(argv=None) -> int:  # pragma: no cover - thin CLI shim for tooling
    """Allow ``python -m repro.experiments.bench`` in scripts."""

    record = run_bench()
    print(render_bench(record))
    write_bench(record, BENCH_FILENAME)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
