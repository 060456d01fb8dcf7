"""The benchmark's three workloads, driven only through public APIs.

Each workload builds its inputs from the benchmark seed in :meth:`prepare`
(repeatable: every call builds a fresh environment), runs one timed unit
of work per :meth:`iterate`, and checks every operation's output after
the clock stops.  Module-level program functions are looked up on their
modules at call time, so the traced run's wrappers see every call.
"""

from __future__ import annotations

import dataclasses
import random
import shutil
import tempfile
import threading
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import calibration
import oracle
from repro import client as service_client
from repro.experiments import jobs
from repro.experiments.store import ResultStore
from repro.experiments.studies import STUDIES
from repro.service import manifest as service_manifest
from repro.service import server as service_server
from repro.sim.config import SystemConfig
from repro.traces import format as trace_format
from repro.traces import recorder
from repro.workloads import registry
from repro.workloads.spec import SPEC_SPECS


@dataclass
class Op:
    """One checked operation: a cell, a replay or a request."""

    label: str
    #: accesses the kernels replayed for it (served: the accesses behind
    #: the stored cells the response reduces).
    accesses: int = 0
    digest: str | None = None
    #: digest of the fields a live oracle compares (trace-replay).
    compare: str | None = None
    problems: list = field(default_factory=list)


@dataclass
class Trip:
    """One round trip, submit to result: a figure row, a replay or a request.

    A row is timed cell by cell; its parts share its label and add up.
    """

    label: str
    #: raw host seconds.
    raw: float
    #: the host's slowdown over the stretch the trip ran in.
    slowdown: float = 1.0

    @property
    def seconds(self) -> float:
        """Seconds at the reference host speed (see calibration.py)."""

        return self.raw / self.slowdown


@dataclass
class Iteration:
    """One timed unit of work, its round trips and its checked operations.

    ``raw`` is host seconds without the calibration probes taken in it;
    ``wall`` the sum of its stretches between probes, each divided by the
    host's slowdown over it.
    """

    wall: float
    raw: float
    trips: list
    ops: list = field(default_factory=list)


class _Timer:
    """Times one iteration's round trips in stretches between host probes."""

    def __init__(self, probe: calibration.Probe) -> None:
        self._probe = probe
        self._slowdown = probe.slowdown()
        self._trips: list[Trip] = []
        self._pending: list[Trip] = []
        self._stretches: list[tuple[float, float]] = []
        self._mark = perf_counter()

    def run(self, label: str, action):
        """``action()``'s value, or the exception it raised."""

        began = perf_counter()
        value = _raises(action)
        trip = Trip(label, perf_counter() - began)
        self._trips.append(trip)
        self._pending.append(trip)
        return value

    def probe(self) -> None:
        """Close the stretch since the last probe and calibrate its trips."""

        seconds = perf_counter() - self._mark
        after = self._probe.slowdown()
        slowdown = (self._slowdown + after) / 2
        for trip in self._pending:
            trip.slowdown = slowdown
        self._stretches.append((seconds, slowdown))
        self._pending = []
        self._slowdown = after
        self._mark = perf_counter()

    def stop(self) -> Iteration:
        self.probe()
        return Iteration(
            wall=sum(seconds / slowdown for seconds, slowdown in self._stretches),
            raw=sum(seconds for seconds, _ in self._stretches),
            trips=self._trips,
        )


class Workload:
    """Interface shared by the three workloads (see module docs)."""

    name = ""
    #: raw seconds of one iteration on the reference host when it is busy;
    #: a run does ``--seconds / nominal_s`` iterations (at least one), so
    #: its work, and the memory it accumulates, is the same on every run.
    nominal_s = 1.0
    #: the calibration probe whose data behaves like this workload's.
    probe = calibration.INTERPRETER

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        #: set by the traced run; stamps operation ids and benchmark spans.
        self.tracer = None

    def _next_op(self) -> None:
        if self.tracer is not None:
            self.tracer.op += 1

    def _span(self, name: str):
        return self.tracer.span(name) if self.tracer is not None else nullcontext()

    def _scratch(self, prefix: str) -> Path:
        return Path(tempfile.mkdtemp(prefix=prefix, dir=self.workdir))

    def prepare(self) -> None:
        """Build this workload's inputs from the seed (set-up)."""

    def iterate(self) -> Iteration:
        """One timed unit of work; probes the host between operations."""

        raise NotImplementedError

    def verify(self, ops: list) -> None:
        """Checks that run once per run, after the timed region."""

    def model_record(self) -> dict | None:
        return None

    def close(self) -> None:
        """Stop what :meth:`prepare` started and remove its files."""


# ---------------------------------------------------------------------------
# figures-cold
# ---------------------------------------------------------------------------
#: Figure 10's matrix: the three regimes (within Markov capacity, beyond
#: it, poor streams Triangel declines to prefetch) × the headline series.
FIGURE_WORKLOADS = ("xalan", "mcf", "astar")
FIGURE_CONFIGS = ("triage", "triage-deg4", "triangel")
#: Figure 16's pair: the multiprogram step path and the shared L3/DRAM.
FIGURE_PAIR = ("xalan", "omnet")
PAIR_CONFIGS = ("triangel",)

PAPER_GEOMEANS = {
    "fig10_speedup": {"triage": 1.093, "triage-deg4": 1.142, "triangel": 1.264},
    "fig11_dram_traffic": {"triage": 1.285, "triage-deg4": 1.438, "triangel": 1.10},
}
MODEL_LABEL = "model unvalidated (synthetic SPEC-like workloads), no error figure"


def _raises(action):
    """``action()``'s value, or the exception it raised (counted as a failure)."""

    try:
        return action()
    except Exception as error:  # noqa: BLE001 - every failure is an output check
        return error


def _row(spec) -> str:
    """The figure row of a cell: its workload, or ``a+b`` for a pair."""

    if isinstance(spec, jobs.MultiProgramSpec):
        return "+".join(spec.workloads)
    return spec.workload


class FiguresCold(Workload):
    """A cold in-process regeneration of figure 10's matrix and figure 16's pair."""

    name = "figures-cold"
    nominal_s = 25.0
    probe = calibration.MEMORY

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        #: the seed reaches the program only as the traces' generator seed.
        self.overrides = {"seed": seed}
        self._store_dir: Path | None = None
        self._runner = None

    def prepare(self) -> None:
        self.fig10 = STUDIES.get("fig10").overridden(
            workloads=FIGURE_WORKLOADS, configurations=FIGURE_CONFIGS
        )
        self.fig11 = STUDIES.get("fig11").overridden(
            workloads=FIGURE_WORKLOADS, configurations=FIGURE_CONFIGS
        )
        self.fig16 = dataclasses.replace(
            STUDIES.get("fig16"), pairs=(FIGURE_PAIR,), configurations=PAIR_CONFIGS
        )

    def iterate(self) -> Iteration:
        self._drop_store()
        # Traces are generated inside the timed region, into an empty store.
        jobs.clear_trace_memo()
        self._store_dir = self._scratch("store-")
        cells = []
        failed_studies = {}
        timer = _Timer(self.probe)
        runner = self.fig10.make_runner(
            trace_overrides=self.overrides, store=ResultStore(self._store_dir), jobs=1
        )
        for study in (self.fig10, self.fig16):
            # One round trip per figure row: a workload's (or the pair's)
            # trace generated and simulated under every configuration.  A
            # single cell's time spreads by 10-15% on a busy host; a row's
            # sum of cells spreads less.  The host is probed after every
            # cell, so each row's slowdown averages several probes.
            rows: dict = {}
            for spec in study.compile(runner):
                rows.setdefault(_row(spec), []).append(spec)
            for row, specs in rows.items():
                for spec in specs:
                    self._next_op()
                    result = timer.run(row, lambda: runner.submit([spec])[spec])
                    timer.probe()
                    cells.append((study.name, spec, result))
            figure = _raises(lambda: study.run(runner))
            if isinstance(figure, Exception):
                failed_studies[study.name] = repr(figure)
        iteration = timer.stop()
        self._runner = runner
        for study_name, spec, result in cells:
            op = self._check(spec, result)
            if study_name in failed_studies:
                op.problems.append(f"{study_name} render: {failed_studies[study_name]}")
            iteration.ops.append(op)
        return iteration

    def _check(self, spec, result) -> Op:
        op = Op(label=f"{_row(spec)}/{spec.configuration}")
        if isinstance(result, Exception):
            op.problems.append(repr(result))
            return op
        if isinstance(spec, jobs.MultiProgramSpec):
            lengths = [SPEC_SPECS[name].length for name in spec.workloads]
            expected = oracle.multiprogram_accesses(
                lengths, spec.warmup_fraction, spec.max_accesses_per_core
            )
            per_core = [core.stats for core in result.core_results]
        else:
            expected = [
                oracle.sampled_accesses(
                    SPEC_SPECS[spec.workload].length,
                    spec.warmup_fraction,
                    spec.max_accesses,
                )
            ]
            per_core = [result]
        for stats, (warmup, sampled) in zip(per_core, expected):
            op.problems += oracle.invariant_problems(stats, sampled)
            op.accesses += warmup + stats.accesses
        op.digest = oracle.digest(oracle.stats_payload(result))
        return op

    def model_record(self) -> dict:
        """Simulated fig10/fig11 geomeans beside the paper's (store replay)."""

        speedup = self.fig10.run(self._runner).geomean_row()
        traffic = self.fig11.run(self._runner).geomean_row()
        return {
            "label": MODEL_LABEL,
            "seed": self.seed,
            "simulated": {
                "fig10_speedup": {name: speedup[name] for name in FIGURE_CONFIGS},
                "fig11_dram_traffic": {name: traffic[name] for name in FIGURE_CONFIGS},
            },
            "paper": PAPER_GEOMEANS,
        }

    def _drop_store(self) -> None:
        if self._store_dir is not None:
            shutil.rmtree(self._store_dir, ignore_errors=True)
            self._store_dir = None

    def close(self) -> None:
        self._drop_store()
        self._runner = None


# ---------------------------------------------------------------------------
# trace-replay
# ---------------------------------------------------------------------------
#: A pointer chain inside the scaled 4 KiB (64-line) L1, so the replay is
#: L1-resident after warm-up: the fused loop, stride prefetcher and trace
#: decoding do the work, the temporal prefetchers idle.  About one chain
#: order in 25 makes the stride prefetcher fire, and that chain replays
#: nearly twice as slowly.  So an iteration replays many short chains: how
#: many of them fire then barely moves its time or the 90th percentile.
CHASE_NODES = 48
CHASE_REPEATS = 320
CHASE_TRACES = 32
REPLAYS_PER_PROBE = 4
REPLAY_CONFIG = "triangel"


class TraceReplay(Workload):
    """Replays of recorded ``.rtrc`` pointer chases, each as a fresh
    ``repro run trace:…`` would: memos cleared, file opened, digested and
    decoded."""

    name = "trace-replay"
    nominal_s = 2.0

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.system = SystemConfig.scaled()
        self.traces = {
            f"chase{index}": {
                "nodes": CHASE_NODES,
                "repeats": CHASE_REPEATS,
                "seed": seed * CHASE_TRACES + index,
            }
            for index in range(CHASE_TRACES)
        }
        self._trace_dir: Path | None = None

    def prepare(self) -> None:
        self.close()
        self._trace_dir = self._scratch("traces-")
        registry.add_trace_directory(self._trace_dir)
        for name, overrides in self.traces.items():
            recorder.record_workload(
                "pointer_chase", self._trace_dir, name=name, overrides=overrides
            )

    def iterate(self) -> Iteration:
        replays = []
        timer = _Timer(self.probe)
        for position, name in enumerate(self.traces, 1):
            self._next_op()
            jobs.clear_trace_memo()
            trace_format.clear_digest_memo()
            stats = timer.run(
                name,
                lambda: jobs.execute_spec(
                    jobs.RunSpec.create(f"trace:{name}", REPLAY_CONFIG, self.system)
                ),
            )
            if position % REPLAYS_PER_PROBE == 0:
                timer.probe()
            replays.append((name, stats))
        iteration = timer.stop()
        iteration.ops = [self._check(*replay) for replay in replays]
        return iteration

    def _check(self, name: str, stats) -> Op:
        op = Op(label=name)
        if isinstance(stats, Exception):
            op.problems.append(repr(stats))
            return op
        overrides = self.traces[name]
        warmup, sampled = oracle.sampled_accesses(
            overrides["nodes"] * overrides["repeats"], 0.4, None
        )
        op.problems += oracle.invariant_problems(stats, sampled)
        op.accesses = warmup + stats.accesses
        op.digest = oracle.digest(oracle.stats_payload(stats))
        op.compare = _digest_without_workload(stats)
        return op

    def verify(self, ops: list) -> None:
        """Each replay must equal a live simulation of the generated stream."""

        live = {
            name: _digest_without_workload(
                jobs.execute_spec(
                    jobs.RunSpec.create(
                        "pointer_chase", REPLAY_CONFIG, self.system, trace_overrides=overrides
                    )
                )
            )
            for name, overrides in self.traces.items()
        }
        for op in ops:
            if op.compare is not None and op.compare != live[op.label]:
                op.problems.append("replay differs from a live simulation of the stream")

    def close(self) -> None:
        if self._trace_dir is not None:
            registry.remove_trace_directory(self._trace_dir)
            shutil.rmtree(self._trace_dir, ignore_errors=True)
            self._trace_dir = None


def _digest_without_workload(stats) -> str:
    # A replay is labelled trace:<name>, the live run pointer_chase.
    payload = dataclasses.asdict(stats)
    payload.pop("workload")
    return oracle.digest(payload)


# ---------------------------------------------------------------------------
# serve-warm
# ---------------------------------------------------------------------------
SERVE_STUDIES = ("fig10", "fig11", "fig12", "fig13", "fig14", "fig15")
#: One request per (study, subset size): request cost follows the number of
#: cells, so the mix stays the same across seeds while the subsets change.
SUBSET_SIZES = (2, 3, 4, 5)
#: Warm cost does not depend on trace length, so the store is filled short.
SERVE_TRACE_LENGTH = 500
SPEC_LIKE = tuple(SPEC_SPECS)
REQUESTS_PER_PROBE = 6


def _request_label(request: dict) -> str:
    return f"{request['name']}:{','.join(request['workloads'])}"


class ServeWarm(Workload):
    """A closed loop of one client sending study requests to a warm daemon."""

    name = "serve-warm"
    nominal_s = 1.0

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        rng = random.Random(seed)
        self.requests = [
            {
                "kind": "study",
                "name": name,
                "workloads": sorted(rng.sample(SPEC_LIKE, size)),
                "trace_length": SERVE_TRACE_LENGTH,
            }
            for name in SERVE_STUDIES
            for size in SUBSET_SIZES
        ]
        rng.shuffle(self.requests)
        self._server = None
        self._thread: threading.Thread | None = None
        self._store_dir: Path | None = None

    def prepare(self) -> None:
        self.close()
        self._store_dir = self._scratch("store-")
        filler = ResultStore(self._store_dir)
        self.expected = {}
        for request in self.requests:
            study = STUDIES.get(request["name"]).overridden(workloads=request["workloads"])
            runner = study.make_runner(
                trace_overrides={"length": SERVE_TRACE_LENGTH}, store=filler
            )
            runner.submit(study.compile(runner))
            # Rendered from the filled store, as the daemon will.
            figure = study.run(runner)
            self.expected[oracle.canonical(request)] = oracle.canonical(
                {
                    "figure": figure.figure,
                    "title": figure.title,
                    "table": figure.table,
                    "columns": figure.columns,
                    "rendered": figure.rendered,
                    "notes": figure.notes,
                }
            )
        store = ResultStore(self._store_dir)
        with self._span("experiments.store_load"):
            len(store)
        self._server = service_server.build_server(store, jobs=1)
        self._thread = threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": 0.05}
        )
        self._thread.start()
        self.client = service_client.ServiceClient(self._server.url, client="perfbench")

    def iterate(self) -> Iteration:
        responses = []
        timer = _Timer(self.probe)
        for position, request in enumerate(self.requests, 1):
            self._next_op()
            response = timer.run(_request_label(request), lambda: self._round_trip(request))
            responses.append((request, response))
            if position % REQUESTS_PER_PROBE == 0:
                timer.probe()
        iteration = timer.stop()
        iteration.ops = [self._check(*item) for item in responses]
        return iteration

    def _round_trip(self, request: dict) -> dict:
        job = self.client.submit(request)
        self.client.status(job["id"])
        return self.client.result(job["id"])

    def _check(self, request: dict, response) -> Op:
        op = Op(label=_request_label(request))
        if isinstance(response, Exception):
            op.problems.append(repr(response))
            return op
        manifest = response["manifest"]
        op.problems += service_manifest.verify_manifest(manifest)
        if manifest["store"]["executed"]:
            op.problems.append(f"executed {manifest['store']['executed']} spec(s)")
        served = oracle.canonical(response["result"])
        if served != self.expected[oracle.canonical(request)]:
            op.problems.append("table differs from the in-process render")
        op.accesses = len(manifest["specs"]) * SERVE_TRACE_LENGTH
        op.digest = oracle.digest(response["result"])
        return op

    def close(self) -> None:
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server.scheduler.close()
            self._thread.join(timeout=30)
            self._server = None
        if self._store_dir is not None:
            shutil.rmtree(self._store_dir, ignore_errors=True)
            self._store_dir = None


WORKLOADS = {cls.name: cls for cls in (FiguresCold, TraceReplay, ServeWarm)}
