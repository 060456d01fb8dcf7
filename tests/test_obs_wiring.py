"""Tests for the telemetry *wiring*: kernel → scheduler → service.

The unit behaviour of the metrics registry, spans and event log lives in
``test_obs.py``; this module checks the layers that record into them:

* the kernels take a bounded number of clock samples per run — zero when
  telemetry is disabled (the allocation-free contract) — and statistics
  are bit-identical either way;
* jobs carry per-phase breakdowns and the scheduler's ring-buffered event
  log keeps ``seq`` semantics with explicit gap reporting;
* the daemon serves ``/metrics`` and measures per-endpoint latency;
* the client's decorrelated poll backoff grows, caps, and is accounted.
"""

from __future__ import annotations

import json
import threading
import urllib.request
from dataclasses import asdict

import pytest

from repro import obs
from repro.cli import main
from repro.client import ServiceClient
from repro.experiments.configs import build_prefetchers
from repro.experiments.jobs import trace_for_workload
from repro.experiments.runner import ExperimentRunner
from repro.experiments.store import ResultStore
from repro.obs import events as events_module
from repro.obs.events import EventLog, default_log_path
from repro.service.scheduler import Job, Scheduler
from repro.service.server import METRICS_CONTENT_TYPE, build_server
from repro.sim import kernel as kernel_module
from repro.sim.config import SystemConfig
from repro.sim.engine import Simulator
from repro.sim.stats import SimulationStats
from repro.sim.timing import TimingModel


@pytest.fixture
def telemetry(tmp_path):
    """Telemetry enabled, with the default event log under ``tmp_path``."""

    obs.set_enabled(True)
    previous = events_module.set_default_log(
        EventLog(tmp_path / "obs" / "events.jsonl")
    )
    yield obs
    events_module.set_default_log(previous)
    obs.set_enabled(None)


@pytest.fixture
def no_telemetry():
    obs.set_enabled(False)
    yield obs
    obs.set_enabled(None)


def quick_runner(**overrides) -> ExperimentRunner:
    defaults = dict(
        max_accesses=600, trace_overrides={"length": 1200}, warmup_fraction=0.3
    )
    defaults.update(overrides)
    return ExperimentRunner(**defaults)


def _simulator(configuration: str = "baseline") -> Simulator:
    system = SystemConfig.scaled()
    return Simulator(
        system.build_hierarchy(),
        build_prefetchers(configuration, system),
        timing=TimingModel(system.timing),
        config=system,
        configuration_name=configuration,
    )


# ---------------------------------------------------------------------------
# kernel
# ---------------------------------------------------------------------------
class TestKernelTelemetry:
    def _run(self, counting=None, monkeypatch=None, warmup=450):
        if counting is not None:
            monkeypatch.setattr(kernel_module, "perf_counter", counting)
        trace = trace_for_workload("xalan", {"length": 1500})
        return kernel_module.run_fast(
            _simulator(), trace, workload_name="xalan", warmup_accesses=warmup
        )

    def test_disabled_run_reads_no_clock(self, no_telemetry, monkeypatch):
        """The overhead-regression gate: telemetry off means ZERO clock
        reads in the kernel — there is nothing left to slow the loop down."""

        calls = []
        real = kernel_module.perf_counter
        self._run(lambda: calls.append(1) or real(), monkeypatch)
        assert calls == []

    def test_enabled_run_samples_coarsely(self, telemetry, monkeypatch):
        """At most three clock reads per run (start, boundary, end) — the
        coarse post-loop contract, never per-access work."""

        calls = []
        real = kernel_module.perf_counter
        result = self._run(lambda: calls.append(1) or real(), monkeypatch)
        assert 2 <= len(calls) <= 3
        assert result.stats.accesses > 0

    def test_statistics_bit_identical_either_way(self):
        obs.set_enabled(False)
        try:
            off = asdict(self._run().stats)
        finally:
            obs.set_enabled(None)
        obs.set_enabled(True)
        try:
            on = asdict(self._run().stats)
        finally:
            obs.set_enabled(None)
        assert off == on

    def test_enabled_run_reports_replay_phases(self, telemetry):
        accesses = obs.REGISTRY.counter(
            "repro_replay_accesses_total", labels=("phase",)
        )
        # The second warm-up runs past the end of the 1 500-access trace.
        for warmup in (450, 2000):
            base_sample = accesses.value(phase="sample")
            base_prefix = accesses.value(phase="prefix")
            with obs.collect() as roots:
                result = self._run(warmup=warmup)
            phases = obs.breakdown(roots)
            assert "sampled_window" in phases
            assert "prefix_replay" in phases
            assert accesses.value(phase="sample") - base_sample == result.stats.accesses
            assert accesses.value(phase="prefix") - base_prefix == min(warmup, 1500)


# ---------------------------------------------------------------------------
# job event ring buffer
# ---------------------------------------------------------------------------
def _job(event_limit: int) -> Job:
    return Job(
        "job-ring",
        [],
        client="c",
        priority=0,
        kind="batch",
        label="ring",
        request=None,
        finalize=None,
        event_limit=event_limit,
    )


class TestJobEventRing:
    def test_seq_keeps_counting_past_evictions(self):
        job = _job(4)
        for index in range(10):
            job.record_event("tick", index=index)
        assert [entry["seq"] for entry in job.events] == [6, 7, 8, 9]
        assert job.events_dropped == 6

    def test_snapshot_reports_gap_explicitly(self):
        job = _job(4)
        for index in range(10):
            job.record_event("tick", index=index)
        fresh = job.snapshot()
        assert [entry["seq"] for entry in fresh["events"]] == [6, 7, 8, 9]
        assert fresh["events_dropped"] == 6
        assert fresh["events_gap"] == [0, 5]  # a fresh poller missed 0..5
        behind = job.snapshot(after=2)
        assert behind["events_gap"] == [3, 5]  # resuming from seq 2
        caught_up = job.snapshot(after=7)
        assert [entry["seq"] for entry in caught_up["events"]] == [8, 9]
        assert "events_gap" not in caught_up  # nothing it wanted was evicted

    def test_unfilled_ring_reports_no_drops(self):
        job = _job(16)
        for index in range(5):
            job.record_event("tick", index=index)
        snapshot = job.snapshot()
        assert [entry["seq"] for entry in snapshot["events"]] == list(range(5))
        assert "events_dropped" not in snapshot
        assert "events_gap" not in snapshot


# ---------------------------------------------------------------------------
# scheduler + executor wiring
# ---------------------------------------------------------------------------
class TestSchedulerTelemetry:
    def test_completed_job_carries_phase_breakdown(self, tmp_path, telemetry):
        store = ResultStore(tmp_path / "store")
        spec = quick_runner(store=store).spec_for("xalan", "baseline")
        completed = obs.REGISTRY.counter("repro_jobs_completed_total")
        resolved = obs.REGISTRY.counter(
            "repro_specs_resolved_total", labels=("source",)
        )
        base_completed = completed.value()
        base_executed = resolved.value(source="executed")
        with Scheduler(store=store) as scheduler:
            job = scheduler.submit([spec])
            assert job.wait(60)
        assert job.state == "completed"
        telemetry_data = job.telemetry
        assert telemetry_data is not None
        assert telemetry_data["phases"]["execute"] > 0
        assert "store_io" in telemetry_data["phases"]
        entry = telemetry_data["specs"]["xalan × baseline"]
        assert entry["source"] == "executed"
        assert entry["seconds"] > 0
        # Inline backend: the kernel's coarse phases reach the job.
        assert "sampled_window" in entry["phases"]
        assert job.snapshot()["telemetry"] == telemetry_data
        assert completed.value() == base_completed + 1
        assert resolved.value(source="executed") == base_executed + 1
        events = [record["event"] for record in events_module.default_log().read()]
        for name in (
            "job_submitted",
            "task_queued",
            "task_dispatched",
            "store_put",
            "task_done",
            "job_completed",
        ):
            assert name in events, f"missing {name} in {events}"

    def test_warm_job_records_store_hits(self, tmp_path, telemetry):
        store = ResultStore(tmp_path / "store")
        spec = quick_runner(store=store).spec_for("xalan", "baseline")
        hits = obs.REGISTRY.counter("repro_store_hits_total")
        with Scheduler(store=store) as scheduler:
            assert scheduler.submit([spec]).wait(60)
            base_hits = hits.value()
            warm = scheduler.submit([spec])
            assert warm.wait(10)
        assert warm.provenance["store"] == 1
        assert hits.value() == base_hits + 1
        assert warm.telemetry is not None
        assert "store_io" in warm.telemetry["phases"]
        assert "execute" not in warm.telemetry["phases"]

    def test_disabled_job_has_no_telemetry(self, tmp_path, no_telemetry):
        store = ResultStore(tmp_path / "store")
        spec = quick_runner(store=store).spec_for("xalan", "baseline")
        with Scheduler(store=store) as scheduler:
            job = scheduler.submit([spec])
            assert job.wait(60)
        assert job.telemetry is None
        assert "telemetry" not in job.snapshot()

    def test_store_write_failure_is_an_event(self, tmp_path, telemetry):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        store = ResultStore(blocker / "cache")  # mkdir fails: parent is a file
        spec = quick_runner(store=store).spec_for("xalan", "baseline")
        with pytest.warns(RuntimeWarning, match="not writable"):
            store.put(spec, SimulationStats(accesses=1))
        failures = [
            record
            for record in events_module.default_log().read()
            if record["event"] == "store_write_failed"
        ]
        assert [record["path"] for record in failures] == [str(blocker / "cache")]


# ---------------------------------------------------------------------------
# HTTP endpoint
# ---------------------------------------------------------------------------
@pytest.fixture
def live_server(tmp_path):
    store = ResultStore(tmp_path / "server_store")
    server = build_server(store, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    server.scheduler.close()
    thread.join(timeout=5)


def _get(url: str):
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.headers.get("Content-Type"), response.read().decode()


class TestMetricsEndpoint:
    def test_metrics_served_even_when_disabled(self, live_server, no_telemetry):
        content_type, text = _get(live_server.url + "/metrics")
        assert content_type == METRICS_CONTENT_TYPE
        assert "# TYPE repro_jobs_completed_total counter" in text

    def test_request_latency_measured_per_endpoint(self, live_server, telemetry):
        with ServiceClient(live_server.url, client="obs-test") as client:
            job = client.submit(
                {
                    "kind": "run",
                    "workload": "xalan",
                    "configs": ["baseline"],
                    "trace": {"length": 1200},
                    "max_accesses": 600,
                    "warmup_fraction": 0.3,
                }
            )
            snapshot = client.wait(job["id"], timeout=60)
            assert snapshot["state"] == "completed"
            assert client.last_wait["polls"] >= 1
            assert snapshot["telemetry"]["phases"]["execute"] > 0
            _, text = _get(live_server.url + "/metrics")
            assert 'repro_http_requests_total{method="POST",route="/jobs",status="201"}' in text
            assert 'route="/jobs/{id}"' in text  # job ids normalised out
            assert "repro_http_request_seconds_bucket" in text
            for required in ("repro_jobs_completed_total", "repro_store_puts_total"):
                line = next(
                    ln for ln in text.splitlines() if ln.startswith(required + " ")
                )
                assert float(line.split()[-1]) > 0


# ---------------------------------------------------------------------------
# client backoff
# ---------------------------------------------------------------------------
class TestClientBackoff:
    def test_decorrelated_backoff_grows_and_caps(self, monkeypatch):
        with ServiceClient(url="http://example.invalid") as client:
            states = iter(["running"] * 4 + ["completed"])
            monkeypatch.setattr(
                client, "status", lambda job_id, after=None: {"state": next(states)}
            )
            sleeps: list[float] = []
            monkeypatch.setattr("repro.client.time.sleep", sleeps.append)
            # Deterministic: always draw the top of the jitter range.
            monkeypatch.setattr("repro.client.random.uniform", lambda low, high: high)
            snapshot = client.wait("job-1", poll=0.2, max_poll=3.0)
            assert snapshot["state"] == "completed"
            assert client.last_wait["polls"] == 5
            assert sleeps == [
                pytest.approx(0.6),
                pytest.approx(1.8),
                pytest.approx(3.0),
                pytest.approx(3.0),
            ]

    def test_jitter_never_sleeps_below_base(self, monkeypatch):
        with ServiceClient(url="http://example.invalid") as client:
            states = iter(["running"] * 3 + ["completed"])
            monkeypatch.setattr(
                client, "status", lambda job_id, after=None: {"state": next(states)}
            )
            sleeps: list[float] = []
            monkeypatch.setattr("repro.client.time.sleep", sleeps.append)
            monkeypatch.setattr("repro.client.random.uniform", lambda low, high: low)
            client.wait("job-1", poll=0.2, max_poll=3.0)
            assert all(s == pytest.approx(0.2) for s in sleeps)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
class TestObsCli:
    def test_tail_and_summary_read_the_default_log(self, capsys):
        log = EventLog(default_log_path())  # honours REPRO_CACHE_DIR
        log.emit("job_submitted", job="job-1")
        log.emit("job_completed", job="job-1", seconds=0.5)
        assert main(["obs", "tail", "--count", "5"]) == 0
        out = capsys.readouterr().out
        assert "job_submitted" in out
        assert "job=job-1" in out
        assert main(["obs", "summary", "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["events"] == 2
        assert summary["by_event"] == {"job_submitted": 1, "job_completed": 1}

    def test_empty_log_explains_the_toggle(self, capsys):
        assert main(["obs", "summary"]) == 0
        assert "REPRO_TELEMETRY" in capsys.readouterr().out

    def test_tail_rejects_bad_count(self, capsys):
        assert main(["obs", "tail", "--count", "0"]) == 2
        assert "--count" in capsys.readouterr().err
