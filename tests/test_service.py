"""Tests for the service layer: scheduler, manifests, HTTP API, CLI verbs.

The scheduler tests drive a hand-cranked backend so that queueing,
cancellation and quota decisions are deterministic — no sleeps, no racing
real executions.  The HTTP tests run a real ``ThreadingHTTPServer`` on an
ephemeral port and talk to it through :class:`repro.client.ServiceClient`,
exactly as ``repro submit`` does.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import queue
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from concurrent.futures import Future
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.cli import main
from repro.client import ServiceClient, ServiceError
from repro.experiments import jobs as jobs_module
from repro.experiments.jobs import RunSpec, code_version
from repro.experiments.runner import ExperimentRunner
from repro.experiments.store import ResultStore, default_store, store_stats_payload
from repro.experiments.studies import STUDIES
from repro.service import scheduler as scheduler_module
from repro.service import server as server_module
from repro.service.manifest import (
    frozen_systems,
    job_manifest,
    spec_from_payload,
    spec_payload,
    verify_manifest,
)
from repro.service.requests import CompiledRequest, PlanCache, compile_request
from repro.service.scheduler import FINISHED_JOB_LIMIT, Job, QuotaExceededError, Scheduler
from repro.service.server import MAX_BODY_BYTES, build_server
from repro.traces.format import trace_file_digest
from repro.traces.recorder import record_workload


def quick_runner(**overrides) -> ExperimentRunner:
    defaults = dict(
        max_accesses=600,
        trace_overrides={"length": 1200},
        warmup_fraction=0.3,
    )
    defaults.update(overrides)
    return ExperimentRunner(**defaults)


class ManualBackend:
    """A ``WorkerBackend`` the test cranks by hand.

    ``submit`` records the call and returns an unresolved future;
    :meth:`run_next` executes the oldest unresolved call synchronously on
    the calling thread (so scheduler callbacks have run when it returns).
    """

    def __init__(self, slots: int = 1):
        self.slots = slots
        self.calls: list[tuple] = []
        self._cond = threading.Condition()

    def submit(self, fn, /, *args) -> Future:
        future: Future = Future()
        with self._cond:
            self.calls.append((fn, args, future))
            self._cond.notify_all()
        return future

    def wait_for_calls(self, count: int, timeout: float = 10.0) -> None:
        with self._cond:
            arrived = self._cond.wait_for(lambda: len(self.calls) >= count, timeout)
        assert arrived, f"backend saw {len(self.calls)} call(s), wanted {count}"

    def run_next(self) -> None:
        fn, args, future = next(c for c in self.calls if not c[2].done())
        try:
            future.set_result(fn(*args))
        except BaseException as error:  # noqa: BLE001 - delivered to the future
            future.set_exception(error)

    def close(self) -> None:
        pass


class TestSchedulerCore:
    def test_store_hits_resolve_at_submit(self, tmp_path):
        store = ResultStore(tmp_path)
        runner = quick_runner(store=store)
        spec = runner.spec_for("xalan", "baseline")
        runner.submit([spec])

        backend = ManualBackend()
        with Scheduler(store=store, backend=backend) as scheduler:
            job = scheduler.submit([spec])
            assert job.wait(5)
            assert job.state == "completed"
            assert job.provenance == {"store": 1, "executed": 0, "shared": 0}
        assert backend.calls == []  # never touched the backend

    def test_empty_job_completes_immediately(self, tmp_path):
        with Scheduler(store=ResultStore(tmp_path)) as scheduler:
            job = scheduler.submit([], kind="explore")
            assert job.state == "completed"
            events = [entry["event"] for entry in job.events]
            assert events == ["submitted", "completed"]

    def test_inflight_dedupe_records_shared(self, tmp_path):
        store = ResultStore(tmp_path)
        runner = quick_runner(store=store)
        spec = runner.spec_for("xalan", "baseline")
        backend = ManualBackend()
        with Scheduler(store=store, backend=backend) as scheduler:
            first = scheduler.submit([spec], client="alice")
            backend.wait_for_calls(1)
            second = scheduler.submit([spec], client="bob")
            assert len(backend.calls) == 1  # joined, not re-queued
            backend.run_next()
            assert first.wait(5) and second.wait(5)
            assert first.provenance["executed"] == 1
            assert second.provenance["shared"] == 1
            assert first.results[spec] == second.results[spec]
        assert store.puts == 1

    def test_priority_orders_dispatch(self, tmp_path):
        store = ResultStore(tmp_path)
        runner = quick_runner(store=store)
        first = runner.spec_for("xalan", "baseline")
        low = runner.spec_for("omnet", "baseline")
        high = runner.spec_for("mcf", "baseline")
        backend = ManualBackend()
        with Scheduler(store=store, backend=backend) as scheduler:
            jobs = [scheduler.submit([first])]
            backend.wait_for_calls(1)  # occupies the single slot
            jobs.append(scheduler.submit([low], priority=0))
            jobs.append(scheduler.submit([high], priority=5))
            backend.run_next()
            backend.wait_for_calls(2)
            assert backend.calls[1][1][0] is high  # priority 5 beat FIFO
            backend.run_next()
            backend.wait_for_calls(3)
            assert backend.calls[2][1][0] is low
            backend.run_next()
            for job in jobs:
                assert job.wait(5) and job.state == "completed"

    def test_run_reraises_original_error(self, tmp_path):
        runner = quick_runner(store=None)
        spec = dataclasses.replace(
            runner.spec_for("xalan", "baseline"), configuration="no-such-config"
        )
        with Scheduler(store=ResultStore(tmp_path)) as scheduler:
            with pytest.raises(ValueError, match="no-such-config"):
                scheduler.run([spec])
            job = scheduler.jobs()[0]
            assert job.state == "failed"
            assert "no-such-config" in job.error


class TestCancellation:
    def test_cancel_mid_batch_leaves_store_consistent(self, tmp_path):
        store = ResultStore(tmp_path)
        runner = quick_runner(store=store)
        running = runner.spec_for("xalan", "baseline")
        queued = runner.spec_for("omnet", "baseline")
        backend = ManualBackend()
        with Scheduler(store=store, backend=backend) as scheduler:
            job = scheduler.submit([running, queued], client="alice")
            backend.wait_for_calls(1)  # `running` dispatched, `queued` waiting

            assert scheduler.cancel(job.id) is True
            assert job.state == "cancelled"
            assert job.wait(1)
            assert scheduler.cancel(job.id) is False  # idempotent
            # The queued task was abandoned before it started; the running
            # one keeps executing.
            assert queued not in scheduler._tasks

            backend.run_next()  # the in-flight execution completes anyway
            assert store.puts == 1  # ...and persisted: no torn batch

        # The store is consistent: the completed spec replays, the abandoned
        # one was never written, and every record on disk parses.
        fresh = ResultStore(tmp_path)
        assert fresh.get(running) is not None
        assert fresh.get(queued) is None
        assert len(fresh.records()) == 1

    def test_cancel_releases_quota(self, tmp_path):
        store = ResultStore(tmp_path)
        runner = quick_runner(store=store)
        backend = ManualBackend()
        with Scheduler(store=store, backend=backend, quota=2) as scheduler:
            job = scheduler.submit(
                [runner.spec_for(w, "baseline") for w in ("xalan", "omnet")],
                client="alice",
            )
            with pytest.raises(QuotaExceededError):
                scheduler.submit([runner.spec_for("mcf", "baseline")], client="alice")
            scheduler.cancel(job.id)
            # Quota released: the same client can submit again at once.
            scheduler.submit([runner.spec_for("mcf", "baseline")], client="alice")

    def test_completed_job_is_not_cancellable(self, tmp_path):
        store = ResultStore(tmp_path)
        runner = quick_runner(store=store)
        spec = runner.spec_for("xalan", "baseline")
        runner.submit([spec])
        with Scheduler(store=store) as scheduler:
            job = scheduler.submit([spec])
            assert job.wait(5)
            assert scheduler.cancel(job.id) is False
            assert job.state == "completed"


class TestRetention:
    def test_running_jobs_are_never_forgotten(self, tmp_path, monkeypatch):
        monkeypatch.setattr(scheduler_module, "FINISHED_JOB_LIMIT", 3)
        store = ResultStore(tmp_path)
        spec = quick_runner(store=store).spec_for("xalan", "baseline")
        backend = ManualBackend()
        with Scheduler(store=store, backend=backend) as scheduler:
            running = scheduler.submit([spec])
            finished = [scheduler.submit([]) for _ in range(5)]
            assert [job.id for job in scheduler.jobs()] == [
                running.id,
                *[job.id for job in finished[-3:]],
            ]
            with pytest.raises(KeyError):
                scheduler.job_snapshot(finished[0].id)
            backend.wait_for_calls(1)
            backend.run_next()
            assert running.wait(10) and running.state == "completed"
            # Finishing evicts the oldest finished job, not the newcomer.
            assert [job.id for job in scheduler.jobs()] == [
                running.id,
                *[job.id for job in finished[-2:]],
            ]


class TestQuota:
    def test_over_quota_rejected_before_any_state_changes(self, tmp_path):
        runner = quick_runner(store=None)
        specs = [runner.spec_for(w, "baseline") for w in ("xalan", "omnet", "mcf")]
        with Scheduler(backend=ManualBackend(), quota=2) as scheduler:
            with pytest.raises(QuotaExceededError, match="quota"):
                scheduler.submit(specs, client="alice")
            assert scheduler.jobs() == []  # nothing was queued
            assert scheduler.stats()["outstanding"] == {}

    def test_quota_is_per_client(self, tmp_path):
        runner = quick_runner(store=None)
        backend = ManualBackend()
        with Scheduler(backend=backend, quota=1) as scheduler:
            scheduler.submit([runner.spec_for("xalan", "baseline")], client="alice")
            with pytest.raises(QuotaExceededError):
                scheduler.submit([runner.spec_for("omnet", "baseline")], client="alice")
            # A different client has its own budget.
            scheduler.submit([runner.spec_for("omnet", "baseline")], client="bob")

    def test_store_hits_do_not_count_against_quota(self, tmp_path):
        store = ResultStore(tmp_path)
        runner = quick_runner(store=store)
        warm = [runner.spec_for(w, "baseline") for w in ("xalan", "omnet")]
        runner.submit(warm)
        miss = runner.spec_for("mcf", "baseline")
        with Scheduler(store=store, backend=ManualBackend(), quota=1) as scheduler:
            # Two hits + one miss fits a quota of one unresolved spec.
            job = scheduler.submit([*warm, miss], client="alice")
            assert job.provenance["store"] == 2


class TestManifest:
    def test_spec_payload_round_trips(self, tmp_path):
        run = quick_runner(store=None).spec_for("xalan", "triangel")
        pair = quick_runner(store=None).multiprogram_spec_for(
            ["xalan", "omnet"], "triangel", 300
        )
        for spec in (run, pair):
            payload = spec_payload(spec)
            rebuilt = spec_from_payload(payload["spec"])
            assert rebuilt == spec
            assert rebuilt.content_hash() == payload["digest"]

    def test_unknown_spec_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown spec kind"):
            spec_from_payload({"kind": "mystery"})

    def test_non_canonical_fields_rejected(self):
        """A field the canonical form lacks must not be dropped silently:
        the rebuilt spec would hash as a different simulation."""

        run = quick_runner(store=None).spec_for("xalan", "triangel")
        pair = quick_runner(store=None).multiprogram_spec_for(
            ["xalan", "omnet"], "triangel", 300
        )
        for spec in (run, pair):
            with pytest.raises(ValueError, match="'replay_windows'"):
                spec_from_payload({**spec.as_dict(), "replay_windows": 4})

    def test_job_manifest_verifies_and_detects_tampering(self, tmp_path):
        store = ResultStore(tmp_path)
        runner = quick_runner(store=store)
        spec = runner.spec_for("xalan", "baseline")
        with Scheduler(store=store) as scheduler:
            job = scheduler.submit([spec], request={"kind": "spec"})
            assert job.wait(10)
        manifest = job_manifest(job, store)
        assert json.loads(json.dumps(manifest)) == manifest  # pure JSON
        assert manifest["code_version"] == code_version()
        assert manifest["store"]["path"] == str(store.directory)
        assert manifest["store"]["executed"] == 1
        assert verify_manifest(manifest) == []

        tampered = json.loads(json.dumps(manifest))
        tampered["specs"][0]["digest"] = "0" * 64
        problems = verify_manifest(tampered)
        assert len(problems) == 1 and "digest" in problems[0]

        stale = json.loads(json.dumps(manifest))
        stale["code_version"] = "not-the-running-code"
        problems = verify_manifest(stale)
        assert len(problems) == 1 and "code_version" in problems[0]


    @staticmethod
    def _two_spec_manifest() -> dict:
        """A JSON-decoded manifest of two specs that share one system tree."""

        runner = quick_runner(store=None)
        system = runner.frozen_system()
        specs = [runner.spec_for(workload, "baseline", system=system) for workload in ("xalan", "mcf")]
        job = Job(
            "job-manifest", specs, client="test", priority=0, kind="spec",
            label="two specs", request={}, finalize=None,
        )
        return json.loads(json.dumps(job_manifest(job)))

    def test_v2_manifest_names_one_shared_system(self):
        manifest = self._two_spec_manifest()
        assert manifest["manifest_version"] == 2
        (key,) = manifest["systems"]
        assert [entry["spec"]["system"] for entry in manifest["specs"]] == [key, key]
        assert verify_manifest(manifest) == []
        systems = frozen_systems(manifest["systems"])
        first, second = (spec_from_payload(entry["spec"], systems) for entry in manifest["specs"])
        assert first.system is second.system
        assert [first.content_hash(), second.content_hash()] == [
            entry["digest"] for entry in manifest["specs"]
        ]

    @pytest.mark.parametrize(
        ("edit", "named"),
        [
            ("tree", "system"),
            ("spec", "spec #0"),
            ("system-key", "unknown system"),
            ("version", "manifest_version"),
        ],
    )
    def test_each_manifest_fault_is_one_problem(self, edit, named):
        manifest = self._two_spec_manifest()
        (key,) = manifest["systems"]
        if edit == "tree":  # both specs name the edited tree
            manifest["systems"][key]["markov_latency"] = 26.0
        elif edit == "spec":
            manifest["specs"][0]["spec"]["workload"] = "omnet"
        elif edit == "system-key":
            manifest["specs"][1]["spec"]["system"] = "0" * 16
        else:
            manifest["manifest_version"] = 3
        problems = verify_manifest(manifest)
        assert len(problems) == 1 and named in problems[0], problems


@contextmanager
def running_daemon(store):
    """A live daemon on an ephemeral port over ``store``, shut down on exit."""

    server = build_server(store, port=0, jobs=1)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        server.scheduler.close()
        thread.join(timeout=5)


@pytest.fixture()
def service(tmp_path):
    """A live daemon on an ephemeral port, plus the store it fronts."""

    with running_daemon(ResultStore(tmp_path / "service-store")) as server:
        yield server


TINY_RUN = {
    "kind": "run",
    "workload": "xalan",
    "configurations": ["baseline"],
    "trace_length": 1200,
    "max_accesses": 600,
}


def _read_response(stream) -> tuple[int, bytes]:
    """One HTTP/1.1 response from a socket's file: its status and body."""

    status_line = stream.readline()
    assert status_line.startswith(b"HTTP/1.1 "), status_line
    length = 0
    while (line := stream.readline()) not in (b"\r\n", b""):
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value)
    return int(status_line.split()[1]), stream.read(length)


class _ConnectionLog:
    """Records every connection a live server accepts and finishes."""

    def __init__(self, server, monkeypatch) -> None:
        self.accepted: list[socket.socket] = []
        self.finished: list[socket.socket] = []
        self._cond = threading.Condition()
        process_request = server.process_request
        shutdown_request = server.shutdown_request

        def accept(request, client_address) -> None:
            with self._cond:
                self.accepted.append(request)
            process_request(request, client_address)

        def finish(request) -> None:
            shutdown_request(request)
            with self._cond:
                self.finished.append(request)
                self._cond.notify_all()

        monkeypatch.setattr(server, "process_request", accept)
        monkeypatch.setattr(server, "shutdown_request", finish)

    def wait_finished(self, count: int, timeout: float = 10.0) -> bool:
        with self._cond:
            return self._cond.wait_for(lambda: len(self.finished) >= count, timeout)


class TestHTTPService:
    def test_healthz_and_store_stats(self, service):
        with ServiceClient(service.url) as client:
            health = client.healthz()
            assert health["status"] == "ok"
            assert health["code_version"] == code_version()
            assert health["scheduler"]["backend_slots"] == 1
            assert health["plans"] == {"size": 0, "limit": 128, "hits": 0, "misses": 0}
            stats = client.store_stats()
            assert stats == json.loads(json.dumps(store_stats_payload(service.store)))

    def test_submit_wait_result_manifest_and_warm_replay(self, service):
        with ServiceClient(service.url, client="test-suite") as client:
            job = client.submit(TINY_RUN)
            assert job["state"] in ("running", "completed")
            snapshot = client.wait(job["id"], timeout=60)
            assert snapshot["state"] == "completed"
            result = client.result(job["id"])
            stats = result["result"]["results"]["baseline"]
            assert stats["accesses"] == 600
            manifest = result["manifest"]
            assert manifest["job"]["client"] == "test-suite"
            assert manifest["store"] == {
                "path": str(service.store.directory),
                "hits": 0,
                "executed": 1,
                "shared": 0,
            }
            assert verify_manifest(manifest) == []

            # Same request again: fully satisfied by the store, zero executions.
            replay = client.submit(TINY_RUN)
            client.wait(replay["id"], timeout=60)
            replay_manifest = client.result(replay["id"])["manifest"]
            assert replay_manifest["store"]["hits"] == 1
            assert replay_manifest["store"]["executed"] == 0

            # The manifest's spec entries and the systems table they name
            # resubmit verbatim as a spec job.
            resubmit = client.submit(
                {"kind": "spec", "specs": manifest["specs"], "systems": manifest["systems"]}
            )
            client.wait(resubmit["id"], timeout=60)
            fetched = client.result(resubmit["id"])
            digest = manifest["specs"][0]["digest"]
            assert fetched["manifest"]["store"]["executed"] == 0
            assert digest in fetched["result"]["results"]

    def test_spec_job_mixing_two_scales_lists_two_systems(self, service):
        with ServiceClient(service.url) as client:
            fetched = []
            for scale in (1.0, 1.5):
                job = client.submit(
                    {**TINY_RUN, "configurations": ["baseline", "triage"], "scale": scale}
                )
                assert client.wait(job["id"], timeout=120)["state"] == "completed"
                fetched.append(client.result(job["id"])["manifest"])
            systems = {key: tree for old in fetched for key, tree in old["systems"].items()}
            resubmit = client.submit(
                {"kind": "spec", "specs": [e for old in fetched for e in old["specs"]],
                 "systems": systems}
            )
            assert client.wait(resubmit["id"], timeout=60)["state"] == "completed"
            manifest = client.result(resubmit["id"])["manifest"]
        assert len(manifest["specs"]) == 4
        assert len(manifest["systems"]) == 2
        assert manifest["systems"] == systems
        assert {entry["spec"]["system"] for entry in manifest["specs"]} == set(systems)
        assert manifest["store"]["executed"] == 0
        assert verify_manifest(manifest) == []

    def test_event_streaming_with_after(self, service):
        with ServiceClient(service.url) as client:
            job = client.submit(TINY_RUN)
            client.wait(job["id"], timeout=60)
            full = client.status(job["id"])
            assert [e["seq"] for e in full["events"]] == list(range(len(full["events"])))
            last = full["events"][-1]["seq"]
            assert client.status(job["id"], after=last)["events"] == []
            tail = client.status(job["id"], after=last - 1)["events"]
            assert [e["seq"] for e in tail] == [last]

    def test_job_listing_and_cancel_of_finished_job(self, service):
        with ServiceClient(service.url) as client:
            job = client.submit(TINY_RUN)
            client.wait(job["id"], timeout=60)
            listed = client.jobs()
            assert job["id"] in [entry["id"] for entry in listed]
            assert all("events" not in entry for entry in listed)
            outcome = client.cancel(job["id"])
            assert outcome["cancelled"] is False
            assert outcome["job"]["state"] == "completed"

    def test_error_mapping(self, service):
        with ServiceClient(service.url) as client:
            with pytest.raises(ServiceError) as not_found:
                client.status("job-nope")
            assert not_found.value.status == 404
            with pytest.raises(ServiceError) as bad_kind:
                client.submit({"kind": "teleport"})
            assert bad_kind.value.status == 400
            with pytest.raises(ServiceError) as bad_endpoint:
                client._request("GET", "/nope")
            assert bad_endpoint.value.status == 404
        with ServiceClient("http://127.0.0.1:9", timeout=0.5) as nobody:
            with pytest.raises(ServiceError) as unreachable:
                nobody.healthz()
        assert unreachable.value.status == 0

    def test_halving_explore_request_is_a_one_line_400(self, service):
        with ServiceClient(service.url) as client:
            with pytest.raises(ServiceError) as rejected:
                client.submit({"kind": "explore", "strategy": "halving"})
            assert rejected.value.status == 400
            message = rejected.value.payload["error"]
            assert "unknown strategy 'halving'" in message
            assert len(message.splitlines()) == 1
            assert client.jobs() == []

    def test_spec_with_unknown_field_is_a_one_line_400(self, service):
        with ServiceClient(service.url) as client:
            entry = {
                **quick_runner(store=None).spec_for("xalan", "baseline").as_dict(),
                "replay_windows": 4,
            }
            with pytest.raises(ServiceError) as rejected:
                client.submit({"kind": "spec", "specs": [entry]})
            assert rejected.value.status == 400
            message = rejected.value.payload["error"]
            assert "replay_windows" in message
            assert len(message.splitlines()) == 1
            assert client.jobs() == []

    def test_well_formed_numbers_compile(self):
        run = compile_request({**TINY_RUN, "warmup_fraction": 0, "max_accesses": None})
        (spec,) = run.specs
        assert spec.warmup_fraction == 0.0 and spec.max_accesses is None
        same = compile_request({**TINY_RUN, "warmup_fraction": 0.0, "max_accesses": None})
        assert same.specs[0].content_hash() == spec.content_hash()
        pair = compile_request(
            {"kind": "multiprogram", "workloads": ["xalan", "mcf"],
             "configuration": "baseline", "max_accesses_per_core": 100,
             "share_metadata": False}
        )
        assert pair.specs[0].max_accesses_per_core == 100
        assert pair.specs[0].share_metadata is False

    @pytest.mark.parametrize(
        ("request_body", "field"),
        [
            ({**TINY_RUN, "trace_length": True}, "trace_length"),
            ({**TINY_RUN, "trace_length": 0}, "trace_length"),
            *[
                ({**TINY_RUN, "max_accesses": value}, "max_accesses")
                for value in (-5, 0, 2.5, "10", True)
            ],
            *[
                ({**TINY_RUN, "warmup_fraction": value}, "warmup_fraction")
                for value in (3.0, -1, 1, "0.5", None, True)
            ],
            (
                {"kind": "study", "name": "fig10", "workloads": ["xalan"],
                 "configs": ["triangel"], "trace_length": True},
                "trace_length",
            ),
            (
                {"kind": "study", "name": "fig10", "workloads": ["xalan"],
                 "configs": ["triangel"], "max_accesses": "10"},
                "max_accesses",
            ),
            *[
                (
                    {"kind": "multiprogram", "workloads": ["xalan", "mcf"],
                     "configuration": "baseline", "max_accesses_per_core": value},
                    "max_accesses_per_core",
                )
                for value in (0, -1, 2.5, "10", True)
            ],
            *[
                (
                    {"kind": "multiprogram", "workloads": ["xalan", "mcf"],
                     "configuration": "baseline", "share_metadata": value},
                    "share_metadata",
                )
                for value in ("false", 0, None)
            ],
        ],
    )
    def test_malformed_numbers_are_one_line_400s(self, service, request_body, field):
        with ServiceClient(service.url) as client:
            with pytest.raises(ServiceError) as rejected:
                client.submit(request_body)
            assert rejected.value.status == 400
            message = rejected.value.payload["error"]
            assert field in message
            assert len(message.splitlines()) == 1
            assert client.jobs() == []

    @pytest.mark.parametrize(
        ("request_body", "field"),
        [
            *[
                ({**TINY_RUN, "scale": value}, "scale")
                for value in (None, True, "big")
            ],
            ({**TINY_RUN, "workload": 5}, "workload"),
            ({**TINY_RUN, "workload": ""}, "workload"),
            ({**TINY_RUN, "config_params": 5}, "config_params"),
            ({**TINY_RUN, "config_params": ["max_entries"]}, "config_params"),
            (
                {"kind": "multiprogram", "workloads": ["xalan", "mcf"],
                 "configuration": "baseline", "config_params": 5},
                "config_params",
            ),
            *[({"kind": "explore", "budget": value}, "budget") for value in ("many", 2.5, True)],
            *[({"kind": "explore", "seed": value}, "seed") for value in ("x", None, 2.5, True)],
            ({**TINY_RUN, "priority": True}, "priority"),
        ],
    )
    def test_malformed_fields_are_one_line_400s(self, service, request_body, field):
        with ServiceClient(service.url) as client:
            with pytest.raises(ServiceError) as rejected:
                client.submit(request_body)
            assert rejected.value.status == 400
            message = rejected.value.payload["error"]
            assert field in message
            assert len(message.splitlines()) == 1
            assert client.jobs() == []

    def test_unexpected_route_error_is_a_one_line_500_that_closes(
        self, service, monkeypatch, capsys
    ):
        def fail(*args):
            raise RuntimeError("compile broke\non two lines")

        monkeypatch.setattr(server_module, "compile_request", fail)
        body = json.dumps(TINY_RUN).encode()
        request = (
            b"POST /jobs HTTP/1.1\r\nHost: test\r\nContent-Type: application/json\r\n"
            b"Content-Length: %d\r\n\r\n" % len(body)
        ) + body
        with socket.create_connection(service.server_address[:2], timeout=10) as sock:
            sock.sendall(request)
            with sock.makefile("rb") as stream:
                raw = stream.read()  # returns at end-of-file: the daemon closed
        head, _, payload = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 500 "), raw
        assert b"\r\nconnection: close" in head.lower()
        message = json.loads(payload)["error"]
        assert "RuntimeError: compile broke on two lines" in message
        assert len(message.splitlines()) == 1
        assert "Traceback" in capsys.readouterr().err
        assert service.scheduler.jobs() == []

    @pytest.mark.parametrize(
        ("declared", "status"),
        [("-1", 400), ("abc", 400), (str(MAX_BODY_BYTES + 1), 413)],
    )
    def test_bad_content_length_is_answered_without_reading(
        self, service, declared, status
    ):
        """A malformed or oversized length gets one 4xx line, never a hang:
        the handler must neither wait for a body nor keep the connection."""

        host, port = service.server_address[:2]
        request = (
            "POST /jobs HTTP/1.1\r\n"
            "Host: localhost\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {declared}\r\n\r\n"
        )
        with socket.create_connection((host, port), timeout=1.0) as connection:
            connection.sendall(request.encode())
            response = b""
            # The server closes the connection after answering; a handler
            # blocked reading the body would trip the one-second timeout.
            while chunk := connection.recv(65536):
                response += chunk
        head, _, body = response.partition(b"\r\n\r\n")
        assert head.split()[1] == str(status).encode()
        assert b"connection: close" in head.lower()
        assert len(json.loads(body)["error"].splitlines()) == 1

    def test_chunked_body_is_refused_and_the_connection_closed(self, service):
        """A chunked body cannot be framed: one 400 line, then the end of
        the connection, never the chunks parsed as a next request."""

        host, port = service.server_address[:2]
        body = b'{"kind": "teleport"}'
        request = (
            b"POST /jobs HTTP/1.1\r\nHost: localhost\r\n"
            b"Content-Type: application/json\r\nTransfer-Encoding: chunked\r\n\r\n"
            + b"%x\r\n%s\r\n0\r\n\r\n" % (len(body), body)
        )
        with socket.create_connection((host, port), timeout=5.0) as connection:
            connection.sendall(request)
            response = b""
            while chunk := connection.recv(65536):
                response += chunk
        head, _, rest = response.partition(b"\r\n\r\n")
        assert head.split()[1] == b"400"
        assert b"connection: close" in head.lower()
        error = json.loads(rest)["error"]  # the one reply, nothing after it
        assert "Transfer-Encoding" in error and len(error.splitlines()) == 1

    @pytest.mark.parametrize(
        ("method", "path", "status"),
        [
            ("POST", "/jobs/job-nope/cancel", 404),
            ("POST", "/no-such-route", 404),
            ("GET", "/healthz", 200),
        ],
    )
    def test_unread_body_never_garbles_the_next_request(
        self, service, method, path, status
    ):
        """Every route reads the body it was sent, even one it ignores, so
        the next request on a kept-alive connection is answered as itself."""

        body = b'{"unread": "garbage"}'
        assert len(body) == 21
        host, port = service.server_address[:2]
        with socket.create_connection((host, port), timeout=5.0) as connection:
            with connection.makefile("rb") as stream:
                connection.sendall(
                    f"{method} {path} HTTP/1.1\r\nHost: localhost\r\n"
                    f"Content-Type: application/json\r\n"
                    f"Content-Length: {len(body)}\r\n\r\n".encode()
                    + body
                )
                first_status, _ = _read_response(stream)
                connection.sendall(b"GET /healthz HTTP/1.1\r\nHost: localhost\r\n\r\n")
                second_status, second = _read_response(stream)
        assert first_status == status
        assert second_status == 200, second
        assert json.loads(second)["status"] == "ok"

    def test_daemon_forgets_finished_jobs_beyond_the_limit(
        self, service, monkeypatch
    ):
        monkeypatch.setattr(scheduler_module, "FINISHED_JOB_LIMIT", 2)
        with ServiceClient(service.url) as client:
            ids = []
            for _ in range(4):
                job = client.submit(TINY_RUN)
                client.wait(job["id"], timeout=60)
                ids.append(job["id"])
            assert [entry["id"] for entry in client.jobs()] == ids[-2:]
            assert client.healthz()["scheduler"]["jobs"] == {"completed": 2}
            with pytest.raises(ServiceError) as forgotten:
                client.result(ids[0])
            assert forgotten.value.status == 404
            assert client.result(ids[-1])["manifest"]["store"]["hits"] == 1

    def test_quota_maps_to_429(self, tmp_path):
        server = build_server(None, port=0, jobs=1, quota=1)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            with ServiceClient(server.url, client="greedy") as client:
                with pytest.raises(ServiceError) as over:
                    client.submit(
                        {**TINY_RUN, "configurations": ["baseline", "triage"]}
                    )
                assert over.value.status == 429
                with pytest.raises(ServiceError):
                    client.store_stats()  # no store on this daemon: 404
        finally:
            server.shutdown()
            server.server_close()
            server.scheduler.close()
            thread.join(timeout=5)

    def test_two_concurrent_clients_share_every_execution(self, service):
        """Acceptance: same study from two clients, zero duplicate specs."""

        payload = {
            "kind": "study",
            "name": "fig10",
            "workloads": ["xalan"],
            "configs": ["triangel"],
            "trace_length": 1200,
            "max_accesses": 600,
        }
        barrier = threading.Barrier(2)
        results: dict[str, dict] = {}

        def submit_and_fetch(name: str) -> None:
            with ServiceClient(service.url, client=name) as client:
                barrier.wait()
                job = client.submit(payload)
                client.wait(job["id"], timeout=120)
                results[name] = client.result(job["id"])

        threads = [
            threading.Thread(target=submit_and_fetch, args=(name,))
            for name in ("alice", "bob")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert set(results) == {"alice", "bob"}

        manifests = [results[name]["manifest"] for name in ("alice", "bob")]
        unique_specs = len(manifests[0]["specs"])
        assert unique_specs > 0
        for manifest in manifests:
            counters = manifest["store"]
            assert (
                counters["hits"] + counters["executed"] + counters["shared"]
                == unique_specs
            )
            assert verify_manifest(manifest) == []
        # Zero duplicates: each unique spec was executed exactly once in
        # total, whichever client's job carried it.
        assert sum(m["store"]["executed"] for m in manifests) == service.store.puts
        assert service.store.puts == unique_specs
        # ...and both clients got the identical rendered figure.
        assert results["alice"]["result"]["rendered"] == results["bob"]["result"]["rendered"]


#: One short study request per simulating reducer.
SERVED_STUDIES = {
    "matrix": {"name": "fig10", "workloads": ["xalan", "mcf"], "configs": ["triangel"]},
    "stat": {"name": "fig19", "workloads": ["xalan", "mcf"]},
    "matrix-pair": {
        "name": "fig20",
        "workloads": ["xalan"],
        "configs": ["ablation-Triage-Deg-4", "ablation-+Set Duel"],
    },
    "slowdown-traffic": {"name": "fig17", "workloads": ["xalan"], "configs": ["triangel"]},
    "multiprogram": {
        "name": "fig16",
        "configs": ["triangel"],
        "set": {"max_accesses_per_core": 150},
    },
}


def _rendered_in_process(request: dict, store) -> dict:
    """The result payload a study request renders in-process over ``store``."""

    study = STUDIES.get(request["name"]).overridden(
        workloads=request.get("workloads"),
        configurations=request.get("configs"),
        assignments={key: str(value) for key, value in request.get("set", {}).items()},
    )
    runner = study.make_runner(
        max_accesses=request.get("max_accesses"),
        trace_overrides={"length": request["trace_length"]},
        store=store,
    )
    figure = study.run(runner)
    return {
        "figure": figure.figure,
        "title": figure.title,
        "table": figure.table,
        "columns": figure.columns,
        "rendered": figure.rendered,
        "notes": figure.notes,
    }


class TestServedStudies:
    @pytest.mark.parametrize("reducer", sorted(SERVED_STUDIES))
    def test_served_payload_equals_in_process_run(self, service, reducer):
        request = {"kind": "study", "trace_length": 600, **SERVED_STUDIES[reducer]}
        if reducer != "multiprogram":
            request["max_accesses"] = 240
        with ServiceClient(service.url) as client:
            job = client.submit(request)
            assert client.wait(job["id"], timeout=300)["state"] == "completed"
            served = client.result(job["id"])["result"]

        assert STUDIES.get(request["name"]).reducer == reducer
        expected = _rendered_in_process(request, service.store)
        assert json.dumps(served, sort_keys=True) == json.dumps(expected, sort_keys=True)


    def test_fig17_over_graph500_with_a_trace_length_completes(self, service):
        # trace_length reaches the Graph500 generator as its access cap.
        request = {"kind": "study", "name": "fig17", "configs": ["triangel"], "trace_length": 600}
        with ServiceClient(service.url) as client:
            job = client.submit(request)
            assert client.wait(job["id"], timeout=300)["state"] == "completed"
            table = client.result(job["id"])["result"]["table"]
        assert {"graph500_s16 slowdown", "graph500_s21 slowdown"} <= set(table)


class TestKeptAliveTransport:
    """Each client keeps one connection to the daemon and reuses it."""

    def test_twenty_calls_arrive_over_one_connection(self, service, monkeypatch):
        log = _ConnectionLog(service, monkeypatch)
        with ServiceClient(service.url) as client:
            for _ in range(20):
                assert client.healthz()["status"] == "ok"
        assert len(log.accepted) == 1

    def test_accepted_sockets_disable_nagle(self, service, monkeypatch):
        # Headers and body leave in two sends: with Nagle's algorithm on,
        # the body waits for the client's delayed ACK.
        log = _ConnectionLog(service, monkeypatch)
        with ServiceClient(service.url) as first, ServiceClient(service.url) as second:
            first.healthz()
            second.jobs()
            assert len(log.accepted) == 2
            for connection in log.accepted:
                assert connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)

    def test_closed_server_answers_nothing(self, service, monkeypatch):
        log = _ConnectionLog(service, monkeypatch)
        with ServiceClient(service.url) as client:
            assert client.healthz()["status"] == "ok"
            service.shutdown()
            service.server_close()
            # The idle handler reads end-of-file and exits...
            assert log.wait_finished(1)
            # ...and the retry on a fresh connection finds no listener.
            with pytest.raises(ServiceError) as refused:
                client.healthz()
        assert refused.value.status == 0

    def test_request_completed_after_close_is_dropped(self, service):
        host, port = service.server_address[:2]
        with socket.create_connection((host, port), timeout=5.0) as connection:
            with connection.makefile("rb") as stream:
                connection.sendall(b"GET /healthz HTTP/1.1\r\nHost: localhost\r\n\r\n")
                assert _read_response(stream)[0] == 200
                # The handler holds half a request line when the server
                # closes; it reads the rest (end-of-file) only afterwards.
                connection.sendall(b"GET /healthz HTTP/1.1")
                service.shutdown()
                service.server_close()
                assert stream.read() == b""

    def test_dropped_connection_is_replaced_once(self, service, monkeypatch):
        log = _ConnectionLog(service, monkeypatch)
        with ServiceClient(service.url) as client:
            client.healthz()
            # The daemon ends the idle connection, as a restart would.
            log.accepted[0].shutdown(socket.SHUT_RDWR)
            assert log.wait_finished(1)
            assert client.healthz()["status"] == "ok"
        assert len(log.accepted) == 2

    def test_threads_sharing_a_client_take_turns(self, service):
        errors: list[str] = []
        with ServiceClient(service.url) as client:
            job_ids = [client.submit(TINY_RUN)["id"] for _ in range(4)]

            def poll(job_id: str) -> None:
                try:
                    for _ in range(10):
                        seen = client.status(job_id)["id"]
                        if seen != job_id:
                            errors.append(f"{job_id} got {seen}")
                except Exception as error:  # noqa: BLE001 - reported below
                    errors.append(repr(error))

            threads = [threading.Thread(target=poll, args=(job_id,)) for job_id in job_ids]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []

    def test_call_after_close_opens_a_new_connection(self, service, monkeypatch):
        log = _ConnectionLog(service, monkeypatch)
        with ServiceClient(service.url) as client:
            client.healthz()
            client.close()
            assert log.wait_finished(1)
            assert client.healthz()["status"] == "ok"
        assert len(log.accepted) == 2


#: A 30-spec fig10 request: 5 workloads x (baseline + 5 configurations).
WARM_FIG10 = {
    "kind": "study",
    "name": "fig10",
    "workloads": ["astar", "gcc_166", "mcf", "omnet", "xalan"],
    "trace_length": 600,
    "max_accesses": 240,
}


def _submit_and_wait(client: ServiceClient, request: dict, timeout: float = 300) -> dict:
    """Submit one request, wait for it, and return its result (job completed)."""

    job = client.submit(request)
    assert client.wait(job["id"], timeout=timeout)["state"] == "completed"
    return client.result(job["id"])


def _count_identity_work(monkeypatch) -> dict:
    """Live counts of spec creations, system-tree encodes, compiles and schedulers."""

    counts = {"create": 0, "encode": 0, "compile": 0, "scheduler": 0}
    create = RunSpec.create.__func__
    canonical_json = jobs_module._canonical_json
    compile_request_ = server_module.compile_request
    scheduler_init = Scheduler.__init__

    def counting_create(cls, *args, **kwargs):
        counts["create"] += 1
        return create(cls, *args, **kwargs)

    def counting_json(value):
        counts["encode"] += isinstance(value, dict) and "hierarchy" in value
        return canonical_json(value)

    def counting_compile(payload):
        counts["compile"] += 1
        return compile_request_(payload)

    def counting_init(self, *args, **kwargs):
        counts["scheduler"] += 1
        scheduler_init(self, *args, **kwargs)

    monkeypatch.setattr(RunSpec, "create", classmethod(counting_create))
    monkeypatch.setattr(jobs_module, "_canonical_json", counting_json)
    monkeypatch.setattr(server_module, "compile_request", counting_compile)
    monkeypatch.setattr(Scheduler, "__init__", counting_init)
    return counts


class TestSpecIdentityCost:
    def test_warm_study_creates_each_spec_once_and_encodes_its_system_once(
        self, service, monkeypatch
    ):
        # A warm request the daemon has not compiled makes each of its specs
        # once, over one frozen system tree that is encoded to JSON once for
        # every digest, and reduces the job's own results: no second
        # scheduler pass.  The first daemon warms the store; a second daemon
        # over the same store sees the request for the first time.
        request = dict(WARM_FIG10)
        with ServiceClient(service.url) as client:
            assert _submit_and_wait(client, request)["manifest"]["store"]["executed"] == 30

        with running_daemon(service.store) as second, ServiceClient(second.url) as client:
            counts = _count_identity_work(monkeypatch)
            warm = client.submit(request)
            assert client.wait(warm["id"], timeout=60)["state"] == "completed"
            manifest = client.result(warm["id"])["manifest"]
            monkeypatch.undo()
            specs = second.scheduler.get(warm["id"]).specs

        assert manifest["store"]["executed"] == 0
        distinct = {entry["digest"] for entry in manifest["specs"]}
        assert len(distinct) == len(manifest["specs"]) == 30  # 5 x (baseline + 5)
        assert counts.pop("compile") == 1
        assert counts == {"create": 30, "encode": 1, "scheduler": 0}
        trees = {id(spec.system) for spec in specs}
        assert len(trees) == 1
        assert len(manifest["systems"]) == 1
        assert verify_manifest(manifest) == []

    def test_repeated_study_reuses_its_plan_and_derives_nothing(
        self, service, monkeypatch
    ):
        # The same request sent again to the same daemon reuses the compiled
        # plan: no compile, no spec creation, no system-tree encode.
        request = dict(WARM_FIG10)
        with ServiceClient(service.url) as client:
            first = _submit_and_wait(client, request)
            counts = _count_identity_work(monkeypatch)
            again = _submit_and_wait(client, request, timeout=60)
            monkeypatch.undo()

        assert counts == {"create": 0, "encode": 0, "compile": 0, "scheduler": 0}
        manifest = again["manifest"]
        assert manifest["store"]["executed"] == 0
        assert verify_manifest(manifest) == []
        assert [entry["digest"] for entry in manifest["specs"]] == [
            entry["digest"] for entry in first["manifest"]["specs"]
        ]
        assert again["result"] == first["result"]
        assert service.plans.stats() == {"size": 1, "limit": 128, "hits": 1, "misses": 1}


def _plans(**counts) -> dict:
    """A ``/healthz`` ``plans`` object at the default limit."""

    return {"limit": FINISHED_JOB_LIMIT, **counts}


class TestPlanCache:
    """Each distinct study request compiles once per daemon, and only while valid."""

    @staticmethod
    def _trace_request(name: str) -> dict:
        return {
            "kind": "study",
            "name": "fig10",
            "workloads": [f"trace:{name}"],
            "configs": ["triangel"],
            "max_accesses": 240,
        }

    def test_rerecorded_trace_recompiles_and_executes(self, service, tmp_path, monkeypatch):
        directory = tmp_path / "traces"
        monkeypatch.setenv("REPRO_TRACE_DIR", str(directory))
        path = record_workload("xalan", directory, name="replan", overrides={"length": 600})
        request = self._trace_request("replan")
        with ServiceClient(service.url) as client:
            first = client.submit(request)
            assert client.wait(first["id"], timeout=300)["state"] == "completed"
            old_digest = trace_file_digest(path)
            record_workload("mcf", directory, name="replan", overrides={"length": 600})
            second = client.submit(request)
            assert client.wait(second["id"], timeout=300)["state"] == "completed"
            manifest = client.result(second["id"])["manifest"]

        new_digest = trace_file_digest(path)
        assert new_digest != old_digest
        for spec in service.scheduler.get(second["id"]).specs:
            assert spec.trace_digests_dict() == {"trace:replan": new_digest}
        assert manifest["store"]["executed"] == 2  # baseline + triangel, afresh
        assert service.plans.stats() == _plans(size=1, hits=0, misses=2)

    def test_removed_trace_drops_its_plan_and_is_refused(self, service, tmp_path, monkeypatch):
        directory = tmp_path / "traces"
        monkeypatch.setenv("REPRO_TRACE_DIR", str(directory))
        path = record_workload("xalan", directory, name="gone", overrides={"length": 600})
        request = self._trace_request("gone")
        with ServiceClient(service.url) as client:
            _submit_and_wait(client, request)
            path.unlink()
            with pytest.raises(ServiceError) as rejected:
                client.submit(request)
        assert rejected.value.status == 400
        assert "trace:gone" in rejected.value.payload["error"]
        assert service.plans.stats() == _plans(size=0, hits=0, misses=2)

    def test_failed_compile_is_not_kept(self, service, tmp_path, monkeypatch):
        directory = tmp_path / "traces"
        monkeypatch.setenv("REPRO_TRACE_DIR", str(directory))
        request = self._trace_request("later")
        with ServiceClient(service.url) as client:
            with pytest.raises(ServiceError) as rejected:
                client.submit(request)
            assert rejected.value.status == 400
            assert "trace:later" in rejected.value.payload["error"]
            assert service.plans.stats() == _plans(size=0, hits=0, misses=1)
            record_workload("xalan", directory, name="later", overrides={"length": 600})
            result = _submit_and_wait(client, request)
        assert result["manifest"]["store"]["executed"] == 2
        assert service.plans.stats() == _plans(size=1, hits=0, misses=2)

    def test_key_order_shares_a_plan_and_workload_order_does_not(self, service):
        request = {
            "kind": "study",
            "name": "fig10",
            "workloads": ["xalan", "mcf"],
            "configs": ["triangel"],
            "trace_length": 600,
            "max_accesses": 240,
        }
        reordered = dict(reversed(list(request.items())))
        swapped = {**request, "workloads": ["mcf", "xalan"]}
        with ServiceClient(service.url) as client:
            first = _submit_and_wait(client, request)
            same = _submit_and_wait(client, reordered)
            assert client.healthz()["plans"] == _plans(size=1, hits=1, misses=1)
            other = _submit_and_wait(client, swapped)
            assert client.healthz()["plans"] == _plans(size=2, hits=1, misses=2)
            # Other request kinds compile every time and keep no plan.
            _submit_and_wait(client, TINY_RUN)
            _submit_and_wait(client, TINY_RUN)
            assert client.healthz()["plans"] == _plans(size=2, hits=1, misses=2)
        assert same["result"] == first["result"]
        assert other["manifest"]["store"]["executed"] == 0
        assert other["result"]["rendered"] != first["result"]["rendered"]

    def test_plans_are_bounded_and_the_least_recently_used_goes_first(self):
        plans = PlanCache()
        assert plans.limit == FINISHED_JOB_LIMIT == 128
        compiled: list[int] = []

        def compiler(payload) -> CompiledRequest:
            compiled.append(payload["n"])
            return CompiledRequest(kind="study", label=f"study {payload['n']}")

        requests = [{"kind": "study", "name": "fig10", "n": n} for n in range(129)]
        for request in requests[:128]:
            plans.compile(request, compiler)
        reused = plans.compile(requests[0], compiler)  # a hit: now the newest
        assert (reused.kind, reused.label, reused.priority) == ("study", "study 0", 0)
        plans.compile(requests[128], compiler)  # evicts requests[1], the oldest
        assert plans.stats() == {"size": 128, "limit": 128, "hits": 1, "misses": 129}
        compiled.clear()
        plans.compile(requests[0], compiler)
        plans.compile(requests[1], compiler)
        assert compiled == [1]
        assert plans.stats() == {"size": 128, "limit": 128, "hits": 2, "misses": 130}

    def test_threads_sharing_plans_all_get_the_in_process_table(self, service):
        base = {"kind": "study", "configs": ["triangel"], "trace_length": 600, "max_accesses": 240}
        distinct = [
            {**base, "name": "fig10", "workloads": ["xalan"]},
            {**base, "name": "fig11", "workloads": ["xalan"]},
            {**base, "name": "fig10", "workloads": ["mcf"]},
            {**base, "name": "fig12", "workloads": ["mcf", "xalan"]},
        ]
        threads_count = (os.cpu_count() or 1) + 2
        rounds = 2
        served: list[tuple[int, dict]] = []
        errors: list[str] = []

        def send(offset: int) -> None:
            order = distinct[offset % len(distinct):] + distinct[: offset % len(distinct)]
            try:
                with ServiceClient(service.url) as client:
                    for _ in range(rounds):
                        for request in order:
                            result = _submit_and_wait(client, request, timeout=120)
                            served.append((distinct.index(request), result["result"]))
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(repr(error))

        threads = [threading.Thread(target=send, args=(n,)) for n in range(threads_count)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=240)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        submissions = threads_count * rounds * len(distinct)
        assert len(served) == submissions
        expected = [_rendered_in_process(request, service.store) for request in distinct]
        for index, result in served:
            assert result == expected[index]
        stats = service.plans.stats()
        assert stats["hits"] + stats["misses"] == submissions
        assert stats["size"] == len(distinct)


def _hammer_store(path, pairs) -> None:
    """Worker-process body for the concurrent-append regression test."""

    store = ResultStore(path)
    for spec, result in pairs:
        store.put(spec, result)


class TestStoreConcurrentWriters:
    def test_parallel_process_appends_never_tear_records(self, tmp_path):
        """Satellite: concurrent ``store.put`` from several processes.

        Four processes append interleaved JSONL records to one store file;
        the flock-serialised appends must leave every record parseable and
        retrievable.  (Without the lock this flakes with torn lines once
        records span a pipe-buffer boundary.)
        """

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("fork start method unavailable")
        runner = quick_runner(use_cache=False)
        base = runner.spec_for("xalan", "baseline")
        result = runner.submit([base])[base]
        specs = [
            dataclasses.replace(base, max_accesses=600 + index)
            for index in range(48)
        ]
        path = tmp_path / "contended-store"
        context = multiprocessing.get_context("fork")
        workers = [
            context.Process(target=_hammer_store, args=(path, [(s, result) for s in chunk]))
            for chunk in (specs[0::4], specs[1::4], specs[2::4], specs[3::4])
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
            assert worker.exitcode == 0
        fresh = ResultStore(path)
        assert len(fresh.records()) == len(specs)
        for spec in specs:
            assert fresh.get(spec) is not None


#: The source tree the daemon subprocess imports (the one under test).
SRC_ROOT = Path(__file__).resolve().parent.parent / "src"


class _Daemon:
    """``python -m repro serve --port 0`` as a subprocess, read line by line.

    The daemon leads its own process group, so :meth:`stop` can kill
    whatever it leaves behind (pool workers included).  ``jobs`` is passed
    as ``--jobs``; without it the daemon inherits ``REPRO_JOBS``.
    """

    def __init__(self, cache_dir, jobs: int | None = None) -> None:
        env = dict(os.environ, PYTHONPATH=str(SRC_ROOT))
        env.pop("REPRO_TELEMETRY", None)
        command = [sys.executable, "-m", "repro", "serve", "--port", "0",
                   "--cache-dir", str(cache_dir)]
        if jobs is not None:
            command += ["--jobs", str(jobs)]
        self.process = subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
            start_new_session=True,
        )
        self.lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        try:
            self.url = self._await_url(timeout=60)
        except BaseException:
            self.stop(signal.SIGKILL)
            raise

    def _read(self) -> None:
        for text in self.process.stdout:
            self.lines.put(text)
        self.lines.put(None)  # end of output: the daemon exited

    def _await_url(self, timeout: float) -> str:
        deadline = time.monotonic() + timeout
        seen = []
        while True:
            text = self.lines.get(timeout=max(0.0, deadline - time.monotonic()))
            if text is None:
                raise AssertionError(f"daemon exited before listening: {seen}")
            seen.append(text)
            match = re.search(r"listening on (http://\S+)", text)
            if match:
                return match.group(1)

    def stop(self, sig: int) -> int:
        """Send ``sig``, wait for the exit (bounded) and return the exit code."""

        if self.process.poll() is None:
            self.process.send_signal(sig)
        try:
            code = self.process.wait(timeout=30)
        finally:
            if self.process.poll() is None:
                self.process.kill()
                self.process.wait(timeout=30)
            try:
                os.killpg(self.process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass  # nothing of the daemon's group is left
            self._reader.join(timeout=30)
            self.process.stdout.close()
        assert not self._reader.is_alive()
        return code


def _await_executed_spec(client: ServiceClient, job_id: str) -> None:
    """Poll until the job reports its first executed (not replayed) spec."""

    deadline = time.monotonic() + 120
    while True:
        events = client.status(job_id)["events"]
        if any(
            event["event"] == "spec_resolved" and event["source"] == "executed"
            for event in events
        ):
            return
        assert time.monotonic() < deadline, "no spec executed in time"
        time.sleep(0.01)


class TestDaemonKill:
    # 2 workloads x (baseline + 5 series) = 12 cells of ~0.1 s each.
    REQUEST = {
        "kind": "study",
        "name": "fig10",
        "workloads": ["xalan", "mcf"],
        "trace_length": 3000,
    }

    def test_sigkill_mid_job_keeps_the_store_and_resubmission_replays(self, tmp_path):
        cache_dir = tmp_path / "killed-store"
        request = self.REQUEST
        daemon = _Daemon(cache_dir)
        try:
            with ServiceClient(daemon.url, timeout=30) as client:
                job = client.submit(request)
                total = job["specs"]["total"]
                assert total >= 8
                _await_executed_spec(client, job["id"])
        finally:
            code = daemon.stop(signal.SIGKILL)
        assert code == -signal.SIGKILL

        stored = len(ResultStore(cache_dir))
        assert 1 <= stored < total

        daemon = _Daemon(cache_dir)
        try:
            with ServiceClient(daemon.url, timeout=30) as client:
                again = client.submit(request)
                assert client.wait(again["id"], timeout=120)["state"] == "completed"
                manifest = client.result(again["id"])["manifest"]
        finally:
            code = daemon.stop(signal.SIGTERM)
        assert code == 0
        assert manifest["store"]["hits"] == stored
        assert manifest["store"]["executed"] == total - stored
        assert verify_manifest(manifest) == []

    def test_pool_workers_exit_with_a_killed_daemon(self, tmp_path):
        """Forked pool workers hold the daemon's stdout pipe and listening
        socket; once the daemon is SIGKILLed they must exit on their own,
        so its output ends and its port refuses connections."""

        daemon = _Daemon(tmp_path / "store", jobs=2)
        try:
            with ServiceClient(daemon.url, timeout=30) as client:
                _await_executed_spec(client, client.submit(self.REQUEST)["id"])
            port = int(daemon.url.rsplit(":", 1)[1])
            daemon.process.kill()
            daemon.process.wait(timeout=30)
            daemon._reader.join(timeout=10)
            assert not daemon._reader.is_alive(), "daemon output never ended"
            with pytest.raises(ConnectionRefusedError):
                socket.create_connection(("127.0.0.1", port), timeout=5).close()
        finally:
            daemon.stop(signal.SIGKILL)


class TestServiceCLI:
    def test_invalid_jobs_env_is_a_one_line_error(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_JOBS", "abc")
        assert main(["run", "xalan", "--trace-length", "800"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: ")
        assert "REPRO_JOBS" in err and len(err.strip().splitlines()) == 1

    def test_zero_jobs_flag_rejected(self, capsys):
        assert main(["run", "xalan", "--jobs", "0"]) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_cache_show_json_shares_the_service_serializer(self, capsys):
        store = default_store()
        runner = quick_runner(store=store)
        runner.submit([runner.spec_for("xalan", "baseline")])
        assert main(["cache", "show", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        expected = store_stats_payload(store)
        assert payload["entries"] == expected["entries"] == 1
        assert payload["code_version"] == code_version()
        assert payload["kinds"] == expected["kinds"]
        assert payload["size_bytes"] > 0

    def test_cache_clear_rejects_json(self, capsys):
        assert main(["cache", "clear", "--json"]) == 2
        assert "cache show" in capsys.readouterr().err

    def test_submit_requires_its_target(self, capsys):
        assert main(["submit", "run"]) == 2
        assert "workload" in capsys.readouterr().err

    def test_submit_unreachable_daemon_exits_2(self, capsys):
        assert main(["submit", "run", "xalan", "--url", "http://127.0.0.1:9"]) == 2
        assert "cannot reach" in capsys.readouterr().err

    @pytest.mark.parametrize("url", ["127.0.0.1:8642", "https://127.0.0.1:8642"])
    def test_non_http_daemon_url_is_a_one_line_error(self, capsys, url):
        assert main(["status", "job-1", "--url", url]) == 2
        err = capsys.readouterr().err
        assert "http://host" in err and len(err.strip().splitlines()) == 1

    def test_submit_status_result_cancel_round_trip(
        self, tmp_path, monkeypatch, capsys
    ):
        store = ResultStore(tmp_path / "cli-store")
        server = build_server(store, port=0, jobs=1)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        monkeypatch.setenv("REPRO_SERVE_URL", server.url)
        try:
            code = main(
                [
                    "submit", "run", "xalan",
                    "--configs", "baseline",
                    "--trace-length", "1200",
                    "--max-accesses", "600",
                    "--wait", "--json",
                ]
            )
            assert code == 0
            submitted = json.loads(capsys.readouterr().out)
            job_id = submitted["job"]["id"]
            assert submitted["manifest"]["store"]["executed"] == 1

            assert main(["status", job_id]) == 0
            status_out = capsys.readouterr().out
            assert "completed" in status_out and job_id in status_out

            assert main(["result", job_id]) == 0
            assert "store: 0 hit(s), 1 executed" in capsys.readouterr().out

            assert main(["cancel", job_id]) == 0
            assert "not cancellable" in capsys.readouterr().out

            assert main(["status", "job-missing"]) == 2
            assert "404" in capsys.readouterr().err
        finally:
            server.shutdown()
            server.server_close()
            server.scheduler.close()
            thread.join(timeout=5)
