"""The scheduling core shared by the one-shot CLI path and the daemon.

Callers submit batches of specs as :class:`Job`\\ s, and one priority
queue feeds a pluggable :class:`~repro.service.backends.WorkerBackend`
(in-thread at ``jobs == 1``, a process pool above).  The scheduler serves
one batch or many concurrent clients against one warm store:

* **store first** — every submitted spec is satisfied from the
  :class:`~repro.experiments.store.ResultStore` when it can be, and every
  fresh result is persisted the moment it completes;
* **in-flight dedupe** — a spec already queued or running for another job
  is *joined*, not re-executed: the second job waits on the same task and
  records the result as ``shared``.  Concurrent clients submitting the
  same study therefore cost one execution of each unique spec, total;
* **priorities** — higher-priority jobs' specs dispatch first (FIFO within
  a priority level; joining a queued task lifts it to the joiner's
  priority);
* **per-client quotas** — a submission that would push a client's
  unresolved spec count past the quota is rejected immediately with
  :class:`QuotaExceededError`, never queued forever;
* **cooperative cancellation** — cancelling a job detaches it from its
  pending tasks; tasks no other job wants and that have not started are
  abandoned, while tasks already executing run to completion and persist
  (the store never holds a torn batch);
* **bounded retention** — the newest :data:`FINISHED_JOB_LIMIT` finished
  jobs stay queryable; older ones are forgotten, so a long-running daemon's
  memory does not grow with the number of requests it has served.

Every unique spec miss is one task, and every task is one backend call.

The experiment runner and the explorer build one scheduler per batch and
call :meth:`Scheduler.run` (submit one job and wait), so the CLI's one-shot
path and the ``repro serve`` daemon exercise the same code.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
import uuid
from collections import deque
from contextlib import nullcontext
from typing import Callable, Mapping, Sequence

from repro import obs
from repro.experiments import jobs as spec_jobs
from repro.experiments.jobs import RunSpec
from repro.experiments.store import Result, ResultStore, Spec

#: Job lifecycle states (a job is ``running`` from submission — its specs
#: may still be queued behind other jobs' — until it reaches a terminal
#: state).
JOB_STATES = ("running", "completed", "failed", "cancelled")

#: How each of a job's specs was satisfied, as recorded in its provenance
#: counters and per-spec events.
SPEC_SOURCES = ("store", "executed", "shared")

#: Progress events retained per job.  Long-running daemon jobs with huge
#: batches emit thousands of ``spec_resolved`` entries; the ring keeps the
#: newest ``JOB_EVENT_LIMIT`` with their original ``seq`` numbers, so the
#: ``?after=N`` streaming contract survives and drops are reported
#: explicitly rather than silently renumbered.
JOB_EVENT_LIMIT = 512

#: Finished (completed, failed or cancelled) jobs kept queryable.  When a
#: job finishes beyond this many, the oldest finished job is forgotten and
#: its id answers like an unknown one; running jobs are never forgotten.
FINISHED_JOB_LIMIT = 128

_JOBS_SUBMITTED = obs.REGISTRY.counter(
    "repro_jobs_submitted_total", "Jobs accepted by the scheduler."
)
_JOBS_COMPLETED = obs.REGISTRY.counter(
    "repro_jobs_completed_total", "Jobs that reached the completed state."
)
_JOBS_FAILED = obs.REGISTRY.counter(
    "repro_jobs_failed_total", "Jobs that reached the failed state."
)
_JOBS_CANCELLED = obs.REGISTRY.counter(
    "repro_jobs_cancelled_total", "Jobs cancelled before completion."
)
_SPECS_RESOLVED = obs.REGISTRY.counter(
    "repro_specs_resolved_total",
    "Specs resolved, by provenance (store/executed/shared).",
    labels=("source",),
)
_QUEUE_DEPTH = obs.REGISTRY.gauge(
    "repro_scheduler_queue_depth",
    "Undispatched backend calls waiting in the priority heap.",
)
_ACTIVE_PARTS = obs.REGISTRY.gauge(
    "repro_scheduler_active_parts", "Backend calls currently in flight."
)
_PART_SECONDS = obs.REGISTRY.histogram(
    "repro_scheduler_part_seconds",
    "Wall seconds from dispatch to completion of one backend call.",
)


class QuotaExceededError(RuntimeError):
    """A submission would exceed the per-client unresolved-spec quota."""


def spec_label(spec: Spec) -> str:
    """A short human-readable label for one spec (events and listings)."""

    if isinstance(spec, RunSpec):
        return f"{spec.workload} × {spec.configuration}"
    return f"{' + '.join(spec.workloads)} × {spec.configuration}"


class Job:
    """One submitted batch of specs, tracked through to a terminal state.

    Jobs are created by :meth:`Scheduler.submit` only.  ``results`` maps
    each unique spec to its result once resolved; ``provenance`` counts how
    specs were satisfied (``store``/``executed``/``shared``); ``events`` is
    a bounded ring of the newest progress events whose entries carry a
    monotonically increasing ``seq`` — pollers pass the last seen ``seq``
    back to :meth:`Scheduler.job_snapshot` to stream only what is new, and
    a poller that fell behind the ring sees the drop reported explicitly
    (``events_dropped`` / ``events_gap``) rather than silently renumbered
    events.
    """

    def __init__(
        self,
        job_id: str,
        specs: Sequence[Spec],
        *,
        client: str,
        priority: int,
        kind: str,
        label: str,
        request: Mapping | None,
        finalize: Callable[["Job"], dict] | None,
        event_limit: int = JOB_EVENT_LIMIT,
    ) -> None:
        self.id = job_id
        self.specs = tuple(specs)
        self.client = client
        self.priority = priority
        self.kind = kind
        self.label = label
        self.request = dict(request) if request else {}
        self.state = "running"
        self.error: str | None = None
        self.submitted = time.time()
        self.finished: float | None = None
        self.results: dict[Spec, Result] = {}
        self.provenance = {source: 0 for source in SPEC_SOURCES}
        self.events: deque[dict] = deque(maxlen=max(1, event_limit))
        self.payload: dict | None = None
        self.manifest: dict | None = None
        self.telemetry: dict | None = None
        self._event_seq = 0
        self._phase_seconds: dict[str, float] = {}
        self._spec_telemetry: dict[str, dict] = {}
        self._pending: set[Spec] = set(self.specs)
        self._errors: list[BaseException] = []
        self._finalize = finalize
        self._sealed = False
        self._done = threading.Event()

    # -- progress -----------------------------------------------------------
    def record_event(self, event: str, **detail) -> None:
        """Append one progress event (``seq`` and timestamp added here).

        The ring drops the oldest entry once full; ``seq`` keeps counting
        from the dropped entries, so streaming consumers can detect gaps.
        """

        self.events.append(
            {"seq": self._event_seq, "time": time.time(), "event": event, **detail}
        )
        self._event_seq += 1

    @property
    def events_dropped(self) -> int:
        """Events evicted from the ring since the job was created."""

        return self._event_seq - len(self.events)

    def add_phase_seconds(self, name: str, seconds: float) -> None:
        """Accumulate wall time against one named phase (telemetry only)."""

        self._phase_seconds[name] = self._phase_seconds.get(name, 0.0) + seconds

    def resolve(self, spec: Spec, result: Result, source: str) -> None:
        """Record one spec's result (called by the scheduler, under lock)."""

        self._pending.discard(spec)
        self.results[spec] = result
        self.provenance[source] += 1
        if obs.enabled():
            _SPECS_RESOLVED.inc(source=source)
        self.record_event(
            "spec_resolved",
            spec=spec_label(spec),
            digest=spec.content_hash()[:12],
            source=source,
        )

    def resolve_error(self, spec: Spec, error: BaseException) -> None:
        """Record one spec's failure (called by the scheduler, under lock)."""

        self._pending.discard(spec)
        self._errors.append(error)
        self.record_event("spec_failed", spec=spec_label(spec), error=str(error))

    # -- inspection ----------------------------------------------------------
    @property
    def done(self) -> bool:
        """Whether the job reached a terminal state."""

        return self.state != "running"

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the job reaches a terminal state (or timeout)."""

        return self._done.wait(timeout)

    def snapshot(self, after: int | None = None, events: bool = True) -> dict:
        """The job's status as a JSON-safe dictionary.

        ``after`` filters the event log to entries with ``seq > after``
        (the polling-based streaming contract of ``GET /jobs/<id>``).
        When the ring has evicted events the snapshot says so:
        ``events_dropped`` counts total evictions, and ``events_gap``
        names the ``[from, to]`` seq range a too-slow poller missed.
        """

        data = {
            "id": self.id,
            "kind": self.kind,
            "label": self.label,
            "client": self.client,
            "priority": self.priority,
            "state": self.state,
            "error": self.error,
            "submitted": self.submitted,
            "finished": self.finished,
            "specs": {
                "total": len(self.specs),
                "resolved": len(self.results),
                **self.provenance,
            },
        }
        if events:
            log = list(self.events)
            if after is not None:
                log = [entry for entry in log if entry["seq"] > after]
            data["events"] = log
            dropped = self.events_dropped
            if dropped:
                data["events_dropped"] = dropped
                oldest_kept = self.events[0]["seq"] if self.events else self._event_seq
                gap_from = 0 if after is None else after + 1
                if oldest_kept > gap_from:
                    data["events_gap"] = [gap_from, oldest_kept - 1]
        if self.telemetry is not None:
            data["telemetry"] = self.telemetry
        return data


class _Task:
    """One unit of deduplicated work: a spec and the backend call for it."""

    __slots__ = ("spec", "creator", "waiters", "state", "priority", "phases",
                 "started", "seconds")

    def __init__(self, spec: Spec, creator: Job, priority: int):
        self.spec = spec
        self.creator = creator
        self.waiters: list[Job] = [creator]
        self.state = "queued"  # queued | running | done | failed | abandoned
        self.priority = priority
        # Telemetry only (untouched when disabled): kernel phase seconds
        # collected at dispatch, and the dispatch→done wall time.
        self.phases: dict[str, float] = {}
        self.started = 0.0
        self.seconds = 0.0


class Scheduler:
    """Priority job queue + quotas + cancellation over a worker backend.

    ``backend`` defaults to the policy ``jobs`` implies (inline at 1, a
    process pool above); ``quota`` caps each client's *unresolved* specs —
    store-satisfied specs never count.
    """

    def __init__(
        self,
        store: ResultStore | None = None,
        jobs: int = 1,
        backend=None,
        quota: int | None = None,
    ) -> None:
        from repro.service.backends import backend_for_jobs

        self.store = store
        self.quota = quota
        self._backend = backend if backend is not None else backend_for_jobs(jobs)
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._jobs: dict[str, Job] = {}
        self._finished: deque[str] = deque()  # finished job ids, oldest first
        self._tasks: dict[Spec, _Task] = {}
        self._heap: list[tuple[int, int, _Task]] = []
        self._seq = itertools.count()
        self._outstanding: dict[str, int] = {}
        self._active = 0
        self._stop = False
        self._dispatcher: threading.Thread | None = None
        self._started = time.time()
        self.executed = 0  # specs this scheduler ran (not hits, not shares)

    # -- submission ----------------------------------------------------------
    def submit(
        self,
        specs: Sequence[Spec],
        *,
        client: str = "local",
        priority: int = 0,
        kind: str = "batch",
        label: str | None = None,
        request: Mapping | None = None,
        finalize: Callable[[Job], dict] | None = None,
    ) -> Job:
        """Enqueue one job; returns immediately with its :class:`Job`.

        Raises :class:`QuotaExceededError` before any state changes when
        the batch's store misses would push ``client`` past the quota.
        """

        unique = list(dict.fromkeys(specs))
        job = Job(
            f"job-{uuid.uuid4().hex[:12]}",
            unique,
            client=client,
            priority=priority,
            kind=kind,
            label=label or (spec_label(unique[0]) if unique else kind),
            request=request,
            finalize=finalize,
        )
        completed = False
        telemetry = obs.enabled()
        with self._cond:
            misses = [
                spec
                for spec in unique
                if self.store is None or spec not in self.store
            ]
            if self.quota is not None:
                held = self._outstanding.get(client, 0)
                if held + len(misses) > self.quota:
                    raise QuotaExceededError(
                        f"client {client!r} quota exceeded: {held} unresolved "
                        f"spec(s) held + {len(misses)} submitted > quota "
                        f"{self.quota}; retry once current jobs finish"
                    )
            self._jobs[job.id] = job
            job.record_event(
                "submitted", specs=len(unique), misses=len(misses), client=client
            )
            if telemetry:
                _JOBS_SUBMITTED.inc()
                obs.emit(
                    "job_submitted",
                    job=job.id,
                    kind=kind,
                    specs=len(unique),
                    misses=len(misses),
                    client=client,
                )
            for spec in unique:
                if self.store is not None:
                    lookup_start = time.perf_counter() if telemetry else 0.0
                    cached = self.store.get(spec)
                    if telemetry:
                        job.add_phase_seconds(
                            "store_io", time.perf_counter() - lookup_start
                        )
                else:
                    cached = None
                if cached is not None:
                    job.resolve(spec, cached, "store")
                    continue
                self._outstanding[client] = self._outstanding.get(client, 0) + 1
                task = self._tasks.get(spec)
                if task is not None and task.state in ("queued", "running"):
                    task.waiters.append(job)
                    if priority > task.priority and task.state == "queued":
                        # Lift the queued task to the joiner's priority by
                        # re-pushing it; the stale heap entry is skipped on
                        # pop because the task is no longer queued by then.
                        task.priority = priority
                        self._push(task)
                    continue
                self._tasks[spec] = task = _Task(spec, job, priority)
                self._push(task)
                if telemetry:
                    obs.emit(
                        "task_queued",
                        job=job.id,
                        spec=spec_label(spec),
                        priority=priority,
                    )
            if telemetry:
                self._update_gauges()
            if not job._pending:
                job._sealed = True
                completed = True
            else:
                self._ensure_dispatcher()
                self._cond.notify_all()
        if completed:
            self._finish_job(job)
        return job

    def _push(self, task: _Task) -> None:
        """Heap-push a queued task at its priority (FIFO within a level)."""

        heapq.heappush(self._heap, (-task.priority, next(self._seq), task))

    def _update_gauges(self) -> None:
        """Under lock: publish queue depth and in-flight calls (telemetry)."""

        _QUEUE_DEPTH.set(len(self._heap))
        _ACTIVE_PARTS.set(self._active)

    # -- dispatch ------------------------------------------------------------
    def _ensure_dispatcher(self) -> None:
        if self._dispatcher is None:
            self._dispatcher = threading.Thread(
                target=self._dispatch_loop, name="repro-scheduler", daemon=True
            )
            self._dispatcher.start()

    def _dispatch_loop(self) -> None:
        while True:
            telemetry = obs.enabled()
            with self._cond:
                while not self._stop and not (
                    self._heap and self._active < self._backend.slots
                ):
                    self._cond.wait()
                if self._stop:
                    return
                _, _, task = heapq.heappop(self._heap)
                if task.state != "queued":
                    continue  # abandoned task or stale re-pushed entry
                task.state = "running"
                self._active += 1
                if telemetry:
                    task.started = time.perf_counter()
                    self._update_gauges()
            if telemetry:
                obs.emit(
                    "task_dispatched", job=task.creator.id, spec=spec_label(task.spec)
                )
            # An inline backend executes the call synchronously inside
            # submit(), on this thread — collect the kernel's phase spans
            # here.  Pool backends return immediately and run the call in a
            # worker process, whose spans stay process-local; only the
            # dispatch→done wall time survives for them.  ``execute`` is
            # looked up per call, so patching ``repro.experiments.jobs.
            # execute`` counts or fakes executions in tests.
            try:
                with obs.collect() if telemetry else nullcontext([]) as spans:
                    future = self._backend.submit(spec_jobs.execute, task.spec)
            except BaseException as error:  # noqa: BLE001 - backend refused
                self._task_done(task, None, error)
                continue
            if spans:
                with self._lock:
                    task.phases = obs.breakdown(spans)
            future.add_done_callback(lambda f, t=task: self._task_done(t, f, None))

    def _task_done(self, task: _Task, future, submit_error) -> None:
        """A task's backend call finished; persist, resolve waiters."""

        completions: list[Job] = []
        telemetry = obs.enabled()
        with self._cond:
            self._active -= 1
            if telemetry and task.started:
                task.seconds = time.perf_counter() - task.started
                _PART_SECONDS.observe(task.seconds)
            error = submit_error if future is None else future.exception()
            if error is not None:
                task.state = "failed"
                if telemetry:
                    obs.emit(
                        "task_done",
                        job=task.creator.id,
                        spec=spec_label(task.spec),
                        outcome="failed",
                        error=str(error),
                    )
                completions = self._resolve_task(task, None, error)
            else:
                result = future.result()
                if self.store is not None:
                    put_start = time.perf_counter() if telemetry else 0.0
                    self.store.put(task.spec, result)
                    if telemetry:
                        task.creator.add_phase_seconds(
                            "store_io", time.perf_counter() - put_start
                        )
                self.executed += 1
                task.state = "done"
                if telemetry:
                    obs.emit(
                        "task_done",
                        job=task.creator.id,
                        spec=spec_label(task.spec),
                        outcome="done",
                        seconds=round(task.seconds, 6),
                    )
                completions = self._resolve_task(task, result, None)
            self._tasks.pop(task.spec, None)
            if telemetry:
                self._update_gauges()
            self._cond.notify_all()
        for job in completions:
            self._finish_job(job)

    def _resolve_task(self, task: _Task, result, error) -> list[Job]:
        """Under lock: deliver a task outcome to every waiting job."""

        sealed: list[Job] = []
        telemetry = obs.enabled()
        for job in task.waiters:
            if job.state != "running" or task.spec not in job._pending:
                continue
            if error is None:
                source = "executed" if job is task.creator else "shared"
                job.resolve(task.spec, result, source)
                if telemetry:
                    self._record_spec_telemetry(job, task, source)
            else:
                job.resolve_error(task.spec, error)
            self._release_quota(job.client, 1)
            if not job._pending and not job._sealed:
                job._sealed = True
                sealed.append(job)
        return sealed

    @staticmethod
    def _record_spec_telemetry(job: Job, task: _Task, source: str) -> None:
        """Under lock: fold a finished task's timings into one waiter job."""

        entry: dict = {"seconds": round(task.seconds, 6), "source": source}
        if task.phases:
            entry["phases"] = {
                name: round(value, 6) for name, value in task.phases.items()
            }
        job._spec_telemetry[spec_label(task.spec)] = entry
        if job is task.creator:
            job.add_phase_seconds("execute", task.seconds)
            for name, value in task.phases.items():
                job.add_phase_seconds(name, value)

    def _release_quota(self, client: str, count: int) -> None:
        held = self._outstanding.get(client, 0) - count
        if held > 0:
            self._outstanding[client] = held
        else:
            self._outstanding.pop(client, None)

    def _finish_job(self, job: Job) -> None:
        """Outside the lock: run finalize, then seal the terminal state.

        Finalize (the request layer's reduce step — rendering a study
        table from the job's results, flattening stats) must never submit
        to *this* scheduler, which could deadlock a single-slot backend.
        """

        payload: dict | None = None
        finalize_error: BaseException | None = None
        telemetry = obs.enabled()
        if not job._errors and job._finalize is not None:
            reduce_start = time.perf_counter() if telemetry else 0.0
            try:
                payload = job._finalize(job)
            except Exception as error:  # noqa: BLE001 - recorded on the job
                finalize_error = error
            if telemetry:
                job.add_phase_seconds("reduce", time.perf_counter() - reduce_start)
        with self._cond:
            if job.state != "running":  # pragma: no cover - cancel race guard
                return
            if job._errors or finalize_error is not None:
                failure = job._errors[0] if job._errors else finalize_error
                job.state = "failed"
                job.error = str(failure)
                job._errors = job._errors or [finalize_error]
            else:
                job.state = "completed"
                job.payload = payload
            job.finished = time.time()
            if telemetry and (job._phase_seconds or job._spec_telemetry):
                job.telemetry = {
                    "phases": {
                        name: round(value, 6)
                        for name, value in job._phase_seconds.items()
                    },
                    "specs": dict(job._spec_telemetry),
                }
            job.record_event(job.state)
            job._done.set()
            self._retire(job)
            self._cond.notify_all()
        if telemetry:
            if job.state == "completed":
                _JOBS_COMPLETED.inc()
            else:
                _JOBS_FAILED.inc()
            obs.emit(
                f"job_{job.state}",
                job=job.id,
                kind=job.kind,
                client=job.client,
                seconds=round(job.finished - job.submitted, 6),
                **job.provenance,
            )

    def _retire(self, job: Job) -> None:
        """Under lock: record a finished job, forgetting the oldest beyond
        :data:`FINISHED_JOB_LIMIT` (read per call, so tests can patch it)."""

        self._finished.append(job.id)
        while len(self._finished) > FINISHED_JOB_LIMIT:
            self._jobs.pop(self._finished.popleft(), None)

    # -- job control ---------------------------------------------------------
    def get(self, job_id: str) -> Job:
        """The job for an id; raises ``KeyError`` for unknown ids."""

        with self._lock:
            return self._jobs[job_id]

    def job_snapshot(self, job_id: str, after: int | None = None) -> dict:
        """A consistent status snapshot (see :meth:`Job.snapshot`)."""

        with self._lock:
            return self._jobs[job_id].snapshot(after=after)

    def jobs(self) -> list[Job]:
        """Every retained job, in submission order (see :meth:`_retire`)."""

        with self._lock:
            return list(self._jobs.values())

    def cancel(self, job_id: str) -> bool:
        """Cancel a job cooperatively; returns whether anything changed.

        Pending specs are detached; queued tasks nobody else wants are
        abandoned before they start.  Specs already executing run to
        completion and persist to the store — cancellation never tears a
        batch mid-write — but the job stops waiting for them.
        """

        with self._cond:
            job = self._jobs[job_id]
            if job.state != "running" or job._sealed:
                return False
            abandoned = 0
            for spec in list(job._pending):
                task = self._tasks.get(spec)
                if task is not None and job in task.waiters:
                    task.waiters.remove(job)
                    if not task.waiters and task.state == "queued":
                        task.state = "abandoned"
                        self._tasks.pop(spec, None)
                        abandoned += 1
            released = len(job._pending)
            job._pending.clear()
            self._release_quota(job.client, released)
            job.state = "cancelled"
            job.finished = time.time()
            job.record_event("cancelled", detached=released, abandoned=abandoned)
            job._done.set()
            self._retire(job)
            self._cond.notify_all()
        if obs.enabled():
            _JOBS_CANCELLED.inc()
            obs.emit(
                "job_cancelled",
                job=job.id,
                detached=released,
                abandoned=abandoned,
            )
            if abandoned:
                obs.emit("task_abandoned", job=job.id, tasks=abandoned)
        return True

    # -- one-shot + lifecycle -------------------------------------------------
    def run(self, specs: Sequence[Spec]) -> dict[Spec, Result]:
        """Submit one batch and wait: the one-shot path.

        Returns a spec → result mapping for the unique specs, in
        submission order.  A failing spec re-raises its original exception.
        """

        job = self.submit(specs)
        job.wait()
        if job._errors:
            raise job._errors[0]
        return {spec: job.results[spec] for spec in job.specs}

    def stats(self) -> dict:
        """JSON-safe scheduler counters (the daemon's ``/healthz`` body)."""

        with self._lock:
            states: dict[str, int] = {}
            for job in self._jobs.values():
                states[job.state] = states.get(job.state, 0) + 1
            return {
                "uptime_s": time.time() - self._started,
                "jobs": states,
                "queued_parts": len(self._heap),
                "active_parts": self._active,
                "executed_specs": self.executed,
                "outstanding": dict(self._outstanding),
                "backend_slots": self._backend.slots,
                "quota": self.quota,
                "telemetry": obs.enabled(),
            }

    def close(self) -> None:
        """Stop the dispatch loop and release the backend (idempotent)."""

        with self._cond:
            self._stop = True
            self._cond.notify_all()
            dispatcher, self._dispatcher = self._dispatcher, None
        if dispatcher is not None:
            dispatcher.join()
        self._backend.close()

    def __enter__(self) -> "Scheduler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
