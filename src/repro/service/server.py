"""The ``repro serve`` daemon: a stdlib HTTP/JSON front on the scheduler.

One long-running process owns a :class:`~repro.service.scheduler.Scheduler`
over the shared result store, and every client — the ``repro submit`` CLI,
the :mod:`repro.client` Python client, plain ``curl`` — talks to it over
JSON:

==========================  =================================================
``POST /jobs``              submit a job (see :mod:`repro.service.requests`
                            for the body kinds); returns the job snapshot,
                            ``429`` over quota, ``400`` on validation errors
                            (one line naming the field), a malformed
                            ``Content-Length`` or any ``Transfer-Encoding``,
                            ``413`` for bodies over :data:`MAX_BODY_BYTES`
``GET /jobs``               list every job's snapshot (without event logs)
``GET /jobs/<id>``          one job's status; ``?after=N`` returns only
                            progress events with ``seq > N`` (poll-based
                            streaming); ``404`` once the scheduler has
                            forgotten the job (it keeps the newest
                            ``FINISHED_JOB_LIMIT`` finished jobs)
``GET /jobs/<id>/result``   the reduced result payload plus the run
                            manifest; ``409`` until the job completes
``POST /jobs/<id>/cancel``  cooperative cancellation
``GET /healthz``            liveness + scheduler and plan-cache counters +
                            code version
``GET /store/stats``        the shared store's machine-readable statistics
                            (the same serializer ``repro cache show --json``
                            prints)
``GET /metrics``            the process's telemetry registry in Prometheus
                            text exposition format (always served; series
                            only move when ``REPRO_TELEMETRY`` is on)
==========================  =================================================

With telemetry enabled every request is also measured: per-endpoint latency
histograms (``repro_http_request_seconds``) and status-labelled request
counters (``repro_http_requests_total``), with job ids normalised out of
the route label so the cardinality stays bounded.

Everything is stdlib (``http.server.ThreadingHTTPServer``): no new
dependencies.  Handler threads block in :meth:`Scheduler.submit` only long
enough to compile and enqueue — execution happens on the scheduler's
backend — so a slow simulation never starves ``/healthz``.

Connections are HTTP/1.1 and kept alive: each accepted connection gets one
handler thread, which serves its requests in turn until the client closes
it or the server is closed.  Every route reads the body it was sent, so the
next request on the connection starts at its own first byte.  Any other
exception a route raises is answered with a one-line JSON ``500`` and
``Connection: close`` (its traceback goes to stderr), never with silence.
"""

from __future__ import annotations

import json
import signal
import socket
import sys
import threading
import time
import traceback
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from repro import obs
from repro.experiments.jobs import code_version
from repro.experiments.store import ResultStore, store_stats_payload
from repro.service.manifest import job_manifest
from repro.service.requests import PlanCache, compile_request
from repro.service.scheduler import QuotaExceededError, Scheduler

#: Default bind address of ``repro serve``.
DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8642

#: Content type of ``GET /metrics`` (Prometheus text exposition format).
METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Largest request body the daemon reads.  A larger declared
#: ``Content-Length`` is answered ``413`` without reading the body.
MAX_BODY_BYTES = 16 * 1024 * 1024

_HTTP_SECONDS = obs.REGISTRY.histogram(
    "repro_http_request_seconds",
    "Wall seconds handling one HTTP request, by endpoint.",
    labels=("method", "route"),
)
_HTTP_REQUESTS = obs.REGISTRY.counter(
    "repro_http_requests_total",
    "HTTP requests served, by endpoint and status code.",
    labels=("method", "route", "status"),
)


def _route_label(path: str) -> str:
    """The bounded-cardinality route label for a request path.

    Job ids are normalised to ``{id}`` so every job hits the same series;
    unknown paths collapse into one ``other`` bucket.
    """

    parts = [part for part in urlparse(path).path.split("/") if part]
    if not parts:
        return "/"
    if parts[0] == "jobs":
        if len(parts) == 1:
            return "/jobs"
        if len(parts) == 2:
            return "/jobs/{id}"
        if len(parts) == 3 and parts[2] in ("result", "cancel"):
            return "/jobs/{id}/" + parts[2]
        return "other"
    if parts == ["healthz"]:
        return "/healthz"
    if parts == ["metrics"]:
        return "/metrics"
    if parts == ["store", "stats"]:
        return "/store/stats"
    return "other"


class _BodyTooLarge(Exception):
    """A request declared a body over :data:`MAX_BODY_BYTES` (HTTP 413)."""


class ServiceServer(ThreadingHTTPServer):
    """The HTTP server plus the scheduler/store it fronts.

    ``plans`` keeps this daemon's compiled ``study`` requests (see
    :class:`~repro.service.requests.PlanCache`); each server starts with
    none.

    :meth:`server_close` also ends every open connection, because a
    kept-alive connection's handler thread would otherwise outlive the
    server (``daemon_threads`` are never joined) and keep answering from a
    closed scheduler.  A handler in the middle of a request still writes
    its reply; an idle one reads end-of-file and exits; a request read
    after the close is dropped unanswered.
    """

    daemon_threads = True

    def __init__(self, address, scheduler: Scheduler, store: ResultStore | None,
                 verbose: bool = False) -> None:
        self.scheduler = scheduler
        self.store = store
        self.verbose = verbose
        self.plans = PlanCache()
        #: Set by :meth:`server_close`; handlers then serve no new request.
        self.closed = False
        self._connections: set[socket.socket] = set()
        self._connections_lock = threading.Lock()
        super().__init__(address, _Handler)

    def process_request(self, request, client_address) -> None:
        with self._connections_lock:
            self._connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        # Forgotten before it is closed, so server_close() (which holds the
        # lock) never shuts down a descriptor that was closed and reused.
        with self._connections_lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    def server_close(self) -> None:
        self.closed = True
        super().server_close()
        with self._connections_lock:
            for connection in self._connections:
                try:
                    connection.shutdown(socket.SHUT_RD)
                except OSError:
                    pass  # the peer already reset it

    @property
    def url(self) -> str:
        """The base URL clients should talk to."""

        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"
    # _send_bytes writes the headers and the body in two sends; with Nagle's
    # algorithm on, a kept-alive client's delayed ACK holds the body ~40 ms.
    disable_nagle_algorithm = True
    server: ServiceServer  # narrowed for the route handlers

    # -- plumbing ------------------------------------------------------------
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if self.server.verbose:
            sys.stderr.write(
                f"repro serve: {self.address_string()} {format % args}\n"
            )

    def _send(self, status: int, payload: dict) -> None:
        self._send_bytes(status, json.dumps(payload).encode(), "application/json")

    def _send_text(self, status: int, text: str, content_type: str) -> None:
        self._send_bytes(status, text.encode(), content_type)

    def _send_bytes(self, status: int, body: bytes, content_type: str) -> None:
        self._status = status
        self._replied = True
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, message: str) -> None:
        self._send(status, {"error": message})

    def parse_request(self) -> bool:
        if self.server.closed:
            # The scheduler may be closed already: answer nothing, and the
            # client sees the connection end.
            self.close_connection = True
            return False
        return super().parse_request()

    def _read_body(self) -> bytes:
        """The request's whole declared body (``b""`` when it has none)."""

        # Each refusal below leaves the body unread, so the connection's
        # remaining bytes cannot be framed into a next request: close it
        # after replying.
        encoding = self.headers.get("Transfer-Encoding")
        if encoding is not None:
            self.close_connection = True
            raise ValueError(
                f"Transfer-Encoding {encoding!r} is not supported: send the "
                f"body with a Content-Length"
            )
        declared = self.headers.get("Content-Length") or "0"
        try:
            length = int(declared)
        except ValueError:
            length = -1
        if length < 0:
            self.close_connection = True
            raise ValueError(
                f"invalid Content-Length {declared!r}: expected a non-negative "
                f"integer"
            )
        if length > MAX_BODY_BYTES:
            self.close_connection = True
            raise _BodyTooLarge(
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit"
            )
        return self.rfile.read(length) if length else b""

    def _client_name(self, payload: dict) -> str:
        return (
            payload.get("client")
            or self.headers.get("X-Repro-Client")
            or self.client_address[0]
        )

    # -- routes --------------------------------------------------------------
    _status = 0  # last response status, captured by _send_bytes for metrics
    _replied = False  # whether the current request's reply has started

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._observed("GET", self._handle_get)

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._observed("POST", self._handle_post)

    def _observed(self, method: str, handler) -> None:
        """Run one route handler, measuring latency and counting status."""

        if not obs.enabled():
            self._dispatch(handler)
            return
        self._status = 0
        start = time.perf_counter()
        try:
            self._dispatch(handler)
        finally:
            route = _route_label(self.path)
            _HTTP_SECONDS.observe(
                time.perf_counter() - start, method=method, route=route
            )
            _HTTP_REQUESTS.inc(method=method, route=route, status=str(self._status))

    def _dispatch(self, handler) -> None:
        """Read the body, run the route and answer its errors.

        Every route reads the body first, even one it ignores: bytes left
        unread would be parsed as the connection's next request.  Any other
        exception is a fault of the daemon: its traceback goes to stderr,
        the client gets a one-line ``500`` (unless a reply had already
        started) and the connection closes, since what it was in the middle
        of is unknown.
        """

        self._replied = False
        url = urlparse(self.path)
        parts = [part for part in url.path.split("/") if part]
        try:
            handler(url, parts, self._read_body())
        except KeyError as error:
            if len(parts) >= 2 and parts[0] == "jobs":
                self._error(404, f"unknown job {parts[1]!r}")
            else:
                self._internal_error(url.path, error)
        except QuotaExceededError as error:
            self._error(429, str(error))
        except _BodyTooLarge as error:
            self._error(413, str(error))
        except ValueError as error:
            self._error(400, str(error))
        except Exception as error:  # noqa: BLE001 - answered, then logged
            self._internal_error(url.path, error)

    def _internal_error(self, path: str, error: Exception) -> None:
        """Log the traceback; answer a one-line 500 and close the connection."""

        self.close_connection = True
        sys.stderr.write(
            f"repro serve: {self.command} {path} failed:\n" + traceback.format_exc()
        )
        if self._replied:
            return
        summary = " ".join(f"{type(error).__name__}: {error}".split())
        try:
            self._error(500, f"internal error in {self.command} {path}: {summary}")
        except OSError:
            pass  # the client has gone

    def _handle_get(self, url, parts: list[str], body: bytes) -> None:
        if parts == ["healthz"]:
            self._send(
                200,
                {
                    "status": "ok",
                    "code_version": code_version(),
                    "scheduler": self.server.scheduler.stats(),
                    "plans": self.server.plans.stats(),
                    "store": store_stats_payload(self.server.store)
                    if self.server.store is not None
                    else None,
                },
            )
        elif parts == ["metrics"]:
            self._send_text(200, obs.REGISTRY.render(), METRICS_CONTENT_TYPE)
        elif parts == ["store", "stats"]:
            if self.server.store is None:
                self._error(404, "this daemon runs without a store")
                return
            self._send(200, store_stats_payload(self.server.store))
        elif parts == ["jobs"]:
            with_jobs = self.server.scheduler.jobs()
            self._send(
                200, {"jobs": [job.snapshot(events=False) for job in with_jobs]}
            )
        elif len(parts) == 2 and parts[0] == "jobs":
            query = parse_qs(url.query)
            after_raw = query.get("after", [None])[0]
            after = int(after_raw) if after_raw is not None else None
            self._send(200, self.server.scheduler.job_snapshot(parts[1], after))
        elif len(parts) == 3 and parts[0] == "jobs" and parts[2] == "result":
            self._send_result(parts[1])
        else:
            self._error(404, f"no such endpoint: GET {url.path}")

    def _handle_post(self, url, parts: list[str], body: bytes) -> None:
        if parts == ["jobs"]:
            self._submit_job(body)
        elif len(parts) == 3 and parts[0] == "jobs" and parts[2] == "cancel":
            scheduler = self.server.scheduler
            cancelled = scheduler.cancel(parts[1])
            snapshot = scheduler.job_snapshot(parts[1])
            self._send(200, {"cancelled": cancelled, "job": snapshot})
        else:
            self._error(404, f"no such endpoint: POST {url.path}")

    def _submit_job(self, body: bytes) -> None:
        try:
            payload = json.loads(body) if body else {}
        except json.JSONDecodeError as error:
            raise ValueError(f"request body is not valid JSON: {error}") from None
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        compiled = self.server.plans.compile(payload, compile_request)
        job = self.server.scheduler.submit(
            compiled.specs,
            client=self._client_name(payload),
            priority=compiled.priority,
            kind=compiled.kind,
            label=compiled.label,
            request=compiled.request,
            finalize=compiled.finalize,
        )
        self._send(201, job.snapshot(events=False))

    def _send_result(self, job_id: str) -> None:
        scheduler = self.server.scheduler
        job = scheduler.get(job_id)
        if not job.done:
            self._error(
                409, f"job {job_id} is still {job.state}; poll GET /jobs/{job_id}"
            )
            return
        if job.state != "completed":
            self._send(
                409,
                {
                    "error": f"job {job_id} {job.state}"
                    + (f": {job.error}" if job.error else ""),
                    "job": job.snapshot(events=False),
                },
            )
            return
        self._send(
            200,
            {
                "job": job.snapshot(events=False),
                "result": job.payload,
                "manifest": job_manifest(job, self.server.store),
            },
        )


def build_server(
    store: ResultStore | None,
    host: str = DEFAULT_HOST,
    port: int = 0,
    jobs: int = 1,
    quota: int | None = None,
    verbose: bool = False,
) -> ServiceServer:
    """A ready-to-run service (``port=0`` picks a free port — tests use this).

    The caller owns the lifecycle: ``serve_forever()`` (usually on a
    thread), then ``shutdown()``/``server_close()`` and
    ``scheduler.close()``.
    """

    scheduler = Scheduler(store=store, jobs=jobs, quota=quota)
    return ServiceServer((host, port), scheduler, store, verbose=verbose)


def serve(
    store: ResultStore | None,
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
    jobs: int = 1,
    quota: int | None = None,
    verbose: bool = False,
) -> int:
    """Run the daemon until SIGTERM/SIGINT; returns the process exit code.

    This is ``repro serve``: bind, announce the URL on stdout (so wrappers
    can scrape it), block in the accept loop, and shut down cleanly —
    stop accepting, then close the scheduler (waiting for in-flight
    simulations so the store is never torn mid-write).
    """

    server = build_server(
        store, host=host, port=port, jobs=jobs, quota=quota, verbose=verbose
    )

    def _request_shutdown(signum, frame) -> None:
        # shutdown() must not run on the thread blocked in serve_forever()
        # (it joins that loop), and signal handlers run on the main thread.
        threading.Thread(target=server.shutdown, daemon=True).start()

    previous = {
        sig: signal.signal(sig, _request_shutdown)
        for sig in (signal.SIGTERM, signal.SIGINT)
    }
    print(
        f"repro serve: listening on {server.url} "
        f"(store: {store.directory if store is not None else 'disabled'}, "
        f"jobs: {jobs}"
        + (f", quota: {quota}" if quota is not None else "")
        + ")",
        flush=True,
    )
    try:
        server.serve_forever(poll_interval=0.2)
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
        server.server_close()
        server.scheduler.close()
    print("repro serve: shut down cleanly", flush=True)
    return 0
