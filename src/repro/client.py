"""A thin Python client for the ``repro serve`` HTTP/JSON API.

Everything the daemon exposes, as one small stdlib-only class::

    from repro.client import ServiceClient

    with ServiceClient("http://127.0.0.1:8642") as client:
        job = client.submit({"kind": "study", "name": "fig10"})
        done = client.wait(job["id"])
        result = client.result(job["id"])      # reduced tables + manifest

The ``repro submit|status|result|cancel`` CLI verbs are built on this
class, so scripts and the command line see identical payloads.  The daemon
URL defaults to the ``REPRO_SERVE_URL`` environment variable, falling back
to the daemon's default bind address.

Each client keeps one HTTP/1.1 connection to the daemon alive and sends
every call over it, so a call costs one request, not a TCP handshake and a
fresh daemon handler thread.  The open connection holds one daemon handler
thread until :meth:`ServiceClient.close` (or the end of the ``with``
block) or until the daemon shuts down.  Threads sharing one client take
turns on its connection; a caller wanting parallel requests uses one
client per thread.

Errors surface as :class:`ServiceError`, carrying the HTTP status and the
decoded error payload — a 400 is a validation problem in the submitted
request (the server's message says what), a 404 an unknown job, a 409 a
result fetched before completion, and a 429 the per-client quota.  Status
0 means no HTTP answer arrived: the daemon is unreachable or the
connection failed.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import threading
import time
from typing import Mapping
from urllib.parse import urlsplit

#: Environment variable naming the daemon to talk to.
SERVE_URL_ENV = "REPRO_SERVE_URL"

#: Where the daemon listens when started with defaults.
DEFAULT_URL = "http://127.0.0.1:8642"

#: Job states after which polling can stop.
TERMINAL_STATES = ("completed", "failed", "cancelled")

#: What a kept-alive connection raises, before any response byte arrives,
#: when the daemon closed it while idle (or restarted): the one failure a
#: call retries, once, on a fresh connection.
_STALE_CONNECTION = (http.client.RemoteDisconnected, ConnectionResetError, BrokenPipeError)


class ServiceError(RuntimeError):
    """An HTTP-level failure talking to the daemon.

    ``status`` is the HTTP status code (0 when the daemon was unreachable);
    ``payload`` the decoded JSON error body, whose ``error`` key carries
    the server's message.
    """

    def __init__(self, status: int, payload: Mapping) -> None:
        self.status = status
        self.payload = dict(payload)
        message = self.payload.get("error") or f"HTTP {status}"
        super().__init__(message if status == 0 else f"HTTP {status}: {message}")


def service_url(url: str | None = None) -> str:
    """The daemon URL to use: explicit, then ``REPRO_SERVE_URL``, then default."""

    return (url or os.environ.get(SERVE_URL_ENV) or DEFAULT_URL).rstrip("/")


class ServiceClient:
    """Talks to one ``repro serve`` daemon (see module docs for a tour).

    ``client`` names this client for the daemon's per-client quotas and the
    manifests' provenance; it travels as the ``X-Repro-Client`` header.
    ``timeout`` bounds, in seconds, each wait to connect, send or receive.
    The client keeps one connection open between calls; :meth:`close` it,
    or use the client as a context manager.  A call after :meth:`close`
    opens a new connection.
    """

    def __init__(
        self,
        url: str | None = None,
        client: str | None = None,
        timeout: float = 60.0,
    ) -> None:
        self.url = service_url(url)
        self.client = client
        self.timeout = timeout
        #: ``{"polls", "elapsed_s"}`` for the most recent :meth:`wait` call.
        self.last_wait: dict | None = None
        parts = urlsplit(self.url)
        if parts.scheme != "http" or not parts.hostname:
            raise ValueError(f"daemon URL {self.url!r} is not http://host[:port]")
        self._path = parts.path
        # Connects lazily, on the first request.
        self._connection = http.client.HTTPConnection(
            parts.hostname, parts.port, timeout=timeout
        )
        self._lock = threading.Lock()

    def close(self) -> None:
        """Close the kept-alive connection (a later call opens a new one)."""

        with self._lock:
            self._connection.close()

    def __enter__(self) -> ServiceClient:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- transport -----------------------------------------------------------
    def _request(self, method: str, path: str, body: Mapping | None = None) -> dict:
        headers = {"Content-Type": "application/json"}
        if self.client:
            headers["X-Repro-Client"] = self.client
        data = json.dumps(body).encode() if body is not None else None
        with self._lock:
            status, raw = self._exchange(method, self._path + path, data, headers)
        if status >= 400:
            try:
                payload = json.loads(raw) if raw else {}
            except json.JSONDecodeError:
                payload = {"error": raw.decode(errors="replace")}
            raise ServiceError(status, payload)
        return json.loads(raw or b"{}")

    def _exchange(
        self, method: str, target: str, data: bytes | None, headers: dict
    ) -> tuple[int, bytes]:
        """One request and its whole response; the caller holds the lock."""

        connection = self._connection
        reused = connection.sock is not None
        try:
            try:
                connection.request(method, target, body=data, headers=headers)
                response = connection.getresponse()
            except _STALE_CONNECTION:
                if not reused:
                    raise
                # The daemon closed the idle connection before reading this
                # request: send it once more, on a new connection.
                connection.close()
                connection.request(method, target, body=data, headers=headers)
                response = connection.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException) as error:
            # The connection's state is unknown: start the next call afresh.
            connection.close()
            raise ServiceError(
                0, {"error": f"cannot reach {self.url}: {error}"}
            ) from None

    # -- the API -------------------------------------------------------------
    def healthz(self) -> dict:
        """Daemon liveness: status, code version, scheduler + store counters."""

        return self._request("GET", "/healthz")

    def store_stats(self) -> dict:
        """The shared store's statistics (the ``cache show --json`` shape)."""

        return self._request("GET", "/store/stats")

    def submit(self, request: Mapping) -> dict:
        """Submit one job (see :mod:`repro.service.requests` for the kinds).

        Returns the accepted job's snapshot; ``snapshot["id"]`` is what
        every other call takes.
        """

        return self._request("POST", "/jobs", dict(request))

    def jobs(self) -> list[dict]:
        """Snapshots of every job the daemon knows (without event logs)."""

        return self._request("GET", "/jobs")["jobs"]

    def status(self, job_id: str, after: int | None = None) -> dict:
        """One job's snapshot; ``after`` streams only events with greater seq."""

        query = f"?after={after}" if after is not None else ""
        return self._request("GET", f"/jobs/{job_id}{query}")

    def result(self, job_id: str) -> dict:
        """A completed job's reduced result payload plus its run manifest."""

        return self._request("GET", f"/jobs/{job_id}/result")

    def cancel(self, job_id: str) -> dict:
        """Cooperatively cancel a job; returns ``{cancelled, job}``."""

        return self._request("POST", f"/jobs/{job_id}/cancel")

    def wait(
        self,
        job_id: str,
        timeout: float | None = None,
        poll: float = 0.2,
        max_poll: float = 3.0,
    ) -> dict:
        """Poll until the job reaches a terminal state; returns the snapshot.

        Polling uses decorrelated-jitter backoff: each sleep is drawn
        uniformly from ``[poll, previous_sleep * 3]`` and capped at
        ``max_poll``, so short jobs still return promptly while a fleet of
        waiting clients neither hammers the daemon nor synchronises into
        polling waves.  :attr:`last_wait` records ``{"polls", "elapsed_s"}``
        for the most recent call (``repro submit --wait --json`` surfaces
        it).  Raises ``TimeoutError`` if ``timeout`` seconds pass first.
        """

        deadline = None if timeout is None else time.monotonic() + timeout
        started = time.monotonic()
        polls = 0
        sleep = poll
        while True:
            snapshot = self.status(job_id)
            polls += 1
            self.last_wait = {
                "polls": polls,
                "elapsed_s": round(time.monotonic() - started, 6),
            }
            if snapshot["state"] in TERMINAL_STATES:
                return snapshot
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError(
                    f"job {job_id} still {snapshot['state']} after {timeout}s"
                )
            sleep = min(max_poll, random.uniform(poll, max(sleep * 3, poll)))
            if deadline is not None:
                sleep = min(sleep, max(deadline - time.monotonic(), 0.0))
            time.sleep(sleep)
