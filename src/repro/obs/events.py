"""An append-only, size-rotated, schema-versioned JSONL event log.

The third leg of the telemetry layer: where metrics aggregate and spans
time, events *narrate* — one JSON object per line, in arrival order, for
the things an operator reconstructs incidents from:

* job lifecycle (``job_submitted`` / ``job_completed`` / ``job_failed`` /
  ``job_cancelled``),
* scheduler queue transitions (``task_queued`` / ``task_dispatched`` /
  ``task_done`` / ``task_abandoned``),
* store traffic (``store_hit`` / ``store_put`` / ``store_write_failed``).

Every record carries the schema version (``"v"``), a wall-clock timestamp
(``"ts"``), and the event name (``"event"``); emitters add flat
JSON-safe fields.  Bumping :data:`SCHEMA_VERSION` is the upgrade contract:
readers skip records whose version they do not understand rather than
misparse them.

The default log lives under ``<cache-dir>/obs/events.jsonl`` (the same
``REPRO_CACHE_DIR`` resolution the result store uses), rotating to
``events.jsonl.1`` … ``.N`` when the active file exceeds ``max_bytes`` —
a long-running daemon's log is bounded at roughly
``max_bytes × (backups + 1)``.  Writes are serialised by a lock (handler
threads and the dispatcher emit concurrently) and failures degrade to
silence: telemetry must never take a simulation down.

Module-level :func:`emit` is the one-line producer API the wired layers
call; it is a no-op unless telemetry is enabled.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path

#: Version stamped into every record (bump on incompatible field changes).
SCHEMA_VERSION = 1

#: Rotation threshold for the active file, in bytes.
DEFAULT_MAX_BYTES = 1_000_000

#: Rotated generations kept (``events.jsonl.1`` is the newest).
DEFAULT_BACKUPS = 3

#: Subdirectory of the cache directory that holds telemetry artifacts.
OBS_SUBDIR = "obs"

_EVENTS_FILENAME = "events.jsonl"


def default_log_path(cache_dir: str | os.PathLike | None = None) -> Path:
    """Where the process-wide event log lives for a cache directory.

    Resolution mirrors the result store's: explicit directory, then the
    ``REPRO_CACHE_DIR`` environment variable, then ``.repro_cache``.
    """

    if cache_dir is None:
        cache_dir = os.environ.get("REPRO_CACHE_DIR") or ".repro_cache"
    return Path(cache_dir) / OBS_SUBDIR / _EVENTS_FILENAME


class EventLog:
    """One rotating JSONL event log (see the module docstring)."""

    def __init__(
        self,
        path: str | os.PathLike,
        max_bytes: int = DEFAULT_MAX_BYTES,
        backups: int = DEFAULT_BACKUPS,
    ) -> None:
        if max_bytes < 1:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        if backups < 0:
            raise ValueError(f"backups must be >= 0, got {backups}")
        self.path = Path(path)
        self.max_bytes = max_bytes
        self.backups = backups
        self._lock = threading.Lock()

    # -- writing -------------------------------------------------------------
    def emit(self, event: str, **fields) -> dict:
        """Append one record; returns it (written or not — see module docs)."""

        record = {"v": SCHEMA_VERSION, "ts": time.time(), "event": event, **fields}
        line = json.dumps(record, sort_keys=True) + "\n"
        with self._lock:
            try:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._rotate_if_needed(len(line))
                with self.path.open("a", encoding="utf-8") as handle:
                    handle.write(line)
            except OSError:
                # Unwritable telemetry directory: drop the event silently —
                # observability must never fail the observed work.
                pass
        return record

    def _rotate_if_needed(self, incoming: int) -> None:
        try:
            size = self.path.stat().st_size
        except OSError:
            return
        if size + incoming <= self.max_bytes:
            return
        if self.backups == 0:
            self.path.unlink(missing_ok=True)
            return
        oldest = self.path.with_name(f"{self.path.name}.{self.backups}")
        oldest.unlink(missing_ok=True)
        for generation in range(self.backups - 1, 0, -1):
            source = self.path.with_name(f"{self.path.name}.{generation}")
            if source.exists():
                source.rename(self.path.with_name(f"{self.path.name}.{generation + 1}"))
        self.path.rename(self.path.with_name(f"{self.path.name}.1"))

    # -- reading -------------------------------------------------------------
    def paths(self) -> list[Path]:
        """Existing log files, oldest first (rotated generations + active)."""

        found = [
            path
            for generation in range(self.backups, 0, -1)
            if (path := self.path.with_name(f"{self.path.name}.{generation}")).exists()
        ]
        if self.path.exists():
            found.append(self.path)
        return found

    def read(self) -> list[dict]:
        """Every parseable current-schema record, oldest first."""

        records: list[dict] = []
        for path in self.paths():
            try:
                text = path.read_text()
            except OSError:
                continue
            for line in text.splitlines():
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue  # torn line (rotation race): skip, never crash
                if not isinstance(record, dict):
                    continue
                if record.get("v") != SCHEMA_VERSION:
                    continue  # foreign schema: skip rather than misparse
                records.append(record)
        return records

    def tail(self, count: int = 20) -> list[dict]:
        """The newest ``count`` records, oldest of them first."""

        if count < 1:
            return []
        return self.read()[-count:]


# ---------------------------------------------------------------------------
# The process-wide default log (lazy; honours REPRO_CACHE_DIR at creation).
# ---------------------------------------------------------------------------
_default_log: EventLog | None = None
_default_lock = threading.Lock()


def default_log() -> EventLog:
    """The lazily-created process-wide event log."""

    global _default_log
    with _default_lock:
        if _default_log is None:
            _default_log = EventLog(default_log_path())
        return _default_log


def set_default_log(log: EventLog | None) -> EventLog | None:
    """Replace the process-wide log (tests); returns the previous one."""

    global _default_log
    with _default_lock:
        previous, _default_log = _default_log, log
    return previous


def emit(event: str, **fields) -> None:
    """Append one record to the default log — a no-op when disabled."""

    from repro.obs import enabled

    if not enabled():
        return
    default_log().emit(event, **fields)
