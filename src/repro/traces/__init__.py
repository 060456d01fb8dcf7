"""Trace I/O: record, ingest and sample external memory traces.

This package makes access streams first-class on-disk workloads, sitting
between workload generation and the experiment executor:

* :mod:`repro.traces.format` — the ``.rtrc`` binary container: fixed-size
  chunks, each one zlib stream over raw pc/address columns and a write
  bitset, behind a chunk index.  Files load into the lazily inflating
  :class:`~repro.traces.format.ChunkedTrace`, which touches only the
  chunks a window needs; :class:`~repro.traces.format.PackedTrace` is the
  in-memory container every sampler and importer produces;
* :mod:`repro.traces.champsim` — an importer for ChampSim-style LS text
  traces, so any published trace becomes a workload;
* :mod:`repro.traces.recorder` — capture any registered generator's stream
  to disk (with provenance), enabling record→replay workflows;
* :mod:`repro.traces.samplers` — window slicing and periodic systematic
  sampling, each recording how the sample was derived.

On-disk traces resolve as workloads through the ``trace:<name>`` names of
:mod:`repro.workloads.registry`, and the experiment layer hashes them by
file *content* (see :func:`~repro.traces.format.trace_file_digest`), so the
persistent result store stays correct when a file changes.  The ``repro
trace`` CLI (``record``/``import``/``info``/``sample``) fronts all of this;
``docs/traces.md`` walks through the format and the workflows.
"""

from repro.traces.champsim import ChampSimParseError, import_champsim_trace
from repro.traces.format import (
    CHUNK_RECORDS,
    FORMAT_VERSION,
    MAGIC,
    ChunkedTrace,
    PackedTrace,
    TraceFormatError,
    TraceHeader,
    load_trace,
    open_trace,
    pack_trace,
    read_header,
    save_trace,
    trace_file_digest,
)
from repro.traces.recorder import record_trace, record_workload
from repro.traces.samplers import sample_systematic, sample_window

__all__ = [
    "CHUNK_RECORDS",
    "FORMAT_VERSION",
    "MAGIC",
    "ChampSimParseError",
    "ChunkedTrace",
    "PackedTrace",
    "TraceFormatError",
    "TraceHeader",
    "import_champsim_trace",
    "load_trace",
    "open_trace",
    "pack_trace",
    "read_header",
    "record_trace",
    "record_workload",
    "sample_systematic",
    "sample_window",
    "save_trace",
    "trace_file_digest",
]
