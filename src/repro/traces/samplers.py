"""Trace samplers: carve representative sub-streams out of long traces.

Real captured traces are orders of magnitude longer than what a Python
simulator wants to replay, so the classic trace-driven methodology samples
them.  Two samplers cover the common cases:

* :func:`sample_window` — one contiguous region (SimPoint-style: simulate
  the region the full run identified as representative);
* :func:`sample_systematic` — periodic systematic sampling (every
  ``period`` accesses keep a block of ``block`` accesses), which preserves
  long-range temporal structure at a fixed 1-in-N cost.

Both return a new :class:`~repro.traces.format.PackedTrace` whose
``metadata["sampled"]`` records exactly how it was derived — sampler name,
parameters, source name and source length — so a sampled file saved to disk
stays self-describing, and the experiment layer's file-content hashing keys
results on the sampled stream itself.
"""

from __future__ import annotations

from array import array

from repro.traces.format import ChunkedTrace, PackedTrace, _pack_bits, pack_trace


def _provenance(packed: PackedTrace, source, description: dict) -> PackedTrace:
    """Attach sampling provenance (and the source's provenance) to a sample."""

    packed.metadata["sampled"] = dict(
        description,
        source=getattr(source, "name", "trace"),
        source_accesses=len(source),
    )
    return packed


def sample_window(trace, start: int, length: int, name: str | None = None) -> PackedTrace:
    """The contiguous window ``[start, start + length)`` of a trace.

    ``start`` must lie inside the trace and ``length`` be positive; a window
    extending past the end is clipped (and the clipped length recorded).
    """

    if length <= 0:
        raise ValueError("window length must be positive")
    if not 0 <= start < len(trace):
        raise ValueError(
            f"window start {start} outside trace of {len(trace)} accesses"
        )
    if isinstance(trace, ChunkedTrace):
        # Chunk-selective path: ``ChunkedTrace.slice`` inflates only the
        # chunks the window covers, so sampling a narrow region of a large
        # capture never materialises the full columns.
        source_name = trace.name
        window = trace.slice(start, start + length)
    else:
        packed = pack_trace(trace)
        source_name = packed.name
        window = packed.slice(start, start + length)
    window.name = name or f"{source_name}@{start}+{len(window)}"
    return _provenance(
        window,
        trace,
        {"sampler": "window", "start": start, "length": len(window)},
    )


def sample_systematic(
    trace,
    period: int,
    block: int = 1,
    offset: int = 0,
    name: str | None = None,
) -> PackedTrace:
    """Keep ``block`` accesses out of every ``period``, starting at ``offset``.

    ``block=1`` is plain 1-in-N systematic sampling; larger blocks keep
    short runs intact so temporal correlations inside a block survive.
    """

    if period <= 0:
        raise ValueError("period must be positive")
    if not 0 < block <= period:
        raise ValueError("block must be in [1, period]")
    if not 0 <= offset < period:
        raise ValueError("offset must be in [0, period)")
    packed = pack_trace(trace)
    pcs = array("Q")
    addresses = array("Q")
    write_flags: list[bool] = []
    # Block-wise column slicing, not a per-index Python loop: on the
    # multi-million-access captures this subsystem targets, per-access
    # method calls would cost minutes for identical output.
    for start in range(offset, len(packed), period):
        stop = min(start + block, len(packed))
        pcs.extend(packed._pcs[start:stop])
        addresses.extend(packed._addresses[start:stop])
        write_flags.extend(
            packed.is_write(index) for index in range(start, stop)
        )
    sampled = PackedTrace(
        name=name or f"{packed.name}%{period}x{block}",
        pcs=pcs,
        addresses=addresses,
        writes=_pack_bits(write_flags, len(pcs)),
        metadata=dict(packed.metadata),
        line_shift=packed.line_shift,
    )
    return _provenance(
        sampled,
        trace,
        {"sampler": "systematic", "period": period, "block": block, "offset": offset},
    )
