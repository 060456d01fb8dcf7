"""Output checks: invariants for every seed, recorded digests for two.

Simulated statistics are deterministic for a seed, so a result is pinned
by the SHA-256 of its canonical JSON (floats keep their exact repr).
``digests.json`` holds the digests of every ``figures-cold`` cell and
``trace-replay`` result for the default seed and one held-out seed,
recorded at the commit that introduced the benchmark.  For any other seed
only the invariants below apply.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from pathlib import Path

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"


def canonical(value) -> str:
    """Key-sorted compact JSON (the form every digest and table check uses)."""

    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def digest(value) -> str:
    return hashlib.sha256(canonical(value).encode()).hexdigest()


def stats_payload(result) -> dict:
    """Full statistics of one result: SimulationStats, or every core's
    stats plus prefetcher counters for a multiprogram result."""

    if hasattr(result, "as_payload"):
        return result.as_payload()
    return asdict(result)


def invariant_problems(stats, expected_sampled: int) -> list[str]:
    """What is wrong with one run's statistics (empty when consistent)."""

    problems = []
    if sum(stats.level_hits.values()) != stats.accesses:
        problems.append(
            f"level hits sum to {sum(stats.level_hits.values())}, "
            f"not accesses={stats.accesses}"
        )
    dram = stats.dram_demand_reads + stats.dram_prefetch_fills + stats.dram_writes
    if dram != stats.dram_accesses:
        problems.append(
            f"DRAM reads+fills+writes={dram} != dram_accesses={stats.dram_accesses}"
        )
    if stats.accesses != expected_sampled:
        problems.append(
            f"sampled {stats.accesses} accesses, the spec implies {expected_sampled}"
        )
    return problems


def sampled_accesses(length: int, warmup_fraction: float, cap: int | None) -> tuple[int, int]:
    """(warm-up, sampled) accesses a single-core spec replays.

    Mirrors the execution layer: warm-up is ``int(length * fraction)`` and a
    cap limits the sampled region only.
    """

    warmup = int(length * warmup_fraction)
    sampled = length - warmup
    if cap is not None:
        sampled = min(sampled, cap)
    return warmup, sampled


def multiprogram_accesses(lengths, warmup_fraction: float, cap: int | None):
    """(warm-up, sampled) per core of a multiprogram spec (same rules as
    ``execute_multiprogram_spec``: warm-up is a share of the cap, or of the
    shortest trace without one)."""

    base = cap if cap is not None else min(lengths)
    warmup = int(base * warmup_fraction)
    return [
        (warmup, min(length - warmup, cap) if cap is not None else length - warmup)
        for length in lengths
    ]


def load_recorded() -> dict:
    """``{workload: {seed: {label: digest}}}`` (empty without the file)."""

    try:
        return json.loads(DIGESTS_PATH.read_text())["digests"]
    except FileNotFoundError:
        return {}


def record(workload: str, seed: int, digests: dict) -> None:
    """Store one workload's digests for one seed in ``digests.json``."""

    data = (
        json.loads(DIGESTS_PATH.read_text())
        if DIGESTS_PATH.exists()
        else {"digests": {}}
    )
    data["digests"].setdefault(workload, {})[str(seed)] = dict(sorted(digests.items()))
    DIGESTS_PATH.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
