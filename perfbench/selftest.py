"""Self-test: a corrupted statistic must make every workload report failures.

    python3 perfbench/selftest.py

Runs each workload briefly in this process with one statistic
monkeypatched, and exits non-zero unless every run reports ``failed > 0``
and ``correct: false``.  A benchmark whose output checks could not see a
wrong result would pass a clean run here instead.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402 - needs the program on sys.path first


def corrupt_simulation():
    """One extra DRAM write per run: breaks reads + fills + writes ==
    dram_accesses, and every recorded digest."""

    from repro.sim.engine import Simulator

    original = Simulator._finalise

    def finalise(self, stats):
        original(self, stats)
        stats.dram_writes += 1

    Simulator._finalise = finalise
    return lambda: setattr(Simulator, "_finalise", original)


def corrupt_served():
    """Results the daemon reads (off the main thread) gain cycles and DRAM
    accesses; the in-process render of set-up stays clean."""

    from repro.experiments.store import ResultStore
    from repro.sim.stats import SimulationStats

    original = ResultStore.get

    def get(self, spec):
        result = original(self, spec)
        if isinstance(result, SimulationStats) and (
            threading.current_thread() is not threading.main_thread()
        ):
            result = dataclasses.replace(
                result,
                cycles=result.cycles * 1.01,
                dram_accesses=result.dram_accesses + 1,
            )
        return result

    ResultStore.get = get
    return lambda: setattr(ResultStore, "get", original)


CASES = (
    ("figures-cold", corrupt_simulation),
    ("trace-replay", corrupt_simulation),
    ("serve-warm", corrupt_served),
)


def main() -> int:
    detected = True
    for workload, corrupt in CASES:
        undo = corrupt()
        output = io.StringIO()
        try:
            with contextlib.redirect_stdout(output):
                code = run.main(["--workload", workload, "--seed", "1", "--seconds", "1"])
        finally:
            undo()
        result = json.loads(output.getvalue().splitlines()[-1])
        caught = code == 0 and result["failed"] > 0 and not result["correct"]
        print(
            f"{workload}: {result['failed']}/{result['attempted']} operations "
            f"failed under a corrupted statistic -> "
            f"{'detected' if caught else 'NOT DETECTED'}"
        )
        detected = detected and caught
    return 0 if detected else 1


if __name__ == "__main__":
    sys.exit(main())
