#!/usr/bin/env python3
"""Design-space search: every candidate on the full trace.

The end-to-end ``repro.experiments.explore`` workflow:

1. declare a search space — Triage replacement policies × metadata-cache
   capacities — over the Xalancbmk-like workload;
2. run a grid search: every candidate replays the full (8 000-access)
   trace, so every reported point is an exact result;
3. print the Pareto front (coverage/accuracy vs metadata traffic) and
   check that the top pick by coverage is a large metadata cache.

Every evaluated point goes through the executor and the result store, so
re-running this script replays everything from ``.repro_cache/`` without
executing a single simulation.

Run with::

    PYTHONPATH=src python examples/explore_search.py
"""

from __future__ import annotations

from repro.experiments import SearchSpace, render_search, run_search


def main() -> int:
    space = SearchSpace.create(
        workloads=("xalan",),
        configurations=("triage-lru", "triage-srrip"),
        param_grid={"max_entries": (64, 4096)},
    )
    print(f"Searching {len(space.candidates())} candidates on the full trace...\n")
    result = run_search(space, strategy="grid", trace_overrides={"length": 8000})
    print(render_search(result))

    if result.top.candidate.params_dict().get("max_entries") != 4096:
        print("\nunexpected: a 64-entry metadata cache won on coverage")
        return 1
    print(
        "\nExpected shape (paper, section 3.3): both large-cache policies reach"
        "\nthe same coverage, far above the 64-entry ones — on this workload"
        "\nmetadata-cache capacity, not replacement policy, decides coverage."
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
