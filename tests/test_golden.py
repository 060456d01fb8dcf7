"""Golden behaviour oracle: pinned statistics of the shared simulation model.

The parity matrix in ``tests/test_kernel.py`` proves the fast kernel equals
the reference kernel, but a change to the shared cache, prefetcher or DRAM
model moves both kernels together and passes it.  This oracle pins what the
model *produces*: the full :class:`~repro.sim.stats.SimulationStats` (float
fields compared through their exact JSON reprs) and every prefetcher's
counters, under the fast kernel, for

* every registered configuration × ``xalan``/``mcf`` (4000 accesses each)
  and ``graph500_s16`` (capped at 4000 accesses);
* ``baseline``/``triage``/``triangel`` on ``xalan`` under
  ``SystemConfig.scaled(1.5)``, whose 24/48/96-set caches take the
  division fallback of every set/tag decomposition;
* one ``.rtrc`` recording, replayed from disk;
* figure 16's ``xalan`` + ``omnet`` pair on two cores.

The expected values live in ``tests/golden_stats.json``.  A change that is
meant to alter simulated behaviour regenerates them with
``python tools/update_golden.py`` and says why in ``CHANGES.md``; any other
change must leave that file byte for byte untouched.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.experiments.configs import CONFIGS, MULTIPROGRAM_SERIES, build_prefetchers
from repro.experiments.jobs import MultiProgramSpec, execute_multiprogram_spec
from repro.sim.config import SystemConfig
from repro.sim.engine import Simulator
from repro.sim.kernel import run_fast
from repro.sim.timing import TimingModel
from repro.traces.format import load_trace
from repro.traces.recorder import record_workload
from repro.workloads.registry import generate_workload

GOLDEN_PATH = Path(__file__).with_name("golden_stats.json")

#: Single-core workloads and the generator overrides that size them.
SINGLE_CORE = {
    "xalan": {"length": 4000},
    "mcf": {"length": 4000},
    "graph500_s16": {"max_accesses": 4000},
}
#: The workload recorded to ``.rtrc`` and replayed from disk (write-bearing,
#: so the on-disk write flags are exercised too).
RECORDED = "graph500_s16"
RECORDED_CONFIGS = ("baseline", "triage", "triangel")
#: Figure 16's first pair, under the baseline and every figure 16 series.
PAIR = ("xalan", "omnet")
PAIR_CONFIGS = ("baseline",) + MULTIPROGRAM_SERIES
PAIR_LENGTH = 4000
WARMUP_FRACTION = 0.4
#: A non-power-of-two geometry: ``SystemConfig.scaled(1.5)`` gives the L1, L2
#: and L3 24, 48 and 96 sets, so no cache can decompose addresses by shifts.
#: Long enough for both temporal prefetchers to issue.
ODD_SCALE = 1.5
ODD_WORKLOAD = "xalan"
ODD_LENGTH = 20_000
ODD_CONFIGS = ("baseline", "triage", "triangel")
ODD_PREFIX = f"scale{ODD_SCALE:g}:"


def cell_ids() -> list[str]:
    """Every pinned cell, in a stable order."""

    ids = [
        f"{workload}/{configuration}"
        for workload in SINGLE_CORE
        for configuration in CONFIGS.names()
    ]
    ids += [f"rtrc:{RECORDED}/{configuration}" for configuration in RECORDED_CONFIGS]
    ids += [f"{'+'.join(PAIR)}/{configuration}" for configuration in PAIR_CONFIGS]
    ids += [
        f"{ODD_PREFIX}{ODD_WORKLOAD}/{configuration}" for configuration in ODD_CONFIGS
    ]
    return ids


def _payload(result) -> dict:
    return {
        "stats": asdict(result.stats),
        "prefetchers": {
            name: asdict(stats) for name, stats in result.prefetcher_stats.items()
        },
    }


def _single_core(
    trace, workload: str, configuration: str, scale: float = 1.0
) -> dict:
    """One fast-kernel run, built and warmed exactly as ``execute_spec`` does."""

    system = SystemConfig.scaled(scale)
    simulator = Simulator(
        system.build_hierarchy(),
        build_prefetchers(configuration, system),
        timing=TimingModel(system.timing),
        config=system,
        configuration_name=configuration,
    )
    result = run_fast(
        simulator,
        trace,
        workload_name=workload,
        warmup_accesses=int(len(trace) * WARMUP_FRACTION),
    )
    return _payload(result)


def record_golden_trace(directory: Path) -> Path:
    """Record the oracle's ``.rtrc`` into ``directory``."""

    return record_workload(
        RECORDED, directory, name=f"golden_{RECORDED}", overrides=SINGLE_CORE[RECORDED]
    )


def compute_cell(cell: str, recording: Path) -> dict:
    """The JSON-normalised payload of one cell (see :func:`cell_ids`)."""

    workload, configuration = cell.rsplit("/", 1)
    if workload.startswith("rtrc:"):
        payload = _single_core(load_trace(recording), workload, configuration)
    elif "+" in workload:
        spec = MultiProgramSpec.create(
            workloads=workload.split("+"),
            configuration=configuration,
            system=SystemConfig.scaled(),
            trace_overrides={"length": PAIR_LENGTH},
            warmup_fraction=WARMUP_FRACTION,
        )
        payload = execute_multiprogram_spec(spec).as_payload()
    elif workload.startswith(ODD_PREFIX):
        trace = generate_workload(ODD_WORKLOAD, length=ODD_LENGTH)
        payload = _single_core(trace, workload, configuration, ODD_SCALE)
    else:
        trace = generate_workload(workload, **SINGLE_CORE[workload])
        payload = _single_core(trace, workload, configuration)
    # Round-trip through JSON so floats compare as their exact reprs.
    return json.loads(json.dumps(payload))


def render_golden(recording: Path) -> str:
    """The full golden file's text (what ``tools/update_golden.py`` writes)."""

    cells = {cell: compute_cell(cell, recording) for cell in cell_ids()}
    return json.dumps(cells, indent=1, sort_keys=True) + "\n"


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def recording(tmp_path_factory) -> Path:
    return record_golden_trace(tmp_path_factory.mktemp("golden_traces"))


def test_golden_covers_exactly_the_cells(golden):
    assert sorted(golden) == sorted(cell_ids())


def test_every_configuration_is_pinned(golden):
    pinned = {cell.rsplit("/", 1)[1] for cell in golden}
    assert set(CONFIGS.names()) <= pinned


@pytest.mark.parametrize("cell", cell_ids())
def test_cell_matches_golden(cell, golden, recording):
    assert compute_cell(cell, recording) == golden[cell]
