"""repro — a pure-Python reproduction of Triangel (ISCA 2024).

This package implements, from scratch, the systems described in
"Triangel: A High-Performance, Accurate, Timely On-Chip Temporal Prefetcher"
(Ainsworth & Mukhanov, ISCA 2024):

* the **Triangel** temporal prefetcher itself (:mod:`repro.core`) — History
  Sampler, Second-Chance Sampler, Metadata Reuse Buffer, Set Dueller and the
  aggression-control policy built on them;
* the fixed **Triage** baseline it is compared against (:mod:`repro.triage`),
  including the Markov metadata formats and Bloom-filter sizing studied in
  the paper's section 3;
* the **memory-system substrate** both run on (:mod:`repro.memory`,
  :mod:`repro.sim`): a three-level cache hierarchy with a partitioned L3,
  DRAM traffic/energy accounting and an analytic timing model;
* **workload generators** (:mod:`repro.workloads`) standing in for the SPEC
  CPU2006 traces and Graph500 inputs of the evaluation;
* a **trace I/O layer** (:mod:`repro.traces`) that records, imports
  (ChampSim-style LS traces) and samples on-disk packed access streams,
  which run as first-class ``trace:<name>`` workloads;
* a fused, allocation-free columnar **fast kernel**
  (:mod:`repro.sim.kernel`) that runs every simulation, held bit-identical
  to the readable reference engine by the parity tests and ``repro bench``;
* an **experiment harness** (:mod:`repro.experiments`) that regenerates every
  figure and table of the paper's evaluation section;
* a **service layer** (:mod:`repro.service`) — the scheduling core behind
  both the one-shot CLI and the ``repro serve`` HTTP/JSON daemon, where
  many concurrent clients share one warm result store — with a thin Python
  client (:mod:`repro.client`).

Quick start::

    from repro import STUDIES, ExperimentRunner

    runner = ExperimentRunner()
    result = STUDIES.run("fig10", runner)
    print(result.rendered)
"""

from repro.client import ServiceClient
from repro.core import TriangelConfig, TriangelPrefetcher
from repro.experiments.configs import available_configurations, build_prefetchers
from repro.experiments.runner import ExperimentRunner
from repro.experiments.studies import STUDIES
from repro.experiments.study import Study
from repro.memory.hierarchy import MemoryHierarchy
from repro.prefetch.stride import StridePrefetcher
from repro.sim.config import SystemConfig
from repro.sim.engine import Simulator
from repro.sim.multiprogram import MultiProgramSimulator
from repro.sim.stream import AccessColumns, access_columns
from repro.traces import (
    PackedTrace,
    import_champsim_trace,
    load_trace,
    record_workload,
    sample_systematic,
    sample_window,
    save_trace,
)
from repro.service.scheduler import Scheduler
from repro.triage.triage import TriageConfig, TriagePrefetcher
from repro.workloads.registry import available_workloads, generate_workload

__version__ = "1.0.0"

__all__ = [
    "TriangelConfig",
    "TriangelPrefetcher",
    "TriageConfig",
    "TriagePrefetcher",
    "StridePrefetcher",
    "MemoryHierarchy",
    "SystemConfig",
    "Simulator",
    "MultiProgramSimulator",
    "AccessColumns",
    "access_columns",
    "ExperimentRunner",
    "STUDIES",
    "Scheduler",
    "ServiceClient",
    "Study",
    "available_configurations",
    "build_prefetchers",
    "available_workloads",
    "generate_workload",
    "PackedTrace",
    "load_trace",
    "save_trace",
    "import_champsim_trace",
    "record_workload",
    "sample_window",
    "sample_systematic",
    "__version__",
]
