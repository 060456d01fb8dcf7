"""Trace-driven simulation: system configuration, engine, timing and stats.

The paper evaluates prefetchers inside gem5 full-system simulation; this
package is the substitute substrate.  A :class:`~repro.sim.engine.Simulator`
drives a memory-access trace through a :class:`~repro.memory.hierarchy.
MemoryHierarchy`, invokes the configured prefetchers on every access, issues
the prefetch fills they request, and accounts cycles with the analytic
:class:`~repro.sim.timing.TimingModel`.  The multiprogrammed variant
(:mod:`repro.sim.multiprogram`) runs two traces on two cores that share the
L3, its Markov partition and the DRAM channel (paper section 6.3).
"""

from repro.sim.config import SystemConfig
from repro.sim.engine import SimulationResult, Simulator
from repro.sim.multiprogram import MultiProgramResult, MultiProgramSimulator
from repro.sim.stats import SimulationStats
from repro.sim.stream import AccessColumns, AccessStream, access_columns
from repro.sim.timing import TimingModel

__all__ = [
    "SystemConfig",
    "Simulator",
    "SimulationResult",
    "MultiProgramSimulator",
    "MultiProgramResult",
    "SimulationStats",
    "TimingModel",
    "AccessColumns",
    "AccessStream",
    "access_columns",
]
