"""Triangel — the paper's primary contribution.

Triangel (paper section 4) extends the fixed Triage baseline with four new
structures and an aggression-control policy built on them:

* an extended per-PC **training table** with a two-deep address history,
  a local timestamp and per-PC confidence/sampling counters
  (:mod:`repro.core.training_table`);
* a **History Sampler** that randomly samples (previous, current) pairs so
  long-term reuse and pattern repetition can be observed far beyond what the
  cache retains (:mod:`repro.core.history_sampler`);
* a **Second-Chance Sampler** that recognises patterns whose repeats are
  temporally close but not in strict sequence (:mod:`repro.core.second_chance`);
* a **Metadata Reuse Buffer** that removes redundant L3 Markov-table
  accesses from high-degree chained prefetching
  (:mod:`repro.core.metadata_reuse_buffer`);
* a **Set Dueller** that picks the L3 partitioning by directly trading off
  modelled data-cache and Markov-table hit rates
  (:mod:`repro.core.set_dueller`).

:class:`repro.core.triangel.TriangelPrefetcher` composes them into the full
prefetcher, with the Bloom-sized (``Triangel-Bloom``) and MRB-less
(``Triangel-NoMRB``) variants used in the evaluation.
"""

from repro.core.config import TriangelConfig, triangel_structure_sizes
from repro.core.history_sampler import HistorySampler, SamplerHit
from repro.core.metadata_reuse_buffer import MetadataReuseBuffer
from repro.core.second_chance import SecondChanceSampler
from repro.core.set_dueller import SetDueller
from repro.core.training_table import TriangelTrainingEntry, TriangelTrainingTable
from repro.core.triangel import TriangelPrefetcher

__all__ = [
    "TriangelConfig",
    "triangel_structure_sizes",
    "HistorySampler",
    "SamplerHit",
    "MetadataReuseBuffer",
    "SecondChanceSampler",
    "SetDueller",
    "TriangelTrainingEntry",
    "TriangelTrainingTable",
    "TriangelPrefetcher",
]
