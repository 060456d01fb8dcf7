"""Named prefetcher configurations used throughout the evaluation.

Every bar series in the paper's figures corresponds to one configuration
name here:

* ``baseline`` — the stride prefetcher alone (what every speedup is
  normalised to);
* ``triage`` / ``triage-deg4`` / ``triage-deg4-look2`` — the fixed Triage
  baseline at its default degree-1, its aggressive degree-4, and degree-4
  with Triangel's lookahead-2 training bolted on (section 6.1);
* ``triangel`` / ``triangel-bloom`` / ``triangel-nomrb`` — full Triangel,
  Triangel with Bloom-filter sizing instead of the Set Dueller, and Triangel
  without the Metadata Reuse Buffer (figures 10-15);
* the figure 18 metadata-format study variants of Triage;
* the figure 20 ablation ladder from Triage-Deg4 to full Triangel;
* the section 3.3 replacement study (LRU / SRRIP / HawkEye under a
  constrained Markov capacity).

Each configuration is a factory that, given a :class:`~repro.sim.config.
SystemConfig`, builds the prefetcher stack with structure sizes scaled to
that system.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Callable, Mapping

from repro.core.config import TriangelConfig
from repro.core.triangel import TriangelPrefetcher
from repro.prefetch.base import Prefetcher
from repro.prefetch.stride import StridePrefetcher
from repro.sim.config import SystemConfig
from repro.triage.triage import TriageConfig, TriagePrefetcher

ConfigFactory = Callable[[SystemConfig], list[Prefetcher]]


# ---------------------------------------------------------------------------
# The unified configuration registry
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ConfigEntry:
    """One registered configuration: a builder plus its parameter signature.

    ``builder`` takes the system first and then the configuration's call-time
    parameters as keyword arguments; ``params`` maps each parameter name to
    its default value (empty for plain configurations, whose identity is
    fully determined by their name).
    """

    name: str
    builder: Callable[..., list[Prefetcher]]
    params: tuple = ()

    @property
    def takes_params(self) -> bool:
        """Whether the builder accepts call-time parameters at all."""

        return bool(self.params)

    def signature(self) -> str:
        """The parameter signature for listings: ``""`` or ``"(k=default)"``."""

        if not self.params:
            return ""
        return "(" + ", ".join(f"{key}={value}" for key, value in self.params) + ")"

    def build(self, system: SystemConfig, params: Mapping | None = None) -> list[Prefetcher]:
        """Build the prefetcher stack, applying ``params`` over the defaults."""

        params = dict(params or {})
        if params and not self.takes_params:
            raise ValueError(f"configuration {self.name!r} takes no parameters")
        unknown = set(params) - {key for key, _ in self.params}
        if unknown:
            raise ValueError(
                f"configuration {self.name!r} does not take parameter(s) "
                f"{sorted(unknown)}; accepted: {[key for key, _ in self.params]}"
            )
        return self.builder(system, **params)


@dataclass
class ConfigRegistry:
    """Every named configuration, plain and parameterised alike, in one place.

    There is a single resolution path — :meth:`resolve` — and a single
    identity scheme: a configuration is keyed by ``(name, params)``, where
    ``params`` is empty for plain configurations.  The parameter defaults are
    read off each builder's signature at registration time, so listings can
    show what a configuration accepts without running it.
    """

    _entries: dict[str, ConfigEntry] = field(default_factory=dict)

    def register(self, name: str, builder: Callable[..., list[Prefetcher]]) -> ConfigEntry:
        """Register a builder under a (unique) configuration name."""

        if name in self._entries:
            raise ValueError(f"configuration {name!r} is already registered")
        parameters = list(inspect.signature(builder).parameters.values())[1:]
        params = tuple(
            (parameter.name, parameter.default)
            for parameter in parameters
            if parameter.kind
            in (parameter.POSITIONAL_OR_KEYWORD, parameter.KEYWORD_ONLY)
        )
        entry = ConfigEntry(name=name, builder=builder, params=params)
        self._entries[name] = entry
        return entry

    def entry(self, name: str) -> ConfigEntry:
        """The entry for a name, or a ``ValueError`` listing what exists."""

        entry = self._entries.get(name)
        if entry is None:
            raise ValueError(
                f"unknown configuration {name!r}; available: {self.names()}"
            )
        return entry

    def resolve(
        self, name: str, system: SystemConfig, params: Mapping | None = None
    ) -> list[Prefetcher]:
        """Build the named configuration's prefetcher stack (the single path)."""

        return self.entry(name).build(system, params)

    def takes_params(self, name: str) -> bool:
        """Whether the named configuration accepts call-time parameters."""

        return self.entry(name).takes_params

    def names(self) -> list[str]:
        """Every registered name, sorted."""

        return sorted(self._entries)

    def signatures(self) -> dict[str, str]:
        """Name → parameter-signature string (empty for plain configs)."""

        return {name: self._entries[name].signature() for name in self.names()}

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __iter__(self):
        return iter(self.names())

    def __len__(self) -> int:
        return len(self._entries)


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------
def _stride(system: SystemConfig) -> StridePrefetcher:
    return StridePrefetcher(degree=8)


def _triage_config(system: SystemConfig, **overrides) -> TriageConfig:
    """A TriageConfig with its structures scaled to the given system."""

    defaults = dict(
        lut_entries=system.lut_entries,
        lut_assoc=min(16, system.lut_entries),
        lut_offset_bits=system.lut_offset_bits,
        bloom_window=system.bloom_window,
        training_entries=system.training_entries,
        markov_latency=system.markov_latency,
    )
    defaults.update(overrides)
    return TriageConfig(**defaults)


def _triangel_config(system: SystemConfig, **overrides) -> TriangelConfig:
    """A TriangelConfig with its structures scaled to the given system."""

    defaults = dict(
        training_entries=system.training_entries,
        sampler_entries=system.sampler_entries,
        mrb_entries=system.mrb_entries,
        dueller_window=system.dueller_window,
        bloom_window=system.bloom_window,
        second_chance_window_fills=system.second_chance_window_fills,
        markov_latency=system.markov_latency,
    )
    defaults.update(overrides)
    return TriangelConfig(**defaults)


def make_triage(system: SystemConfig, **overrides) -> list[Prefetcher]:
    """Stride + Triage stack, with ``overrides`` applied to the TriageConfig."""

    return [_stride(system), TriagePrefetcher(_triage_config(system, **overrides))]


def make_triangel(system: SystemConfig, **overrides) -> list[Prefetcher]:
    """Stride + Triangel stack, with ``overrides`` applied to the TriangelConfig."""

    name = overrides.pop("display_name", "triangel")
    return [
        _stride(system),
        TriangelPrefetcher(_triangel_config(system, **overrides), name=name),
    ]


# ---------------------------------------------------------------------------
# The evaluation's main configurations (figures 10-17)
# ---------------------------------------------------------------------------
EVALUATION_CONFIGS: dict[str, ConfigFactory] = {
    "baseline": lambda system: [_stride(system)],
    "triage": lambda system: make_triage(system, degree=1),
    "triage-deg4": lambda system: make_triage(system, degree=4),
    "triage-deg4-look2": lambda system: make_triage(system, degree=4, lookahead=2),
    "triangel": lambda system: make_triangel(system),
    "triangel-bloom": lambda system: make_triangel(
        system, sizing_mechanism="bloom", bloom_bias=1.5, display_name="triangel-bloom"
    ),
    "triangel-nomrb": lambda system: make_triangel(
        system, use_mrb=False, display_name="triangel-nomrb"
    ),
}

#: The five series plotted in figures 10-13.
MAIN_SERIES: tuple[str, ...] = (
    "triage",
    "triage-deg4",
    "triage-deg4-look2",
    "triangel",
    "triangel-bloom",
)

#: The six series plotted in figures 14-15 (adds the no-MRB variant).
ENERGY_SERIES: tuple[str, ...] = MAIN_SERIES + ("triangel-nomrb",)

#: The four series plotted in figures 16-17.
MULTIPROGRAM_SERIES: tuple[str, ...] = (
    "triage",
    "triage-deg4",
    "triangel",
    "triangel-bloom",
)


# ---------------------------------------------------------------------------
# Figure 18/19: Markov metadata format study (applied to Triage)
# ---------------------------------------------------------------------------
METADATA_FORMAT_CONFIGS: dict[str, ConfigFactory] = {
    "32-bit-LUT-16-way": lambda system: make_triage(
        system, degree=1, metadata_format="32-bit-LUT-16-way"
    ),
    "32-bit-ideal": lambda system: make_triage(
        system, degree=1, metadata_format="32-bit-ideal"
    ),
    "32-bit-LUT-1024-way": lambda system: make_triage(
        system, degree=1, metadata_format="32-bit-LUT-1024-way"
    ),
    "42-bit": lambda system: make_triage(system, degree=1, metadata_format="42-bit"),
    "32-bit-LUT-16-way-10b-offset": lambda system: make_triage(
        system, degree=1, metadata_format="32-bit-LUT-16-way-10b-offset"
    ),
}


# ---------------------------------------------------------------------------
# Figure 20: ablation ladder from Triage-Deg4 to full Triangel
# ---------------------------------------------------------------------------
def _ablation_triangel(system: SystemConfig, **flags) -> list[Prefetcher]:
    """Triangel with only a subset of its mechanisms enabled.

    The early ablation steps predate the Set Dueller and the confidence
    gates, so the defaults here disable everything and use Bloom sizing with
    Triage's neutral bias; each ladder step switches individual flags on.
    """

    defaults = dict(
        enable_reuse_conf=False,
        enable_base_pattern_conf=False,
        enable_high_pattern_conf=False,
        enable_second_chance=False,
        use_mrb=False,
        sizing_mechanism="bloom",
        bloom_bias=1.0,
        display_name="triangel-ablation",
    )
    defaults.update(flags)
    return make_triangel(system, **defaults)


ABLATION_LADDER: dict[str, ConfigFactory] = {
    "Triage-Deg-4": lambda system: make_triage(system, degree=4),
    "+Lookahead-2": lambda system: make_triage(system, degree=4, lookahead=2),
    "+Triangel Metadata": lambda system: make_triage(
        system, degree=4, lookahead=2, metadata_format="42-bit"
    ),
    "+BasePatternConf": lambda system: _ablation_triangel(
        system, enable_base_pattern_conf=True
    ),
    "+Second-Chance": lambda system: _ablation_triangel(
        system, enable_base_pattern_conf=True, enable_second_chance=True
    ),
    "+Metadata Reuse Buffer": lambda system: _ablation_triangel(
        system, enable_base_pattern_conf=True, enable_second_chance=True, use_mrb=True
    ),
    "+Set Duel": lambda system: _ablation_triangel(
        system,
        enable_base_pattern_conf=True,
        enable_second_chance=True,
        use_mrb=True,
        sizing_mechanism="set-dueller",
    ),
    "+ReuseConf": lambda system: _ablation_triangel(
        system,
        enable_base_pattern_conf=True,
        enable_second_chance=True,
        use_mrb=True,
        sizing_mechanism="set-dueller",
        enable_reuse_conf=True,
    ),
    "+HighPatternConf": lambda system: _ablation_triangel(
        system,
        enable_base_pattern_conf=True,
        enable_second_chance=True,
        use_mrb=True,
        sizing_mechanism="set-dueller",
        enable_reuse_conf=True,
        enable_high_pattern_conf=True,
    ),
}


# ---------------------------------------------------------------------------
# Section 3.3: Markov replacement study under constrained capacity
# ---------------------------------------------------------------------------
REPLACEMENT_POLICIES: tuple[str, ...] = ("lru", "srrip", "hawkeye")


def _replacement_builder(policy: str):
    """A parameterised builder for Triage under one Markov replacement policy."""

    def build(system: SystemConfig, max_entries: int | None = 1024) -> list[Prefetcher]:
        """Triage with this policy, Markov occupancy capped at ``max_entries``."""

        return make_triage(
            system,
            degree=1,
            markov_replacement=policy,
            max_entries_override=max_entries,
        )

    return build


# ---------------------------------------------------------------------------
# Registration: every configuration, plain and parameterised, in one registry
# ---------------------------------------------------------------------------
#: The single configuration registry.  Plain configurations take no
#: parameters (their name alone identifies the stack); parameterised ones —
#: currently the replacement study's policy variants — accept call-time
#: keyword parameters that travel in
#: :attr:`~repro.experiments.jobs.RunSpec.config_params`, so they are part
#: of the store key and rebuild identically in pool workers.
CONFIGS = ConfigRegistry()

for _name, _factory in EVALUATION_CONFIGS.items():
    CONFIGS.register(_name, _factory)
for _name, _factory in METADATA_FORMAT_CONFIGS.items():
    CONFIGS.register(f"triage-format-{_name}", _factory)
for _name, _factory in ABLATION_LADDER.items():
    CONFIGS.register(f"ablation-{_name}", _factory)
for _policy in REPLACEMENT_POLICIES:
    CONFIGS.register(f"triage-{_policy}", _replacement_builder(_policy))
del _name, _factory, _policy


def available_configurations() -> list[str]:
    """Every configuration name, sorted — parameterised entries included."""

    return CONFIGS.names()


def configuration_signatures() -> dict[str, str]:
    """Name → parameter-signature string (``""`` for plain configurations)."""

    return CONFIGS.signatures()


def build_prefetchers(
    name: str, system: SystemConfig, params: Mapping | None = None
) -> list[Prefetcher]:
    """Build the prefetcher stack for a named configuration.

    Every configuration uniformly accepts a (possibly empty) ``params``
    mapping; plain configurations reject non-empty parameters.  This is the
    single resolution point both the serial path and pool workers use, so a
    spec's ``(configuration, config_params)`` pair always rebuilds the same
    stack everywhere.
    """

    return CONFIGS.resolve(name, system, params)
