"""Tests for the declarative study layer.

Covers the acceptance properties of the study API: registry completeness,
deterministic compilation (within and across processes), disjoint store
keys for overridden axes, zero re-execution against a warm store, and
byte-identical output between hand-built pre-redesign tables and their
:class:`~repro.experiments.study.Study` declarations.
"""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.report import render_figure
from repro.experiments.configs import MAIN_SERIES, REPLACEMENT_POLICIES
from repro.experiments.runner import ExperimentRunner, clear_caches
from repro.experiments.store import default_store
from repro.experiments.studies import (
    STUDIES,
    structure_sizes_result,
    system_config_result,
)
from repro.experiments.study import (
    REDUCERS,
    Study,
    StudyRegistry,
    parse_assignments,
    render_result,
)
from repro.sim.config import SystemConfig
from repro.workloads.registry import SPEC_WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def quick_runner(small_system):
    clear_caches()
    return ExperimentRunner(
        system=small_system,
        max_accesses=600,
        trace_overrides={"length": 1200},
        warmup_fraction=0.3,
    )


class TestRegistry:
    def test_every_figure_command_is_a_registered_study(self):
        """Acceptance: every figure/table/replacement output has a Study."""

        names = [f"fig{number}" for number in range(10, 21)]
        names += ["replacement-study", "table1", "table2"]
        assert len(names) == 14
        for name in names:
            assert name in STUDIES, f"{name} missing from STUDIES"

    def test_every_study_names_a_known_reducer(self):
        for _, study in STUDIES.items():
            assert study.reducer in REDUCERS

    def test_duplicate_registration_rejected(self):
        registry = StudyRegistry()
        study = Study.create(name="dup", figure="X", title="t")
        registry.register(study)
        with pytest.raises(ValueError, match="already registered"):
            registry.register(study)

    def test_unknown_study_and_reducer_rejected(self):
        with pytest.raises(ValueError, match="unknown study"):
            STUDIES.get("fig99")
        with pytest.raises(ValueError, match="unknown reducer"):
            StudyRegistry().register(
                Study.create(name="x", figure="X", title="t", reducer="nope")
            )

    def test_describe_shows_axes_and_signatures(self):
        text = STUDIES.describe("replacement-study")
        assert "max_entries=1024" in text
        assert "triage-lru(max_entries=1024)" in text
        assert "batch:" in text

    def test_analytic_studies_compile_to_empty_batches(self):
        assert STUDIES.get("table1").compile() == []
        assert STUDIES.get("table2").compile() == []


class TestCompilation:
    def test_identical_studies_compile_identical_hashes(self, quick_runner):
        study = STUDIES.get("fig10")
        first = [spec.content_hash() for spec in study.compile(quick_runner)]
        second = [spec.content_hash() for spec in study.compile(quick_runner)]
        assert first and first == second

    def test_compiled_batch_is_deduplicated(self, quick_runner):
        specs = STUDIES.get("fig10").compile(quick_runner)
        assert len(specs) == len(set(specs))
        # baseline + the five main series over the seven SPEC workloads
        assert len(specs) == (1 + len(MAIN_SERIES)) * len(SPEC_WORKLOADS)

    def test_batch_digest_identical_across_processes(self):
        """Acceptance: identical Study → identical spec hashes in a fresh process."""

        names = ["fig10", "fig16", "replacement-study"]
        local = [STUDIES.batch_digest(name) for name in names]
        code = (
            "from repro.experiments.studies import STUDIES\n"
            + "\n".join(f"print(STUDIES.batch_digest({name!r}))" for name in names)
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=env,
            cwd=ROOT,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == local

    def test_scale_override_produces_disjoint_store_keys(self, quick_runner):
        study = STUDIES.get("fig10")
        base = {spec.content_hash() for spec in study.compile()}
        scaled = {
            spec.content_hash()
            for spec in study.overridden(assignments={"scale": "0.5"}).compile()
        }
        assert base and scaled
        assert base.isdisjoint(scaled)

    def test_config_param_override_produces_disjoint_store_keys(self):
        study = STUDIES.get("replacement-study")
        base = {spec.content_hash() for spec in study.compile()}
        capped = {
            spec.content_hash()
            for spec in study.overridden(assignments={"max_entries": "2048"}).compile()
        }
        # The parameterised cells move; only the shared baseline cells remain.
        assert base != capped
        overlap = base & capped
        assert len(overlap) == len(SPEC_WORKLOADS)  # the baseline column

    def test_workload_override_narrows_the_batch(self, quick_runner):
        study = STUDIES.get("fig10").overridden(workloads=["mcf", "astar"])
        specs = study.compile(quick_runner)
        assert {spec.workload for spec in specs} == {"mcf", "astar"}

    def test_config_override_narrows_the_columns(self, quick_runner):
        study = STUDIES.get("fig10").overridden(configurations=["triangel"])
        specs = study.compile(quick_runner)
        assert {spec.configuration for spec in specs} == {"baseline", "triangel"}


class TestOverrides:
    def test_parse_assignments(self):
        assert parse_assignments(["a=1", "b=x=y"]) == {"a": "1", "b": "x=y"}
        with pytest.raises(ValueError, match="KEY=VALUE"):
            parse_assignments(["nope"])

    def test_axis_assignments_are_coerced(self):
        study = STUDIES.get("fig10").overridden(
            assignments={"scale": "0.5", "metric": "coverage"}
        )
        assert study.scale == 0.5
        assert study.metric == "coverage"

    def test_unknown_assignment_becomes_config_param(self):
        study = STUDIES.get("replacement-study").overridden(
            assignments={"max_entries": "2048"}
        )
        assert study.config_params_dict() == {"max_entries": 2048}
        assert "2048" in study.display_title()

    def test_max_accesses_per_core_axis(self):
        study = STUDIES.get("fig16").overridden(
            assignments={"max_accesses_per_core": "250"}
        )
        assert study.max_accesses_per_core == 250
        none = study.overridden(assignments={"max_accesses_per_core": "none"})
        assert none.max_accesses_per_core is None

    def test_workload_override_rejected_on_pair_based_study(self):
        with pytest.raises(ValueError, match="no workload axis"):
            STUDIES.get("fig16").overridden(workloads=["xalan"])

    def test_axis_overrides_rejected_on_analytic_studies(self):
        with pytest.raises(ValueError, match="no workload axis"):
            STUDIES.get("table1").overridden(workloads=["xalan"])
        with pytest.raises(ValueError, match="no configuration axis"):
            STUDIES.get("table2").overridden(configurations=["triangel"])

    def test_inapplicable_set_key_rejected(self):
        """A --set key no configuration accepts fails loudly, not silently."""

        with pytest.raises(ValueError, match="match neither a study axis"):
            STUDIES.get("fig10").overridden(assignments={"max_entries": "64"})
        with pytest.raises(ValueError, match="match neither a study axis"):
            STUDIES.get("fig10").overridden(assignments={"metrc": "coverage"})

    def test_axis_key_unread_by_reducer_rejected(self):
        """A --set axis the study's reducer never reads fails loudly."""

        with pytest.raises(ValueError, match="does not apply"):
            STUDIES.get("fig20").overridden(assignments={"metric": "coverage"})
        with pytest.raises(ValueError, match="does not apply"):
            STUDIES.get("fig16").overridden(assignments={"metric": "dram_traffic"})
        with pytest.raises(ValueError, match="does not apply"):
            STUDIES.get("table1").overridden(assignments={"scale": "0.5"})
        with pytest.raises(ValueError, match="does not apply"):
            STUDIES.get("fig10").overridden(
                assignments={"max_accesses_per_core": "100"}
            )

    def test_metric_values_validated_per_reducer(self):
        """A metric the reducer cannot compute fails before any simulation."""

        with pytest.raises(ValueError, match="not a metric the 'matrix' reducer"):
            STUDIES.get("fig10").overridden(assignments={"metric": "bogus"})
        # `speedup` is a matrix metric but not a raw per-run statistic.
        with pytest.raises(ValueError, match="not a metric the 'stat' reducer"):
            STUDIES.get("fig19").overridden(assignments={"metric": "speedup"})
        stat = STUDIES.get("fig19").overridden(
            assignments={"metric": "cycles_per_access"}
        )
        assert stat.metric == "cycles_per_access"

    def test_unknown_workload_and_configuration_names_rejected(self):
        """Typos in --workloads/--configs fail before any simulation."""

        with pytest.raises(ValueError, match="unknown workload"):
            STUDIES.get("fig10").overridden(workloads=["xalann"])
        with pytest.raises(ValueError, match="unknown configuration"):
            STUDIES.get("fig10").overridden(configurations=["trianglee"])

    def test_config_override_stranding_declared_params_rejected(self):
        """Narrowing --configs must not orphan (and mislabel) declared params."""

        with pytest.raises(ValueError, match="inapplicable"):
            STUDIES.get("replacement-study").overridden(
                configurations=["triangel", "triage"]
            )
        narrowed = STUDIES.get("replacement-study").overridden(
            configurations=["triage-lru"]
        )
        assert narrowed.config_params_dict() == {"max_entries": 1024}

    def test_with_config_params_validates_like_overridden(self):
        """The programmatic param API enforces the same applicability rule."""

        with pytest.raises(ValueError, match="match neither a study axis"):
            STUDIES.get("fig10").with_config_params(max_entries=64)
        study = STUDIES.get("replacement-study").with_config_params(max_entries=64)
        assert study.config_params_dict() == {"max_entries": 64}

    def test_param_overrides_on_multiprogram_studies(self):
        """Multiprogram studies carry config_params into their compiled specs.

        fig16's configurations are all plain, so a parameter override is
        still rejected there (nothing would accept it); a multiprogram
        study over a parameterised configuration compiles specs that carry
        the parameters — and only on the configurations that take them.
        """

        with pytest.raises(ValueError, match="match neither a study axis"):
            STUDIES.get("fig16").overridden(assignments={"max_entries": "64"})
        declared = Study.create(
            name="mp-params",
            figure="X",
            title="t",
            reducer="multiprogram",
            pairs=(("xalan", "omnet"),),
            configurations=("triage-lru",),
            config_params={"max_entries": 64},
        )
        specs = declared.compile()
        by_config = {spec.configuration: spec for spec in specs}
        assert by_config["triage-lru"].config_params_dict() == {"max_entries": 64}
        assert by_config["baseline"].config_params_dict() == {}
        overridden = declared.overridden(assignments={"max_entries": "32"})
        assert overridden.config_params_dict() == {"max_entries": 32}
        assert (
            by_config["triage-lru"].content_hash()
            != {
                spec.configuration: spec for spec in overridden.compile()
            }["triage-lru"].content_hash()
        )

    def test_multiprogram_stranded_declared_params_rejected_at_compile(self):
        """Params no configuration accepts must not silently compile away."""

        stranded = Study.create(
            name="mp-stranded",
            figure="X",
            title="t",
            reducer="multiprogram",
            pairs=(("xalan", "omnet"),),
            configurations=("triangel",),  # plain: accepts no params
            config_params={"max_entries": 64},
        )
        with pytest.raises(ValueError, match="silently ignored"):
            stranded.compile()

    def test_table2_system_axes_are_overridable(self):
        study = STUDIES.get("table2").overridden(
            assignments={"system": "sim-scale", "scale": "2"}
        )
        assert study.system == "sim-scale"
        assert study.scale == 2.0

    def test_overridden_without_changes_returns_same_study(self):
        study = STUDIES.get("fig10")
        assert study.overridden() is study

    def test_studies_are_immutable(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            STUDIES.get("fig10").metric = "energy"


class TestWarmStoreRoundTrip:
    @pytest.mark.parametrize(
        "name, assignments",
        [
            ("fig10", None),
            ("fig16", {"max_accesses_per_core": "250"}),
            ("fig19", None),
            ("replacement-study", {"max_entries": "64"}),
        ],
    )
    def test_second_run_re_executes_nothing(self, quick_runner, name, assignments):
        """Acceptance: a compiled batch round-trips through a warm store."""

        study = STUDIES.get(name).overridden(assignments=assignments)
        first = study.run(quick_runner)
        store = default_store()
        puts_after_first = store.puts
        assert puts_after_first == len(study.compile(quick_runner))
        second = study.run(quick_runner)
        assert store.puts == puts_after_first  # zero re-executions
        assert second.rendered == first.rendered

    def test_compile_then_submit_warms_the_store_for_run(self, quick_runner):
        study = STUDIES.get("fig10").overridden(workloads=["xalan"])
        quick_runner.submit(study.compile(quick_runner))
        store = default_store()
        puts_after_warm = store.puts
        study.run(quick_runner)
        assert store.puts == puts_after_warm


class TestLegacyParity:
    """The Study declarations reproduce the pre-redesign tables byte-for-byte."""

    def test_figure_10_matches_hand_built_legacy_table(self, quick_runner):
        result = STUDIES.run("fig10", quick_runner)
        # The pre-redesign figure_10 implementation, inlined.
        table = quick_runner.normalized_matrix(
            SPEC_WORKLOADS, list(MAIN_SERIES), "speedup"
        )
        legacy = render_figure(
            "Figure 10: Speedup over stride-only baseline (higher is better)",
            table,
            list(MAIN_SERIES),
            note="Paper geomeans: Triage 1.093, Triage-Deg4 1.142, Triage-Deg4-Look2 "
            "1.166, Triangel 1.264, Triangel-Bloom 1.261.",
        )
        assert result.rendered == legacy

    def test_replacement_study_matches_hand_built_legacy_table(self, quick_runner):
        study = STUDIES.get("replacement-study").with_config_params(max_entries=64)
        result = study.run(quick_runner)
        series = [f"triage-{policy}" for policy in REPLACEMENT_POLICIES]
        table = quick_runner.normalized_matrix(
            SPEC_WORKLOADS, series, "speedup", config_params={"max_entries": 64}
        )
        legacy = render_figure(
            "Section 3.3: Markov replacement study (capacity capped at 64 entries)",
            table,
            series,
            note="Paper observation: HawkEye beats LRU/RRIP only when capacity is "
            "artificially constrained.",
        )
        assert result.rendered == legacy

    def test_analytic_tables_match_their_studies(self):
        # The table benchmarks call the analytic builders directly.
        table1 = render_result(structure_sizes_result())
        assert table1.rendered == STUDIES.run("table1").rendered
        table2 = system_config_result(SystemConfig.paper())
        assert table2.rendered == STUDIES.run("table2").rendered
