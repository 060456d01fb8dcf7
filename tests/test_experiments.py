"""Tests for the experiment configurations, runner and figure harness.

Full-size figure runs are exercised by the benchmarks; here everything runs
on heavily truncated traces so the whole module completes in seconds while
still covering the orchestration logic end to end.
"""

import pytest

from repro.core.triangel import TriangelPrefetcher
from repro.experiments.configs import (
    ABLATION_LADDER,
    CONFIGS,
    EVALUATION_CONFIGS,
    METADATA_FORMAT_CONFIGS,
    available_configurations,
    build_prefetchers,
    configuration_signatures,
)
from repro.experiments.runner import ExperimentRunner, clear_caches
from repro.experiments.studies import STUDIES, system_config_result
from repro.prefetch.stride import StridePrefetcher
from repro.sim.config import SystemConfig
from repro.triage.triage import TriagePrefetcher


@pytest.fixture
def quick_runner(small_system):
    clear_caches()
    return ExperimentRunner(
        system=small_system,
        max_accesses=1200,
        trace_overrides={"length": 2400},
        warmup_fraction=0.3,
    )


class TestConfigurations:
    def test_all_evaluation_configs_build(self, small_system):
        for name in EVALUATION_CONFIGS:
            prefetchers = build_prefetchers(name, small_system)
            assert isinstance(prefetchers[0], StridePrefetcher)

    def test_baseline_is_stride_only(self, small_system):
        assert len(build_prefetchers("baseline", small_system)) == 1

    def test_triage_variants_configure_degree_and_lookahead(self, small_system):
        deg4 = build_prefetchers("triage-deg4", small_system)[1]
        look2 = build_prefetchers("triage-deg4-look2", small_system)[1]
        assert isinstance(deg4, TriagePrefetcher)
        assert deg4.config.degree == 4 and deg4.config.lookahead == 1
        assert look2.config.lookahead == 2

    def test_triangel_variants(self, small_system):
        triangel = build_prefetchers("triangel", small_system)[1]
        bloom = build_prefetchers("triangel-bloom", small_system)[1]
        nomrb = build_prefetchers("triangel-nomrb", small_system)[1]
        assert isinstance(triangel, TriangelPrefetcher)
        assert triangel.config.sizing_mechanism == "set-dueller"
        assert bloom.config.sizing_mechanism == "bloom"
        assert bloom.config.bloom_bias == pytest.approx(1.5)
        assert not nomrb.config.use_mrb

    def test_structures_scaled_from_system(self, small_system):
        triangel = build_prefetchers("triangel", small_system)[1]
        assert triangel.config.sampler_entries == small_system.sampler_entries
        triage = build_prefetchers("triage", small_system)[1]
        assert triage.config.lut_entries == small_system.lut_entries

    def test_metadata_format_configs(self, small_system):
        for name, factory in METADATA_FORMAT_CONFIGS.items():
            prefetcher = factory(small_system)[1]
            assert prefetcher.config.metadata_format == name or name.startswith("32-bit")

    def test_ablation_ladder_ordering(self, small_system):
        names = list(ABLATION_LADDER)
        assert names[0] == "Triage-Deg-4"
        assert names[-1] == "+HighPatternConf"
        final = ABLATION_LADDER["+HighPatternConf"](small_system)[1]
        assert final.config.enable_high_pattern_conf
        assert final.config.enable_reuse_conf
        first_triangel = ABLATION_LADDER["+BasePatternConf"](small_system)[1]
        assert not first_triangel.config.enable_reuse_conf
        assert not first_triangel.config.use_mrb

    def test_replacement_configs_resolve_with_params(self, small_system):
        expected = {"triage-lru", "triage-srrip", "triage-hawkeye"}
        assert expected == {name for name in CONFIGS if CONFIGS.takes_params(name)}
        prefetcher = build_prefetchers(
            "triage-hawkeye", small_system, params={"max_entries": 64}
        )[1]
        assert prefetcher.config.markov_replacement == "hawkeye"
        assert prefetcher.config.max_entries_override == 64

    def test_unknown_configuration_raises(self, small_system):
        with pytest.raises(ValueError):
            build_prefetchers("voyager", small_system)

    def test_plain_configuration_rejects_params(self, small_system):
        with pytest.raises(ValueError, match="takes no parameters"):
            build_prefetchers("triangel", small_system, params={"max_entries": 64})

    def test_parameterised_configuration_rejects_unknown_params(self, small_system):
        with pytest.raises(ValueError, match="does not take"):
            build_prefetchers("triage-lru", small_system, params={"bogus": 1})

    def test_available_configurations_sorted_and_complete(self):
        names = available_configurations()
        assert names == sorted(names)
        assert "triangel" in names and "baseline" in names
        # The unified listing covers plain and parameterised entries alike.
        assert "triage-lru" in names and "triage-hawkeye" in names
        assert names == CONFIGS.names()

    def test_configuration_signatures(self):
        signatures = configuration_signatures()
        assert signatures["triangel"] == ""
        assert signatures["triage-lru"] == "(max_entries=1024)"
        assert CONFIGS.takes_params("triage-srrip")
        assert not CONFIGS.takes_params("baseline")

    def test_registry_views_are_live(self, small_system):
        """Registrations show up in the registry's listings immediately."""

        from repro.experiments.configs import ConfigRegistry, make_triage

        registry = ConfigRegistry()
        assert "deg2" not in registry and registry.names() == []

        registry.register("deg2", lambda system: make_triage(system, degree=2))
        assert "deg2" in registry and not registry.takes_params("deg2")
        assert registry.resolve("deg2", small_system)[1].config.degree == 2

        def capped(system, max_entries=8):
            return make_triage(system, degree=1, max_entries_override=max_entries)

        registry.register("capped", capped)
        assert registry.names() == ["capped", "deg2"]
        assert registry.takes_params("capped")
        assert registry.signatures()["capped"] == "(max_entries=8)"


class TestRunner:
    def test_run_produces_stats(self, quick_runner):
        stats = quick_runner.run("xalan", "baseline")
        assert stats.accesses == 1200
        assert stats.workload == "xalan"
        assert stats.configuration == "baseline"

    def test_run_caching(self, quick_runner):
        first = quick_runner.run("xalan", "baseline")
        second = quick_runner.run("xalan", "baseline")
        assert first is second

    def test_trace_caching(self, quick_runner):
        assert quick_runner.trace_for("xalan") is quick_runner.trace_for("xalan")

    def test_matrix_and_normalisation(self, quick_runner):
        table = quick_runner.normalized_matrix(
            ["xalan"], ["triage"], "speedup", include_geomean=True
        )
        assert "xalan" in table and "geomean" in table
        assert table["xalan"]["triage"] > 0
        assert "baseline" not in table["xalan"]

    def test_matrix_unknown_configuration(self, quick_runner):
        with pytest.raises(ValueError):
            quick_runner.run_matrix(["xalan"], ["not-a-config"])

    def test_multiprogram_run(self, quick_runner):
        result = quick_runner.run_multiprogram(
            ("xalan", "omnet"), "baseline", max_accesses_per_core=400
        )
        assert len(result.core_results) == 2
        assert result.total_dram_accesses > 0

    def test_multiprogram_run_persists_in_store(self, quick_runner):
        from repro.experiments.store import default_store

        quick_runner.run_multiprogram(("xalan", "omnet"), "baseline", 300)
        spec = quick_runner.multiprogram_spec_for(("xalan", "omnet"), "baseline", 300)
        assert spec in default_store()

    def test_parameterised_matrix(self, quick_runner):
        table = quick_runner.normalized_matrix(
            ["xalan"],
            ["triage-lru", "triage-hawkeye"],
            "speedup",
            config_params={"max_entries": 64},
        )
        assert table["xalan"]["triage-lru"] > 0
        assert table["xalan"]["triage-hawkeye"] > 0


class TestFigureHarness:
    def test_figure_10_structure(self, quick_runner):
        result = STUDIES.run("fig10", quick_runner)
        assert result.figure == "Figure 10"
        assert "geomean" in result.table
        assert set(result.columns) == {
            "triage",
            "triage-deg4",
            "triage-deg4-look2",
            "triangel",
            "triangel-bloom",
        }
        assert "xalan" in result.rendered

    def test_figures_11_to_15_reuse_cached_runs(self, quick_runner):
        STUDIES.run("fig10", quick_runner)
        for name in ("fig11", "fig12", "fig13"):
            result = STUDIES.run(name, quick_runner)
            assert "geomean" in result.table

    def test_figure_16_runs_through_the_store(self, quick_runner):
        from repro.experiments.store import default_store

        study = STUDIES.get("fig16").overridden(
            assignments={"max_accesses_per_core": "250"}
        )
        result = study.run(quick_runner)
        assert result.figure == "Figure 16"
        assert "geomean" in result.table
        summary = default_store().kind_summary()
        assert summary.get("multiprogram", 0) > 0
        # A second invocation replays every run from the store.
        puts_before = default_store().puts
        study.run(quick_runner)
        assert default_store().puts == puts_before

    def test_replacement_study_variants_do_not_collide(self, quick_runner):
        from repro.experiments.store import default_store

        study = STUDIES.get("replacement-study")
        first = study.with_config_params(max_entries=64).run(quick_runner)
        second = study.with_config_params(max_entries=128).run(quick_runner)
        assert set(first.table) == set(second.table)
        summary = default_store().kind_summary()
        # Two capacity variants => two full sets of parameterised records.
        assert summary.get("parameterised run", 0) >= 2 * 3

    def test_table_1_sizes_match_paper(self):
        result = STUDIES.run("table1")
        total_bytes = result.table["Total"]["bytes"]
        assert total_bytes == pytest.approx(17.6 * 1024, rel=0.08)
        assert result.table["Training Table"]["bytes"] == pytest.approx(7808, rel=0.02)
        assert result.table["History Sampler"]["bytes"] == pytest.approx(6080, rel=0.05)

    def test_table_2_describes_system(self):
        result = system_config_result(SystemConfig.paper())
        description = result.extras["description"]
        assert "L3 Cache" in description
        assert "2048 KiB" in description["L3 Cache"]
        assert "Table 2" in result.rendered
