"""Tests for one-shot batches: dedupe, parallel determinism, persistence."""

from repro.experiments.jobs import RunSpec
from repro.experiments.runner import ExperimentRunner, clear_caches
from repro.experiments.store import ResultStore
from repro.service.scheduler import Scheduler
from repro.sim.multiprogram import MultiProgramResult
from repro.sim.stats import SimulationStats

WORKLOADS = ["xalan", "omnet", "mcf"]
SERIES = ["baseline", "triage", "triangel"]


def quick_runner(**overrides) -> ExperimentRunner:
    defaults = dict(
        max_accesses=600,
        trace_overrides={"length": 1200},
        warmup_fraction=0.3,
    )
    defaults.update(overrides)
    return ExperimentRunner(**defaults)


def spec(runner: ExperimentRunner, workload: str, configuration: str) -> RunSpec:
    return runner.spec_for(workload, configuration)


class TestSchedulerRun:
    def test_batch_dedupes_specs(self, tmp_path):
        store = ResultStore(tmp_path)
        runner = quick_runner(store=store)
        one = spec(runner, "xalan", "baseline")
        with Scheduler(store=store) as scheduler:
            results = scheduler.run([one, one, one])
        assert len(results) == 1
        assert store.puts == 1

    def test_store_satisfies_second_batch(self, tmp_path):
        store = ResultStore(tmp_path)
        runner = quick_runner(store=store)
        batch = [spec(runner, w, "baseline") for w in WORKLOADS]
        with Scheduler(store=store) as scheduler:
            scheduler.run(batch)
            puts_after_first = store.puts
            scheduler.run(batch)
        assert store.puts == puts_after_first  # nothing re-ran
        assert store.hits >= len(batch)

    def test_no_store_executes_everything(self):
        runner = quick_runner(use_cache=False)
        with Scheduler() as scheduler:
            results = scheduler.run([spec(runner, "xalan", "baseline")])
        assert next(iter(results.values())).accesses == 600


class TestParallelDeterminism:
    def test_parallel_matrix_matches_serial(self, tmp_path):
        """Acceptance: jobs=4 produces identical stats to the serial path."""

        serial = quick_runner(store=ResultStore(tmp_path / "serial"), jobs=1)
        parallel = quick_runner(store=ResultStore(tmp_path / "parallel"), jobs=4)
        expected = serial.run_matrix(WORKLOADS, SERIES)
        actual = parallel.run_matrix(WORKLOADS, SERIES)
        for workload in WORKLOADS:
            for configuration in SERIES:
                assert (
                    actual[workload][configuration]
                    == expected[workload][configuration]
                ), (workload, configuration)

    def test_parallel_normalized_matrix_matches_serial(self, tmp_path):
        serial = quick_runner(store=ResultStore(tmp_path / "serial"), jobs=1)
        parallel = quick_runner(store=ResultStore(tmp_path / "parallel"), jobs=2)
        assert parallel.normalized_matrix(
            WORKLOADS[:2], ["triage"], "speedup"
        ) == serial.normalized_matrix(WORKLOADS[:2], ["triage"], "speedup")


class TestMultiProgramBatches:
    PAIRS = [("xalan", "omnet"), ("mcf", "xalan")]

    def specs(self, runner, cap=150):
        return [
            runner.multiprogram_spec_for(pair, configuration, cap)
            for pair in self.PAIRS
            for configuration in ("baseline", "triage")
        ]

    def test_parallel_multiprogram_matches_serial(self, tmp_path):
        """Acceptance: multiprogram runs at jobs=4 match serial bit-for-bit."""

        serial = quick_runner(store=ResultStore(tmp_path / "serial"), jobs=1)
        parallel = quick_runner(store=ResultStore(tmp_path / "parallel"), jobs=4)
        expected = serial.submit(self.specs(serial))
        actual = parallel.submit(self.specs(parallel))
        assert set(expected) == set(actual)
        for spec in expected:
            assert [core.stats for core in expected[spec].core_results] == [
                core.stats for core in actual[spec].core_results
            ], spec

    def test_mixed_batch_executes_both_kinds(self, tmp_path):
        store = ResultStore(tmp_path)
        runner = quick_runner(store=store)
        single = spec(runner, "xalan", "baseline")
        multi = runner.multiprogram_spec_for(("xalan", "omnet"), "baseline", 100)
        results = runner.submit([single, multi, single])
        assert len(results) == 2
        assert isinstance(results[single], SimulationStats)
        assert isinstance(results[multi], MultiProgramResult)
        assert store.kind_summary() == {"run": 1, "multiprogram": 1}

    def test_second_multiprogram_batch_replays_from_store(self, tmp_path):
        first = quick_runner(store=ResultStore(tmp_path))
        first.submit(self.specs(first))

        fresh_store = ResultStore(tmp_path)  # fresh process, in effect
        second = quick_runner(store=fresh_store)
        results = second.submit(self.specs(second))
        assert fresh_store.misses == 0
        assert fresh_store.puts == 0
        assert fresh_store.hits == len(results)

    def test_run_multiprogram_replays_within_process(self, tmp_path):
        runner = quick_runner(store=ResultStore(tmp_path))
        first = runner.run_multiprogram(("xalan", "omnet"), "baseline", 100)
        second = runner.run_multiprogram(("xalan", "omnet"), "baseline", 100)
        assert first is second  # live-object identity via the store index
        assert runner.store.puts == 1


class TestParameterisedBatches:
    def test_replacement_variants_occupy_distinct_entries(self, tmp_path):
        store = ResultStore(tmp_path)
        runner = quick_runner(store=store)
        for cap in (32, 64):
            runner.run("xalan", "triage-lru", config_params={"max_entries": cap})
        assert len(store) == 2
        assert store.kind_summary() == {"parameterised run": 2}

    def test_second_parameterised_run_replays_from_store(self, tmp_path):
        first = quick_runner(store=ResultStore(tmp_path))
        first.run("xalan", "triage-hawkeye", config_params={"max_entries": 64})

        fresh_store = ResultStore(tmp_path)
        second = quick_runner(store=fresh_store)
        second.run("xalan", "triage-hawkeye", config_params={"max_entries": 64})
        assert (fresh_store.hits, fresh_store.misses, fresh_store.puts) == (1, 0, 0)

    def test_parallel_parameterised_matrix_matches_serial(self, tmp_path):
        policies = ["triage-lru", "triage-srrip", "triage-hawkeye"]
        serial = quick_runner(store=ResultStore(tmp_path / "serial"), jobs=1)
        parallel = quick_runner(store=ResultStore(tmp_path / "parallel"), jobs=4)
        params = {"max_entries": 48}
        expected = serial.run_matrix(WORKLOADS[:2], policies, config_params=params)
        actual = parallel.run_matrix(WORKLOADS[:2], policies, config_params=params)
        assert expected == actual


class TestPersistenceAcrossProcesses:
    def test_fresh_store_instance_skips_completed_runs(self, tmp_path):
        """Acceptance: a second invocation reuses the on-disk store.

        A brand-new ResultStore instance re-reads everything from disk, which
        is exactly what a fresh benchmark/CLI process does.
        """

        first = quick_runner(store=ResultStore(tmp_path))
        first.run_matrix(WORKLOADS, SERIES)

        fresh_store = ResultStore(tmp_path)  # fresh process, in effect
        second = quick_runner(store=fresh_store)
        table = second.run_matrix(WORKLOADS, SERIES)
        assert fresh_store.hits == len(WORKLOADS) * len(SERIES)
        assert fresh_store.misses == 0
        assert fresh_store.puts == 0
        assert table["xalan"]["triangel"].accesses == 600

    def test_runner_uses_default_store_across_instances(self):
        clear_caches()
        quick_runner().run("xalan", "baseline")
        other = quick_runner()  # new runner, same process-wide store
        stats = other.run("xalan", "baseline")
        assert stats.accesses == 600


class TestEveryRunPersists:
    """The former extra-factories path is gone: every run goes through the store."""

    def test_ablation_registry_runs_persist(self, tmp_path):
        store = ResultStore(tmp_path)
        runner = quick_runner(store=store)
        runner.run("xalan", "ablation-Triage-Deg-4")
        assert len(store) == 1
        assert store.puts == 1

    def test_parameterised_runs_persist_with_distinct_keys(self, tmp_path):
        store = ResultStore(tmp_path)
        runner = quick_runner(store=store)
        runner.run("xalan", "triage-lru", config_params={"max_entries": 32})
        runner.run("xalan", "triage-lru", config_params={"max_entries": 64})
        assert len(store) == 2  # the caps key distinct store entries
        assert store.puts == 2

    def test_run_rejects_unknown_configuration(self):
        clear_caches()
        import pytest

        with pytest.raises(ValueError, match="unknown configuration"):
            quick_runner().run_matrix(["xalan"], ["custom-deg2"])
