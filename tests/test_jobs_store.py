"""Tests for run specs (hashing, reconstruction) and the persistent store."""

import dataclasses
import hashlib
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.jobs import (
    MultiProgramSpec,
    RunSpec,
    _freeze,
    code_version,
    execute,
    execute_multiprogram_spec,
    execute_spec,
)
from repro.experiments.runner import ExperimentRunner, clear_caches
from repro.experiments.store import ResultStore, default_store, store_stats_payload
from repro.memory.hierarchy import HierarchyParams
from repro.sim.config import SystemConfig, TimingParams
from repro.sim.multiprogram import MultiProgramResult
from repro.sim.stats import SimulationStats


def make_spec(**overrides) -> RunSpec:
    defaults = dict(
        workload="xalan",
        configuration="triage",
        system=SystemConfig.scaled(),
        trace_overrides={"length": 2000, "seed": 7},
        warmup_fraction=0.3,
        max_accesses=500,
    )
    defaults.update(overrides)
    return RunSpec.create(**defaults)


def make_mp_spec(**overrides) -> MultiProgramSpec:
    defaults = dict(
        workloads=("xalan", "omnet"),
        configuration="triage",
        system=SystemConfig.scaled(),
        trace_overrides={"length": 1000},
        warmup_fraction=0.2,
        max_accesses_per_core=200,
    )
    defaults.update(overrides)
    return MultiProgramSpec.create(**defaults)


class TestRunSpec:
    def test_identical_specs_are_equal_and_hash_equal(self):
        # Built from distinct but equal system trees.
        first, second = make_spec(), make_spec()
        assert first.system is not second.system
        assert first == second
        assert hash(first) == hash(first) == hash(second)
        assert {first: "cell"}[second] == "cell"
        assert first.content_hash() == second.content_hash()

    def test_specs_are_immutable(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            make_spec().workload = "mcf"

    @pytest.mark.parametrize(
        "change",
        [
            {"workload": "mcf"},
            {"configuration": "triangel"},
            {"trace_overrides": {"length": 2001, "seed": 7}},
            {"warmup_fraction": 0.4},
            {"max_accesses": 501},
            {"max_accesses": None},
        ],
    )
    def test_any_field_change_misses(self, change):
        assert make_spec().content_hash() != make_spec(**change).content_hash()

    def test_system_parameter_change_misses(self):
        other = SystemConfig.scaled()
        other.bloom_window = 123
        assert make_spec().content_hash() != make_spec(system=other).content_hash()

    def test_trace_override_ordering_is_canonical(self):
        forward = make_spec(trace_overrides={"length": 2000, "seed": 7})
        backward = make_spec(trace_overrides={"seed": 7, "length": 2000})
        assert forward == backward
        assert forward.content_hash() == backward.content_hash()

    def test_system_config_round_trip(self):
        system = SystemConfig.scaled(2.0)
        system.training_entries = 96
        rebuilt = make_spec(system=system).system_config()
        assert rebuilt == system

    def test_as_dict_is_json_serialisable(self):
        payload = json.loads(json.dumps(make_spec().as_dict()))
        assert payload["workload"] == "xalan"
        assert payload["trace_overrides"] == {"length": 2000, "seed": 7}

    def test_content_hash_salted_by_code_version(self, monkeypatch):
        from repro.experiments import jobs

        assert code_version() == code_version()  # stable within a process
        spec = make_spec()
        before = spec.content_hash()
        assert len(before) == 64
        monkeypatch.setattr(jobs, "_code_version_cache", "other-code-version")
        assert make_spec().content_hash() != before
        # The digest cached on an instance is re-keyed too.
        assert spec.content_hash() == make_spec().content_hash()
        monkeypatch.undo()
        assert spec.content_hash() == before

    def test_execute_spec_runs_from_spec_alone(self):
        stats = execute_spec(make_spec(max_accesses=300, warmup_fraction=0.2))
        assert stats.accesses == 300
        assert stats.workload == "xalan"
        assert stats.configuration == "triage"

    def test_execute_spec_memoises_traces_per_process(self):
        from repro.experiments import jobs

        jobs.clear_trace_memo()
        execute_spec(make_spec(max_accesses=100, warmup_fraction=0.0))
        assert len(jobs._TRACE_MEMO) == 1
        trace = next(iter(jobs._TRACE_MEMO.values()))
        # A second configuration over the same workload reuses the trace.
        execute_spec(
            make_spec(
                configuration="baseline", max_accesses=100, warmup_fraction=0.0
            )
        )
        assert next(iter(jobs._TRACE_MEMO.values())) is trace
        assert len(jobs._TRACE_MEMO) == 1


def _field_values(cls, mixed: bool = False) -> st.SearchStrategy:
    """Values for every scalar field of a config dataclass, drawn by type.

    ``mixed`` also draws ints for float fields and bools for int fields:
    values that compare equal across types but encode differently.
    """

    by_type = {
        int: st.integers() | st.booleans() if mixed else st.integers(),
        float: st.floats(allow_nan=False) | st.integers() if mixed else st.floats(allow_nan=False),
        str: st.text(max_size=8),
    }
    return st.fixed_dictionaries(
        {
            field.name: by_type[type(field.default)]
            for field in dataclasses.fields(cls)
            if type(field.default) in by_type
        }
    )


#: Configuration parameter values: scalars and small nested mappings.
_PARAM_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _defined_digest(spec) -> str:
    """A spec's content hash as defined: over the canonical JSON of ``as_dict()``."""

    canonical = json.dumps(spec.as_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(f"{code_version()}|{canonical}".encode()).hexdigest()


_SRC_ROOT = Path(__file__).resolve().parent.parent / "src"

#: Run with ``dump PATH`` (hash both spec kinds, then pickle them) or ``load
#: PATH`` (unpickle, then compare with freshly built equal specs).
_HASH_SEED_CHILD = """
import json, pickle, sys
from repro.experiments.jobs import MultiProgramSpec, RunSpec
from repro.sim.config import SystemConfig

def fresh():
    return [
        RunSpec.create("xalan", "triage", SystemConfig.scaled(), {"length": 2000}),
        MultiProgramSpec.create(("xalan", "omnet"), "triangel", SystemConfig.scaled()),
    ]

mode, path = sys.argv[1], sys.argv[2]
if mode == "dump":
    specs = fresh()
    hashes = [hash(spec) for spec in specs]
    with open(path, "wb") as handle:
        pickle.dump(specs, handle)
    print(json.dumps([{"hash": value} for value in hashes]))
else:
    with open(path, "rb") as handle:
        loaded = pickle.load(handle)
    report = []
    for restored, built in zip(loaded, fresh()):
        report.append({
            "equal": restored == built,
            "found": {built: True}.get(restored, False),
            "loaded_hash": hash(restored),
            "fresh_hash": hash(built),
        })
    print(json.dumps(report))
"""


class TestSpecIdentity:
    """Spec identity is computed once per instance, but never changes."""

    @pytest.mark.parametrize(
        "system",
        [SystemConfig.scaled(), SystemConfig.scaled(1.5), SystemConfig.paper()],
        ids=["scaled", "scaled-1.5", "paper"],
    )
    def test_field_walk_freezes_like_asdict(self, system):
        assert _freeze(system) == _freeze(dataclasses.asdict(system))
        assert make_spec(system=system).system == _freeze(dataclasses.asdict(system))

    @given(
        top=_field_values(SystemConfig),
        hierarchy=_field_values(HierarchyParams),
        timing=_field_values(TimingParams),
    )
    @settings(max_examples=50, deadline=None)
    def test_field_walk_freezes_like_asdict_for_any_values(self, top, hierarchy, timing):
        system = SystemConfig(
            hierarchy=HierarchyParams(**hierarchy), timing=TimingParams(**timing), **top
        )
        assert _freeze(system) == _freeze(dataclasses.asdict(system))

    @pytest.mark.parametrize("factory", [make_spec, make_mp_spec])
    def test_content_hash_keeps_its_definition(self, factory):
        spec = factory()
        canonical = json.dumps(spec.as_dict(), sort_keys=True, separators=(",", ":"))
        expected = hashlib.sha256(f"{code_version()}|{canonical}".encode()).hexdigest()
        assert spec.content_hash() == expected
        assert spec.content_hash() == expected  # the cached answer

    @pytest.mark.parametrize("factory", [make_spec, make_mp_spec])
    def test_cached_digest_matches_fresh_spec_and_survives_pickling(self, factory):
        spec = factory()
        digest = spec.content_hash()
        assert factory().content_hash() == digest
        restored = pickle.loads(pickle.dumps(spec))
        assert restored == spec
        assert restored.content_hash() == digest

    def test_cache_takes_no_part_in_equality_or_repr(self):
        hashed, fresh = make_spec(), make_spec()
        hashed.content_hash()
        assert hashed == fresh
        assert hash(hashed) == hash(fresh)
        assert repr(hashed) == repr(fresh)

    @pytest.mark.parametrize(
        ("factory", "change"),
        [
            (make_spec, {"max_accesses": 501}),
            (make_spec, {"workload": "mcf"}),
            (make_mp_spec, {"share_metadata": False}),
            (make_mp_spec, {"max_accesses_per_core": 201}),
        ],
    )
    def test_replace_gives_a_new_digest(self, factory, change):
        spec = factory()
        digest = spec.content_hash()
        changed = dataclasses.replace(spec, **change)
        assert changed.content_hash() != digest
        assert changed.content_hash() == factory(**change).content_hash()

    def test_specs_share_the_frozen_tree_they_are_given(self):
        runner = ExperimentRunner(trace_overrides={"length": 1000}, max_accesses=300)
        system = runner.frozen_system()
        run = runner.spec_for("xalan", "triage", system=system)
        pair = runner.multiprogram_spec_for(["xalan", "mcf"], "triangel", 100, system=system)
        assert run.system is system and pair.system is system
        assert run == runner.spec_for("xalan", "triage")
        assert run.content_hash() == runner.spec_for("xalan", "triage").content_hash()
        assert make_spec(system=_freeze(SystemConfig.scaled())) == make_spec()

    @pytest.mark.parametrize("factory", [make_spec, make_mp_spec])
    def test_equal_trees_that_encode_differently_keep_their_own_digests(self, factory):
        # 25 == 25.0 and -0.0 == 0.0, so these specs compare equal, but their
        # canonical JSON differs.  Hashed in either order in one process, each
        # digest stays its own definition's.
        def system(latency, stall_weight):
            config = SystemConfig.scaled()
            config.markov_latency = latency
            config.timing.stall_weight_l1 = stall_weight
            return config

        for order in ((25.0, 25), (25, 25.0)):
            specs = [
                factory(system=system(latency, stall), config_params={"system": latency})
                for latency, stall in zip(order, (0.0, -0.0))
            ]
            assert specs[0] == specs[1]
            assert specs[0].content_hash() != specs[1].content_hash()
            for spec in specs:
                assert spec.content_hash() == _defined_digest(spec)

    @given(
        top=_field_values(SystemConfig, mixed=True),
        hierarchy=_field_values(HierarchyParams, mixed=True),
        timing=_field_values(TimingParams, mixed=True),
        overrides=st.dictionaries(
            st.sampled_from(("length", "seed", "system")), st.integers(1, 10**6), max_size=3
        ),
        params=st.dictionaries(
            st.sampled_from(("max_entries", "system", "kind", "workload")),
            _PARAM_VALUES,
            max_size=4,
        ),
        multiprogram=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_content_hash_is_its_definition_for_any_spec(
        self, top, hierarchy, timing, overrides, params, multiprogram
    ):
        system = SystemConfig(
            hierarchy=HierarchyParams(**hierarchy), timing=TimingParams(**timing), **top
        )
        factory = make_mp_spec if multiprogram else make_spec
        tree = _freeze(system)
        specs = [
            factory(system=given, trace_overrides=overrides, config_params=params)
            for given in (system, tree, tree)
        ]
        for spec in specs:
            assert spec.content_hash() == _defined_digest(spec)
        assert specs[0].content_hash() == specs[1].content_hash()

    def test_pickled_spec_hashes_as_a_fresh_one_under_another_hash_seed(self, tmp_path):
        # The per-instance hash is salted by the process that computed it,
        # so a spec pickled after hashing (as a pool worker's result or a
        # later process would see it) must hash again where it is loaded.
        pickled = tmp_path / "specs.pickle"

        def run(seed: int, mode: str) -> list:
            env = dict(os.environ, PYTHONHASHSEED=str(seed))
            env["PYTHONPATH"] = str(_SRC_ROOT) + os.pathsep + env.get("PYTHONPATH", "")
            completed = subprocess.run(
                [sys.executable, "-c", _HASH_SEED_CHILD, mode, str(pickled)],
                env=env,
                capture_output=True,
                text=True,
                timeout=120,
                check=True,
            )
            return json.loads(completed.stdout)

        dumped = run(1, "dump")
        loaded = run(2, "load")
        for spec in loaded:
            assert spec["equal"] and spec["found"]
            assert spec["loaded_hash"] == spec["fresh_hash"]
        # The seed does move the hash: a pickled cache would have shown.
        assert [spec["hash"] for spec in dumped] != [spec["fresh_hash"] for spec in loaded]

    @pytest.mark.parametrize(
        ("change", "moves_pair"),
        [
            # multiprogram specs cap per core, not through max_accesses
            (lambda runner: setattr(runner, "max_accesses", 301), False),
            (lambda runner: setattr(runner, "warmup_fraction", 0.5), True),
            (lambda runner: runner.trace_overrides.update(length=1001), True),
            (lambda runner: setattr(runner, "system", SystemConfig.scaled(2.0)), True),
            (lambda runner: setattr(runner.system, "bloom_window", 99), True),
        ],
    )
    def test_changing_a_runner_field_gives_a_different_spec(self, change, moves_pair):
        runner = ExperimentRunner(trace_overrides={"length": 1000}, max_accesses=300)
        before = runner.spec_for("xalan", "triage")
        pair_before = runner.multiprogram_spec_for(["xalan", "mcf"], "triangel")
        change(runner)
        after = runner.spec_for("xalan", "triage")
        assert after != before
        assert after.content_hash() != before.content_hash()
        pair_after = runner.multiprogram_spec_for(["xalan", "mcf"], "triangel")
        assert (pair_after != pair_before) is moves_pair


class TestParameterisedSpecs:
    def test_config_params_change_the_hash(self):
        base = make_spec(configuration="triage-lru", config_params={"max_entries": 512})
        other = make_spec(configuration="triage-lru", config_params={"max_entries": 1024})
        assert base.content_hash() != other.content_hash()

    def test_replacement_variants_hash_to_distinct_specs(self):
        """Acceptance: differently-capped study variants can never collide."""

        hashes = {
            make_spec(
                configuration=f"triage-{policy}",
                config_params={"max_entries": cap},
            ).content_hash()
            for policy in ("lru", "srrip", "hawkeye")
            for cap in (256, 768, 1024, None)
        }
        assert len(hashes) == 12

    def test_params_distinct_from_no_params(self):
        plain = make_spec(configuration="triage-lru")
        capped = make_spec(configuration="triage-lru", config_params={"max_entries": 1024})
        assert plain.content_hash() != capped.content_hash()

    def test_execute_rebuilds_parameterised_stack_from_spec(self):
        spec = make_spec(
            configuration="triage-hawkeye",
            config_params={"max_entries": 64},
            max_accesses=200,
            warmup_fraction=0.0,
        )
        stats = execute_spec(spec)
        assert stats.configuration == "triage-hawkeye"
        assert stats.accesses == 200

    def test_config_params_round_trip_in_as_dict(self):
        spec = make_spec(config_params={"max_entries": 64})
        payload = json.loads(json.dumps(spec.as_dict()))
        assert payload["config_params"] == {"max_entries": 64}


class TestMultiProgramSpec:
    def test_identical_specs_are_equal_and_hash_equal(self):
        # Built from distinct but equal system trees.
        first, second = make_mp_spec(), make_mp_spec()
        assert first.system is not second.system
        assert first == second
        assert hash(first) == hash(first) == hash(second)
        assert {first: "cell"}[second] == "cell"
        assert first.content_hash() == second.content_hash()

    @pytest.mark.parametrize(
        "change",
        [
            {"workloads": ("omnet", "xalan")},  # core order matters
            {"workloads": ("xalan", "mcf")},
            {"configuration": "triangel"},
            {"max_accesses_per_core": 201},
            {"max_accesses_per_core": None},
            {"warmup_fraction": 0.3},
            {"share_metadata": False},
        ],
    )
    def test_any_field_change_misses(self, change):
        assert make_mp_spec().content_hash() != make_mp_spec(**change).content_hash()

    def test_kind_discriminator_separates_spec_types(self):
        assert make_spec().as_dict()["kind"] == "run"
        assert make_mp_spec().as_dict()["kind"] == "multiprogram"

    def test_as_dict_is_json_serialisable(self):
        payload = json.loads(json.dumps(make_mp_spec().as_dict()))
        assert payload["workloads"] == ["xalan", "omnet"]
        assert payload["share_metadata"] is True

    def test_execute_runs_from_spec_alone(self):
        result = execute_multiprogram_spec(make_mp_spec())
        assert len(result.core_results) == 2
        assert all(core.stats.accesses == 200 for core in result.core_results)
        assert result.core_results[0].stats.workload == "xalan"
        assert result.core_results[1].stats.workload == "omnet"

    def test_execute_dispatches_on_spec_kind(self):
        assert isinstance(execute(make_mp_spec()), MultiProgramResult)
        assert isinstance(
            execute(make_spec(max_accesses=100, warmup_fraction=0.0)), SimulationStats
        )

    def test_unknown_configuration_rejected_by_runner(self):
        runner = ExperimentRunner()
        with pytest.raises(ValueError):
            runner.multiprogram_spec_for(("xalan", "omnet"), "voyager")


class TestMultiProgramConfigParams:
    """config_params folded into MultiProgramSpec (the former ROADMAP gap)."""

    def test_params_change_the_hash(self):
        base = make_mp_spec(
            configuration="triage-lru", config_params={"max_entries": 512}
        )
        other = make_mp_spec(
            configuration="triage-lru", config_params={"max_entries": 1024}
        )
        plain = make_mp_spec(configuration="triage-lru")
        hashes = {spec.content_hash() for spec in (base, other, plain)}
        assert len(hashes) == 3

    def test_hash_disjoint_from_equally_parameterised_run_specs(self):
        """The kind discriminator keeps the two spec spaces disjoint even
        when every shared field (configuration, params, system) agrees."""

        multi = make_mp_spec(
            workloads=("xalan",),
            configuration="triage-lru",
            config_params={"max_entries": 512},
        )
        single = make_spec(
            workload="xalan",
            configuration="triage-lru",
            config_params={"max_entries": 512},
            trace_overrides={"length": 1000},
            warmup_fraction=0.2,
            max_accesses=None,
        )
        assert multi.content_hash() != single.content_hash()

    def test_params_round_trip_in_as_dict(self):
        spec = make_mp_spec(config_params={"max_entries": 64})
        payload = json.loads(json.dumps(spec.as_dict()))
        assert payload["config_params"] == {"max_entries": 64}
        assert spec.config_params_dict() == {"max_entries": 64}

    def test_execute_rebuilds_parameterised_stacks_on_every_core(self):
        spec = make_mp_spec(
            configuration="triage-srrip",
            config_params={"max_entries": 64},
            max_accesses_per_core=150,
        )
        result = execute_multiprogram_spec(spec)
        assert len(result.core_results) == 2
        assert all(
            core.stats.configuration == "triage-srrip"
            for core in result.core_results
        )

    def test_capped_and_default_multiprogram_results_differ_in_store(self, tmp_path):
        store = ResultStore(tmp_path)
        capped = make_mp_spec(
            configuration="triage-lru", config_params={"max_entries": 16}
        )
        plain = make_mp_spec(configuration="triage-lru")
        store.put(capped, execute_multiprogram_spec(capped))
        assert store.get(plain) is None  # disjoint keys: no cross-replay
        assert store.get(capped) is not None


class TestResultStore:
    def test_round_trip_preserves_every_counter(self, tmp_path):
        spec = make_spec()
        stats = execute_spec(spec)
        ResultStore(tmp_path).put(spec, stats)
        # A fresh instance re-reads from disk (a fresh process, in effect).
        loaded = ResultStore(tmp_path).get(spec)
        assert loaded == stats
        assert loaded is not stats

    def test_get_returns_same_object_within_process(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = make_spec()
        stats = SimulationStats(workload="xalan", accesses=5)
        store.put(spec, stats)
        assert store.get(spec) is store.get(spec)

    def test_miss_and_hit_counters(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = make_spec()
        assert store.get(spec) is None
        store.put(spec, SimulationStats(accesses=1))
        store.get(spec)
        info = store.stats()
        assert (info.hits, info.misses, info.puts, info.entries) == (1, 1, 1, 1)

    def test_invalidate_and_clear(self, tmp_path):
        store = ResultStore(tmp_path)
        spec, other = make_spec(), make_spec(workload="mcf")
        store.put(spec, SimulationStats(accesses=1))
        store.put(other, SimulationStats(accesses=2))
        assert store.invalidate(spec)
        assert not store.invalidate(spec)
        # Tombstones survive a reload.
        reloaded = ResultStore(tmp_path)
        assert spec not in reloaded and other in reloaded
        assert reloaded.clear() == 1
        assert len(ResultStore(tmp_path)) == 0

    def test_unwritable_directory_degrades_to_memory(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        store = ResultStore(blocker / "cache")  # mkdir will fail: parent is a file
        spec = make_spec()
        with pytest.warns(RuntimeWarning, match="not writable") as caught:
            store.put(spec, SimulationStats(accesses=4))  # must not raise
            store.put(make_spec(max_accesses=400), SimulationStats(accesses=5))
        warned = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert len(warned) == 1  # once per store instance, naming the directory
        assert str(blocker / "cache") in str(warned[0].message)
        assert store.write_errors == 2
        assert store_stats_payload(store)["write_errors"] == 2
        assert store.get(spec).accesses == 4  # in-memory index still works
        assert ResultStore(blocker / "cache").get(spec) is None  # nothing on disk

    def test_stale_code_version_records_are_skipped_on_load(self, tmp_path, monkeypatch):
        from repro.experiments import jobs

        store = ResultStore(tmp_path)
        store.put(make_spec(), SimulationStats(accesses=7))
        assert len(ResultStore(tmp_path)) == 1
        monkeypatch.setattr(jobs, "_code_version_cache", "other-code-version")
        # A fresh load under a new code version prunes the unreachable record.
        assert len(ResultStore(tmp_path)) == 0

    def test_corrupt_lines_are_skipped(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = make_spec()
        store.put(spec, SimulationStats(accesses=9))
        with store.results_path.open("a") as handle:
            handle.write("{not json\n")
        assert ResultStore(tmp_path).get(spec).accesses == 9

    def test_multiprogram_round_trip_preserves_per_core_results(self, tmp_path):
        """Acceptance: MultiProgramResult payloads survive a fresh process."""

        spec = make_mp_spec()
        result = execute_multiprogram_spec(spec)
        ResultStore(tmp_path).put(spec, result)
        loaded = ResultStore(tmp_path).get(spec)  # fresh instance: reads disk
        assert isinstance(loaded, MultiProgramResult)
        assert [core.stats for core in loaded.core_results] == [
            core.stats for core in result.core_results
        ]
        assert [core.prefetcher_stats for core in loaded.core_results] == [
            core.prefetcher_stats for core in result.core_results
        ]

    def test_multiprogram_get_returns_same_object_within_process(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = make_mp_spec()
        store.put(spec, execute_multiprogram_spec(spec))
        assert store.get(spec) is store.get(spec)

    def test_kind_summary_and_records(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(make_spec(), SimulationStats(accesses=1))
        store.put(
            make_spec(configuration="triage-lru", config_params={"max_entries": 64}),
            SimulationStats(accesses=2),
        )
        mp_spec = make_mp_spec(max_accesses_per_core=50)
        store.put(mp_spec, execute_multiprogram_spec(mp_spec))
        # A fresh instance rebuilds the same summary from disk.
        for instance in (store, ResultStore(tmp_path)):
            assert instance.kind_summary() == {
                "run": 1,
                "parameterised run": 1,
                "multiprogram": 1,
            }
        records = ResultStore(tmp_path).records()
        assert sorted(meta["kind"] for meta in records) == [
            "multiprogram",
            "parameterised run",
            "run",
        ]
        labels = {meta["kind"]: meta["label"] for meta in records}
        assert labels["run"] is None
        assert labels["parameterised run"] == "xalan × triage-lru [max_entries=64]"
        assert labels["multiprogram"] == "xalan + omnet × triage"

    def test_clear_caches_clears_persistent_default_store(self):
        spec = make_spec()
        default_store().put(spec, SimulationStats(accesses=3))
        assert default_store().results_path.exists()
        clear_caches()
        assert len(default_store()) == 0
        assert not default_store().results_path.exists()

    def test_runner_persists_into_default_store(self):
        clear_caches()
        runner = ExperimentRunner(
            max_accesses=400, trace_overrides={"length": 800}, warmup_fraction=0.2
        )
        runner.run("xalan", "baseline")
        store = default_store()
        assert len(store) == 1
        assert runner.spec_for("xalan", "baseline") in store
