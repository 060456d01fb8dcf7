"""Tests for the design-space search layer (:mod:`repro.experiments.explore`).

Three groups:

* property-based tests (hypothesis) on the pure planner — budgets are
  never exceeded, identical seeds reproduce identical candidate
  sequences, Pareto membership is order-invariant;
* resumability — a search killed mid-batch resumes from the store,
  executing only what the killed run did not store, and a second resume
  executes nothing and rewrites a byte-identical front;
* the ``repro explore`` CLI wiring, including the refusal of manifests
  and requests that name a strategy this build does not have.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.experiments import jobs
from repro.experiments.explore import (
    DEFAULT_CONFIGURATIONS,
    STRATEGIES,
    Candidate,
    Evaluation,
    SearchSpace,
    candidate_order,
    overridden_space,
    pareto_front,
    plan_search,
    resume_search,
    run_search,
)
from repro.experiments.store import ResultStore

counts = st.integers(min_value=1, max_value=160)
budgets = st.one_of(st.none(), st.integers(min_value=1, max_value=400))
seeds = st.integers(min_value=0, max_value=2**32 - 1)
strategies = st.sampled_from(STRATEGIES)


# ---------------------------------------------------------------------------
# The pure planner
# ---------------------------------------------------------------------------
class TestPlanProperties:
    @given(count=counts, budget=budgets, seed=seeds, strategy=strategies)
    @settings(max_examples=120, deadline=None)
    def test_budget_never_exceeded(self, count, budget, seed, strategy):
        plan = plan_search(count, strategy, budget=budget, seed=seed)
        if budget is not None:
            assert len(plan.selected) <= budget
        assert len(plan.selected) + plan.dropped == count
        # The selection is a subset of the space, each candidate at most once.
        assert len(set(plan.selected)) == len(plan.selected)
        assert all(0 <= index < count for index in plan.selected)

    @given(count=counts, budget=budgets, seed=seeds, strategy=strategies)
    @settings(max_examples=120, deadline=None)
    def test_identical_seeds_reproduce_identical_sequences(
        self, count, budget, seed, strategy
    ):
        first = plan_search(count, strategy, budget=budget, seed=seed)
        second = plan_search(count, strategy, budget=budget, seed=seed)
        assert first == second
        assert candidate_order(count, strategy, seed) == candidate_order(
            count, strategy, seed
        )

    @given(count=counts, budget=budgets, seed=seeds)
    @settings(max_examples=60, deadline=None)
    def test_grid_keeps_declaration_order(self, count, budget, seed):
        plan = plan_search(count, "grid", budget=budget, seed=seed)
        assert list(plan.selected) == list(range(len(plan.selected)))

    def test_degenerate_budget_still_evaluates_one_candidate(self):
        for strategy in STRATEGIES:
            plan = plan_search(40, strategy, budget=1)
            assert len(plan.selected) == 1
            assert plan.dropped == 39

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            plan_search(4, "anneal")
        with pytest.raises(ValueError, match="no candidates"):
            plan_search(0, "grid")
        with pytest.raises(ValueError, match="--budget"):
            plan_search(4, "grid", budget=0)
        with pytest.raises(ValueError, match="unknown strategy"):
            plan_search(4, "halving")


metric_triples = st.tuples(
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=0, max_value=6),
)


def _evaluation(index: int, triple) -> Evaluation:
    coverage, accuracy, metadata = triple
    metrics = {
        "coverage": float(coverage),
        "accuracy": float(accuracy),
        "speedup": 1.0,
        "metadata_traffic": float(metadata),
    }
    return Evaluation(
        candidate=Candidate(configuration=f"cfg{index}"),
        score=metrics["coverage"],
        metrics=metrics,
    )


class TestParetoProperties:
    @given(
        triples=st.lists(metric_triples, min_size=1, max_size=12),
        seed=st.integers(min_value=0, max_value=999),
    )
    @settings(max_examples=120, deadline=None)
    def test_membership_invariant_to_evaluation_order(self, triples, seed):
        import random

        evaluations = [_evaluation(i, triple) for i, triple in enumerate(triples)]
        shuffled = list(evaluations)
        random.Random(seed).shuffle(shuffled)
        original = [e.candidate.label() for e in pareto_front(evaluations)]
        permuted = [e.candidate.label() for e in pareto_front(shuffled)]
        assert original == permuted

    @given(triples=st.lists(metric_triples, min_size=1, max_size=10))
    @settings(max_examples=80, deadline=None)
    def test_front_members_are_non_dominated(self, triples):
        evaluations = [_evaluation(i, triple) for i, triple in enumerate(triples)]
        front = pareto_front(evaluations)
        assert front  # a non-empty set always has a non-dominated point
        labels = {e.candidate.label() for e in front}
        for evaluation in evaluations:
            dominated = any(
                other.metrics["coverage"] >= evaluation.metrics["coverage"]
                and other.metrics["accuracy"] >= evaluation.metrics["accuracy"]
                and other.metrics["metadata_traffic"]
                <= evaluation.metrics["metadata_traffic"]
                and other.metrics != evaluation.metrics
                for other in evaluations
            )
            if not dominated:
                assert evaluation.candidate.label() in labels


# ---------------------------------------------------------------------------
# The space
# ---------------------------------------------------------------------------
class TestSearchSpace:
    def test_candidates_cross_only_applicable_parameters(self):
        space = SearchSpace.create(
            workloads=("xalan",),
            configurations=("triangel", "triage-lru"),
            param_grid={"max_entries": (64, 128)},
        )
        labels = [candidate.label() for candidate in space.candidates()]
        # The plain configuration enumerates once; the parameterised one per
        # grid value; identical calls enumerate identically.
        assert labels == [
            "triangel",
            "triage-lru[max_entries=64]",
            "triage-lru[max_entries=128]",
        ]
        assert labels == [candidate.label() for candidate in space.candidates()]

    def test_scales_multiply_the_space(self):
        space = SearchSpace.create(
            workloads=("xalan",), configurations=("triangel",), scales=(0.5, 1.0)
        )
        assert [c.label() for c in space.candidates()] == [
            "triangel @scale=0.5",
            "triangel",
        ]

    def test_validation_matches_study_overrides(self):
        with pytest.raises(ValueError, match="unknown workload"):
            SearchSpace.create(workloads=("nope",), configurations=("triangel",))
        with pytest.raises(ValueError, match="unknown configuration"):
            SearchSpace.create(workloads=("xalan",), configurations=("nope",))
        with pytest.raises(ValueError, match="unknown baseline"):
            SearchSpace.create(
                workloads=("xalan",), configurations=("triangel",), baseline="nope"
            )
        with pytest.raises(ValueError, match="match neither"):
            SearchSpace.create(
                workloads=("xalan",),
                configurations=("triangel",),
                param_grid={"bogus": (1,)},
            )
        with pytest.raises(ValueError, match="no values"):
            SearchSpace.create(
                workloads=("xalan",),
                configurations=("triage-lru",),
                param_grid={"max_entries": ()},
            )

    def test_overridden_space_parses_comma_lists(self):
        space = overridden_space(
            assignments={"max_entries": "64,4096", "scale": "0.5,1.0"}
        )
        assert space.configurations == DEFAULT_CONFIGURATIONS
        assert space.param_grid_dict() == {"max_entries": (64, 4096)}
        assert space.scales == (0.5, 1.0)

    def test_overridden_space_round_trips_through_manifest_form(self):
        space = overridden_space(assignments={"max_entries": "64,4096"})
        assert SearchSpace.from_dict(space.as_dict()) == space


# ---------------------------------------------------------------------------
# Resumability: kill mid-batch, resume executing only the rest
# ---------------------------------------------------------------------------
class TestResume:
    def test_killed_search_resumes_with_zero_reexecution(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path / "traces"))
        space = SearchSpace.create(
            workloads=("xalan",),
            configurations=("triage-lru", "triage-srrip"),
            param_grid={"max_entries": (64, 4096)},
        )
        directory = tmp_path / "search"
        store_dir = tmp_path / "store"
        options = dict(objective="metadata_traffic", trace_overrides={"length": 1600})
        # 4 candidates + 1 baseline, all on the full trace.
        total = 5

        # Kill the search mid-batch: the scheduler looks ``execute`` up
        # through the module on every call, so its third call dies.
        real_execute = jobs.execute
        calls = {"count": 0}

        def dying_execute(spec):
            calls["count"] += 1
            if calls["count"] == 3:
                raise RuntimeError("killed mid-batch")
            return real_execute(spec)

        monkeypatch.setattr(jobs, "execute", dying_execute)
        interrupted_store = ResultStore(store_dir)
        with pytest.raises(RuntimeError, match="killed mid-batch"):
            run_search(
                space,
                strategy="grid",
                directory=directory,
                store=interrupted_store,
                **options,
            )
        monkeypatch.setattr(jobs, "execute", real_execute)
        stored = interrupted_store.puts
        assert 0 < stored < total
        assert (directory / "search.json").exists()
        assert not (directory / "front.json").exists()

        # Resume re-runs the same plan: everything the killed run stored
        # replays, and only the rest executes.
        resumed_store = ResultStore(store_dir)
        result = resume_search(directory, store=resumed_store)
        assert resumed_store.hits == stored
        assert resumed_store.puts == total - stored
        assert result.store_replayed == stored
        assert result.store_executed == total - stored
        front_bytes = (directory / "front.json").read_bytes()

        # A second resume re-executes nothing, byte-identically.
        warm_store = ResultStore(store_dir)
        warm = resume_search(directory, store=warm_store)
        assert warm_store.misses == 0
        assert warm_store.puts == 0
        assert warm.store_executed == 0
        assert warm.store_replayed == total
        assert (directory / "front.json").read_bytes() == front_bytes

    def test_resume_without_manifest_fails_cleanly(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="no search manifest"):
            resume_search(tmp_path / "nowhere")

    def test_earlier_grid_manifest_still_resumes(self, tmp_path, monkeypatch):
        """A manifest from a build with screen tuning keys resumes; the
        keys are ignored, since no strategy reads them."""

        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path / "traces"))
        space = SearchSpace.create(
            workloads=("xalan",),
            configurations=("triage-lru",),
            param_grid={"max_entries": (64, 4096)},
        )
        directory = tmp_path / "search"
        directory.mkdir()
        (directory / "search.json").write_text(
            json.dumps(_earlier_manifest(space, "grid"), indent=2, sort_keys=True)
        )
        store_dir = tmp_path / "store"
        result = resume_search(directory, store=ResultStore(store_dir))
        assert result.strategy == "grid"
        assert len(result.evaluations) == 2
        assert "eta" not in json.loads((directory / "search.json").read_text())
        # The rewritten manifest names the identical search.
        fresh = run_search(
            space,
            directory=tmp_path / "fresh",
            store=ResultStore(store_dir),
            trace_overrides={"length": 1200},
        )
        assert fresh.store_executed == 0
        assert fresh.front_payload() == result.front_payload()

    def test_log_records_provenance(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path / "traces"))
        space = SearchSpace.create(
            workloads=("xalan",),
            configurations=("triage-lru",),
            param_grid={"max_entries": (64, 4096)},
        )
        result = run_search(
            space,
            strategy="random",
            seed=7,
            directory=tmp_path / "search",
            store=ResultStore(tmp_path / "store"),
            trace_overrides={"length": 1200},
        )
        records = [
            json.loads(line)
            for line in (tmp_path / "search" / "log.jsonl").read_text().splitlines()
        ]
        assert len(records) == len(result.evaluations) == 2
        for record in records:
            assert record["strategy"] == "random"
            assert record["seed"] == 7
            assert "score" in record and "spec_digests" in record


def _earlier_manifest(space: SearchSpace, strategy: str) -> dict:
    """A ``search.json`` as a build with successive halving wrote it."""

    return {
        "kind": "repro-explore",
        "version": 1,
        "space": space.as_dict(),
        "strategy": strategy,
        "budget": None,
        "seed": 0,
        "objective": "coverage",
        "eta": 2,
        "confirm": 3,
        "screen_accesses": 2000,
        "warmup_fraction": 0.4,
        "trace_overrides": {"length": 1200},
    }


# ---------------------------------------------------------------------------
# The CLI wiring
# ---------------------------------------------------------------------------
class TestExploreCli:
    def test_describe_compiles_without_simulating(self, capsys):
        assert main(["explore", "describe", "--set", "max_entries=64,4096"]) == 0
        output = capsys.readouterr().out
        assert "candidate(s)" in output
        assert "strategy:    grid" in output

    def test_run_then_resume_replays_everything(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path / "traces"))
        base = [
            "--dir", str(tmp_path / "search"),
            "--cache-dir", str(tmp_path / "store"),
        ]
        code = main(
            [
                "explore", "run",
                "--strategy", "random",
                "--configs", "triage-lru",
                "--set", "max_entries=64,4096",
                "--budget", "6",
                "--trace-length", "1200",
                *base,
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "Pareto front" in output
        assert "0 replayed from store" in output
        assert main(["explore", "resume", *base]) == 0
        resumed = capsys.readouterr().out
        assert ", 0 executed" in resumed
        assert "Pareto front" in resumed

    def test_unknown_configuration_exits_2(self, capsys):
        assert main(["explore", "describe", "--configs", "nope"]) == 2
        assert "unknown configuration" in capsys.readouterr().err

    def test_stranded_parameter_exits_2(self, capsys):
        assert main(["explore", "describe", "--set", "bogus=1"]) == 2
        assert "match neither" in capsys.readouterr().err

    def test_budget_of_zero_exits_2(self, capsys):
        assert main(["explore", "describe", "--budget", "0"]) == 2
        assert "--budget" in capsys.readouterr().err

    def test_unknown_strategy_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            main(["explore", "run", "--strategy", "anneal"])

    def test_resuming_a_halving_search_exits_2_in_one_line(self, tmp_path, capsys):
        """Successive halving is gone: its manifests are refused, untouched."""

        directory = tmp_path / "search"
        directory.mkdir()
        manifest = directory / "search.json"
        space = SearchSpace.create(workloads=("xalan",), configurations=("triage-lru",))
        manifest.write_text(json.dumps(_earlier_manifest(space, "halving")))
        before = manifest.read_bytes()
        code = main(
            ["explore", "resume", "--dir", str(directory),
             "--cache-dir", str(tmp_path / "store")]
        )
        assert code == 2
        error = capsys.readouterr().err
        assert "unknown strategy 'halving'" in error
        assert len(error.strip().splitlines()) == 1
        assert manifest.read_bytes() == before
        assert sorted(path.name for path in directory.iterdir()) == ["search.json"]
