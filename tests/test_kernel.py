"""Kernel parity matrix: the fast kernel must be bit-identical everywhere.

The fast kernel (`repro.sim.kernel`) runs every simulation, so its one
obligation is total: for **every** registered configuration — plain,
parameterised and multiprogrammed — it must produce exactly the statistics
the readable reference engine (`Simulator.run` / `Simulator.step`)
produces, counter for counter.  The execution layer looks `run_fast` and
`step_fast` up in `repro.sim.kernel` at call time, so these tests reach the
reference by substituting it there: one spec construction and one
interleaving feed both kernels.  The stream/buffer building blocks the
kernel runs on are tested here too.
"""

from __future__ import annotations

import signal
from contextlib import contextmanager
from dataclasses import asdict, replace

import pytest

from repro.experiments.configs import CONFIGS, MULTIPROGRAM_SERIES, build_prefetchers
from repro.experiments.jobs import (
    RunSpec,
    execute_multiprogram_spec,
    execute_spec,
)
from repro.experiments.runner import ExperimentRunner
from repro.experiments.store import ResultStore
from repro.memory.hierarchy import DemandResult
from repro.memory.request import MemoryAccess
from repro.prefetch.base import DecisionBuffer
from repro.sim import kernel as kernel_module
from repro.sim.config import SystemConfig
from repro.sim.engine import Simulator
from repro.sim.kernel import run_fast
from repro.sim.stream import access_columns, expand_write_bitset, pack_columns
from repro.sim.timing import TimingModel
from repro.traces.format import PackedTrace, pack_trace
from repro.workloads.registry import generate_workload
from repro.workloads.trace import Trace


#: Every name make_replacement_policy() accepts.
POLICY_NAMES = ("lru", "fifo", "random", "plru", "srrip", "brrip", "hawkeye")

#: The two kernels, both called as ``run(simulator, trace, **options)``.
KERNELS = {"reference": Simulator.run, "fast": run_fast}


@contextmanager
def time_limit(seconds: float):
    """Raise ``TimeoutError`` in the enclosed block after ``seconds``.

    Uses ``SIGALRM``, so a pure-Python loop that never returns fails the
    test instead of hanging the suite (main thread only).
    """

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def reference_step(simulator, pc, address, is_write, stats, scratch) -> None:
    """``Simulator.step`` in ``step_fast``'s calling convention."""

    simulator.step(MemoryAccess(pc, address, is_write), stats)


@contextmanager
def reference_kernel():
    """Run ``execute_spec`` and multiprogram runs on the reference engine."""

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernel_module, "run_fast", Simulator.run)
        patch.setattr(kernel_module, "step_fast", reference_step)
        yield


def quick_runner(**overrides) -> ExperimentRunner:
    defaults = dict(
        max_accesses=500,
        trace_overrides={"length": 1100},
        warmup_fraction=0.3,
        use_cache=False,
    )
    defaults.update(overrides)
    return ExperimentRunner(**defaults)


def both_kernels(spec: RunSpec):
    """(reference, fast) statistics for one spec, computed without a store."""

    with reference_kernel():
        reference = execute_spec(spec)
    return reference, execute_spec(spec)


def assert_pair_parity(spec) -> None:
    """The reference and fast multiprogram runs of one spec are identical."""

    with reference_kernel():
        reference = execute_multiprogram_spec(spec)
    assert reference.as_payload() == execute_multiprogram_spec(spec).as_payload()


def prefetcher_counters(simulator: Simulator) -> dict:
    return {p.name: asdict(p.stats) for p in simulator.prefetchers}


def build_simulator(configuration: str, system: SystemConfig | None = None) -> Simulator:
    system = system or SystemConfig.scaled()
    return Simulator(
        system.build_hierarchy(),
        build_prefetchers(configuration, system),
        timing=TimingModel(system.timing),
        config=system,
        configuration_name=configuration,
    )


class TestParityMatrix:
    """Fast vs reference across every registered configuration."""

    @pytest.mark.parametrize("configuration", CONFIGS.names())
    def test_every_configuration_bit_identical(self, configuration):
        runner = quick_runner()
        params = {"max_entries": 192} if CONFIGS.takes_params(configuration) else None
        spec = runner.spec_for("xalan", configuration, params)
        reference, fast = both_kernels(spec)
        assert asdict(reference) == asdict(fast)

    @pytest.mark.parametrize("workload", ["xalan", "graph500_s16"])
    @pytest.mark.parametrize("configuration", ["triangel", "triage", "baseline"])
    def test_batched_counters_flush_identically(self, configuration, workload):
        """The accumulator-batched shared counters land exactly where the
        reference engine's per-access bookkeeping leaves them.

        The fast kernels batch ``hstats.demand_accesses``,
        ``hstats.late_prefetch_stall_cycles``, the timing clock, the L1's
        access counters and the DRAM event counters into locals/slots
        flushed at phase boundaries; this asserts the *flushed shared
        objects themselves* — not just the derived SimulationStats — are
        bit-identical after a run, on both a prefetch-heavy and a
        write-bearing stream."""

        sizing = (
            {"max_accesses": 1500} if workload.startswith("graph500")
            else {"length": 1500}
        )
        trace = generate_workload(workload, **sizing)
        snapshots = {}
        for name, run in KERNELS.items():
            simulator = build_simulator(configuration)
            run(simulator, trace, warmup_accesses=400)
            hierarchy = simulator.hierarchy
            snapshots[name] = (
                hierarchy.stats.demand_accesses,
                hierarchy.stats.late_prefetch_stall_cycles,
                asdict(hierarchy.dram.stats),
                asdict(hierarchy.l1d.stats),
                simulator.timing.cycles,
                simulator.timing.accesses,
            )
        assert snapshots["reference"] == snapshots["fast"]

    @pytest.mark.parametrize("max_entries", [None, 96])
    def test_parameterised_variants(self, max_entries):
        runner = quick_runner()
        spec = runner.spec_for("xalan", "triage-srrip", {"max_entries": max_entries})
        reference, fast = both_kernels(spec)
        assert asdict(reference) == asdict(fast)

    @pytest.mark.parametrize(
        "workload",
        ["graph500_s16", "pointer_chase", "random", "sequential"],
    )
    def test_other_workload_shapes(self, workload):
        """Write-bearing (graph500) and degenerate streams replay identically."""

        runner = ExperimentRunner(max_accesses=500, use_cache=False)
        spec = runner.spec_for(workload, "triangel")
        reference, fast = both_kernels(spec)
        assert asdict(reference) == asdict(fast)

    def test_prefetcher_counters_identical(self):
        system = SystemConfig.scaled()
        trace = generate_workload("xalan", length=1500)
        results = {}
        counters = {}
        for name, run in KERNELS.items():
            simulator = build_simulator("triangel", system)
            results[name] = run(simulator, trace, warmup_accesses=400)
            counters[name] = prefetcher_counters(simulator)
        assert asdict(results["reference"].stats) == asdict(results["fast"].stats)
        assert counters["reference"] == counters["fast"]

    def test_packed_trace_input(self, tmp_path):
        """The kernel's native input — packed columns — matches objects."""

        packed = pack_trace(generate_workload("mcf", length=1400))
        assert isinstance(packed, PackedTrace)
        stats = {}
        for name, run in KERNELS.items():
            simulator = build_simulator("triage")
            stats[name] = run(simulator, packed, warmup_accesses=300).stats
        assert asdict(stats["reference"]) == asdict(stats["fast"])


class TestParityMultiprogram:
    @staticmethod
    def pair_spec(configuration: str, share_metadata: bool = True):
        runner = ExperimentRunner(trace_overrides={"length": 900}, use_cache=False)
        return runner.multiprogram_spec_for(
            ["xalan", "omnet"],
            configuration,
            max_accesses_per_core=400,
            share_metadata=share_metadata,
        )

    @pytest.mark.parametrize("share_metadata", [True, False])
    def test_multiprogram_pair(self, share_metadata):
        """Triangel, with shared and with core-private metadata."""

        assert_pair_parity(self.pair_spec("triangel", share_metadata))

    @pytest.mark.parametrize(
        "configuration",
        [name for name in ("baseline", *MULTIPROGRAM_SERIES) if name != "triangel"],
    )
    def test_figure_16_series(self, configuration):
        """Figure 16's other series and its baseline, with shared metadata."""

        assert_pair_parity(self.pair_spec(configuration))

    def test_multiprogram_parameterised(self):
        runner = ExperimentRunner(trace_overrides={"length": 800}, use_cache=False)
        spec = runner.multiprogram_spec_for(
            ["mcf", "gcc_166"],
            "triage-lru",
            max_accesses_per_core=300,
            config_params={"max_entries": 128},
        )
        assert_pair_parity(spec)


class TestParityEdges:
    """The loop-shape edges: warm-up boundaries and access caps."""

    def make_trace(self):
        return generate_workload("xalan", length=600)

    @pytest.mark.parametrize(
        ("warmup", "cap"),
        [
            (0, None),
            (0, 0),
            (200, 100),
            (600, None),
            (599, None),
            (0, 10**9),
            (700, None),
            (200, 10**9),
            (200, 400),
        ],
    )
    def test_warmup_and_cap_edges(self, warmup, cap):
        trace = self.make_trace()
        stats = {}
        for name, run in KERNELS.items():
            simulator = build_simulator("triangel")
            stats[name] = run(
                simulator,
                trace,
                max_accesses=cap,
                warmup_accesses=warmup,
                workload_name="xalan",
            ).stats
        assert asdict(stats["reference"]) == asdict(stats["fast"])
        if cap == 0 or warmup >= 600:
            assert stats["fast"].accesses == 0

    def test_empty_trace(self):
        for run in KERNELS.values():
            simulator = build_simulator("baseline")
            result = run(simulator, Trace(name="empty"))
            assert result.stats.accesses == 0

    @pytest.mark.parametrize(
        "scale, line_size, length",
        [(1.0, 128, 800), (1.5, 64, 20_000)],
        ids=["line-size-128", "scaled-1.5"],
    )
    def test_non_default_line_size_geometry(self, scale, line_size, length):
        """Geometries off the power-of-two, 64-byte-line path stay exact.

        The reference path aligns every access through the 64-byte
        ``line_address`` helper even when ``HierarchyParams.line_size``
        differs, so the kernel must too (regression: the kernel once
        derived its mask from the L1's configured line size).
        ``SystemConfig.scaled(1.5)`` gives 24/48/96-set caches, whose
        set/tag decomposition takes the division fallback everywhere; it
        runs long enough for Triangel to issue temporal prefetches.
        """

        from repro.memory.hierarchy import MemoryHierarchy

        trace = generate_workload("xalan", length=length)
        system = SystemConfig.scaled(scale)
        params = replace(system.hierarchy, line_size=line_size)
        stats = {}
        for name, run in KERNELS.items():
            simulator = Simulator(
                MemoryHierarchy(params),
                build_prefetchers("triangel", system),
                timing=TimingModel(system.timing),
                configuration_name="triangel",
            )
            stats[name] = run(simulator, trace, warmup_accesses=length // 4).stats
        assert asdict(stats["reference"]) == asdict(stats["fast"])
        if scale != 1.0:
            assert stats["fast"].temporal_prefetches_issued > 0


class TestWarmStoreAcrossKernels:
    """Bit-identical results mean one store entry serves either kernel."""

    def test_cross_kernel_store_matches_fresh_execution(self, tmp_path):
        """A store warmed by the fast kernel serves the reference's exact output."""

        runner = quick_runner()
        spec = runner.spec_for("xalan", "triangel-bloom")
        reference, fast = both_kernels(spec)
        assert asdict(reference) == asdict(fast)
        store = ResultStore(tmp_path)
        store.put(spec, fast)
        assert asdict(store.get(spec)) == asdict(reference)


class TestKernelSelection:
    """The kernel is a call-time lookup in ``repro.sim.kernel``."""

    def test_reference_substitution_reaches_every_access(self, monkeypatch):
        """Substituting the reference engine sends every access of a spec —
        warm-up and sample, single-core and each core of a pair — through
        ``Simulator.step``; the fast kernel sends none."""

        steps = []
        real_step = Simulator.step

        def counting(simulator, access, stats):
            steps.append(access)
            real_step(simulator, access, stats)

        monkeypatch.setattr(Simulator, "step", counting)
        single = quick_runner().spec_for("xalan", "baseline")
        pair = TestParityMultiprogram.pair_spec("triangel")
        execute_spec(single)
        execute_multiprogram_spec(pair)
        assert steps == []
        with reference_kernel():
            execute_spec(single)
            assert len(steps) == int(1100 * 0.3) + 500
            execute_multiprogram_spec(pair)
        # Two cores, each warmed on 40% of its 400-access cap, then capped.
        assert len(steps) == int(1100 * 0.3) + 500 + 2 * (int(400 * 0.4) + 400)

    def test_store_cache_key_covers_kernel_module(self):
        """The code-version salt must re-key the store when the kernel changes."""

        from pathlib import Path

        import repro
        from repro.experiments.jobs import _SIMULATION_SOURCES

        package_root = Path(repro.__file__).resolve().parent
        covered: set[Path] = set()
        for entry in _SIMULATION_SOURCES:
            path = package_root / entry
            covered.update(path.rglob("*.py") if path.is_dir() else [path])
        assert package_root / "sim" / "kernel.py" in covered
        assert package_root / "sim" / "stream.py" in covered


class TestObservesHitsContract:
    """observes_hits=False must mean a provable no-op on plain hits."""

    def make_l1_hit(self) -> DemandResult:
        return DemandResult(
            level="l1", latency=4.0, line_address=0x1000, l2_miss=False
        )

    @pytest.mark.parametrize("configuration", ["triage", "triangel"])
    def test_declared_prefetchers_ignore_plain_hits(self, configuration):
        system = SystemConfig.scaled()
        hierarchy = system.build_hierarchy()
        prefetchers = build_prefetchers(configuration, system)
        for prefetcher in prefetchers:
            prefetcher.attach(hierarchy)
        skippable = [p for p in prefetchers if not p.observes_hits]
        assert skippable, "temporal prefetchers should declare observes_hits=False"
        for prefetcher in skippable:
            before = asdict(prefetcher.stats)
            assert prefetcher.observe(0x400, 0x1000, self.make_l1_hit(), 0.0) == []
            assert asdict(prefetcher.stats) == before

    def test_stride_still_observes_hits(self):
        system = SystemConfig.scaled()
        (stride,) = build_prefetchers("baseline", system)
        assert stride.observes_hits


class TestDecisionBuffer:
    def test_emit_and_iterate(self):
        buffer = DecisionBuffer()
        buffer.emit(0x100)
        buffer.emit(0x200, "l1", 25.0, "stride")
        assert len(buffer) == 2
        first, second = list(buffer)
        assert (first.address, first.metadata_source) == (0x100, "markov")
        assert (second.address, second.target_level, second.extra_latency) == (
            0x200,
            "l1",
            25.0,
        )

    def test_clear_recycles_slots(self):
        buffer = DecisionBuffer()
        buffer.emit(0x100)
        recycled = buffer.to_list()[0]
        buffer.clear()
        assert len(buffer) == 0
        buffer.emit(0x300)
        assert buffer.to_list()[0] is recycled
        assert recycled.address == 0x300

    def test_to_list_reflects_count_only(self):
        buffer = DecisionBuffer()
        for address in (0x1, 0x2, 0x3):
            buffer.emit(address)
        buffer.clear()
        buffer.emit(0x9)
        assert [d.address for d in buffer.to_list()] == [0x9]


class TestAccessStreamProtocol:
    def test_trace_columns_share_storage(self):
        trace = Trace(name="t")
        trace.append_access(0x400, 0x1000)
        trace.append_access(0x404, 0x2040, True)
        pcs, addresses, writes, length = access_columns(trace)
        assert length == 2
        assert list(pcs) == [0x400, 0x404]
        assert list(addresses) == [0x1000, 0x2040]
        assert [bool(flag) for flag in writes[:2]] == [False, True]
        assert trace.access_columns().pcs is pcs  # no copy per call

    def test_packed_trace_columns_native(self):
        packed = pack_trace(generate_workload("graph500_s16", max_accesses=500))
        columns = packed.access_columns()
        assert columns.length == len(packed)
        assert packed.access_columns().writes is columns.writes  # memoised
        for index in (0, 7, len(packed) - 1):
            assert columns.pcs[index] == packed[index].pc
            assert columns.addresses[index] == packed[index].address
            assert bool(columns.writes[index]) == packed[index].is_write

    def test_plain_iterable_fallback(self):
        from repro.memory.request import MemoryAccess

        accesses = [MemoryAccess(0x1, 0x40), MemoryAccess(0x2, 0x80, True)]
        columns = access_columns(accesses)
        assert columns.length == 2
        assert list(columns.addresses) == [0x40, 0x80]
        assert bool(columns.writes[1])

    def test_expand_write_bitset(self):
        flags = [True, False, False, True, True, False, False, False, True, True]
        bits = bytearray(2)
        for index, flag in enumerate(flags):
            if flag:
                bits[index >> 3] |= 1 << (index & 7)
        expanded = expand_write_bitset(bytes(bits), len(flags))
        assert [bool(b) for b in expanded] == flags
        assert expand_write_bitset(b"", 0) == bytearray()

    def test_pack_columns_roundtrip(self):
        trace = generate_workload("graph500_s16", max_accesses=300)
        packed = pack_columns(iter(trace))
        native = access_columns(trace)
        assert list(packed.pcs) == list(native.pcs)
        assert list(packed.addresses) == list(native.addresses)
        assert [bool(b) for b in packed.writes] == [
            bool(native.writes[i]) for i in range(native.length)
        ]

    def test_object_facade_stays_in_sync(self):
        from repro.memory.request import MemoryAccess

        trace = Trace(name="sync")
        trace.append_access(0x1, 0x40)
        assert trace.accesses == [MemoryAccess(0x1, 0x40, False)]
        trace.append(MemoryAccess(0x2, 0x80, True))
        assert trace[1] == MemoryAccess(0x2, 0x80, True)
        trace.append_access(0x3, 0xC0)
        assert [a.pc for a in trace.accesses] == [0x1, 0x2, 0x3]
        assert len(trace) == 3
        assert trace.unique_pcs() == 3

    def test_slice_indexing_returns_object_list(self):
        trace = Trace(name="sliceable")
        for pc in range(5):
            trace.append_access(pc, pc * 64)
        window = trace[1:4]
        assert [access.pc for access in window] == [1, 2, 3]
        assert trace[1:4] == trace.accesses[1:4]

    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_empty_candidates_victim_rejected(self, policy):
        from repro.memory.replacement import make_replacement_policy

        with time_limit(1.0), pytest.raises(ValueError, match="candidate"):
            make_replacement_policy(policy, 1, 2).victim(0, ())

    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_fill_with_every_way_reserved_rejected(self, policy):
        """A partition that leaves no data way fails the fill, never hangs."""

        from repro.memory.partitioned_cache import PartitionedCache

        l3 = PartitionedCache("L3", 1024, 4, 64, policy, max_reserved_ways=4)
        l3.set_reserved_ways(4)
        with time_limit(1.0), pytest.raises(ValueError, match="candidate"):
            l3.fill(0x40)

    def test_direct_accesses_mutation_rejected(self):
        """The object view is read-only; the columns are the truth."""

        from repro.memory.request import MemoryAccess

        trace = Trace(name="ro")
        trace.append_access(0x1, 0x40)
        trace.accesses.append(MemoryAccess(0x2, 0x80))  # bypasses the columns
        with pytest.raises(RuntimeError, match="append_access"):
            trace.accesses


class TestRunFastDirect:
    def test_run_fast_equals_reference_run(self):
        trace = generate_workload("omnet", length=1000)
        reference = build_simulator("triangel")
        expected = reference.run(trace, workload_name="omnet", warmup_accesses=250)
        fast = build_simulator("triangel")
        actual = run_fast(fast, trace, workload_name="omnet", warmup_accesses=250)
        assert asdict(expected.stats) == asdict(actual.stats)
        assert {
            name: asdict(stats) for name, stats in expected.prefetcher_stats.items()
        } == {name: asdict(stats) for name, stats in actual.prefetcher_stats.items()}


class TestRecordedTraceReplay:
    def test_sampled_windows_of_a_recorded_trace(self, tmp_path, monkeypatch):
        """Sampler-derived traces replay identically.

        Carves prefix, mid-stream and systematic samples out of a recorded
        chunked trace, saves them as first-class ``.rtrc`` workloads,
        and checks the fast kernel stays access-for-access identical to the
        reference kernel on each.
        """

        from repro.traces.format import load_trace, save_trace
        from repro.traces.recorder import record_workload
        from repro.traces.samplers import sample_systematic, sample_window

        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path))
        path = record_workload("xalan", directory=tmp_path, overrides={"length": 3000})
        source = load_trace(path)  # chunked: windows inflate only their chunks
        samples = {
            "xl_prefix": sample_window(source, 0, 1200, name="xl_prefix"),
            "xl_window": sample_window(source, 700, 1300, name="xl_window"),
            "xl_sys": sample_systematic(source, period=3, block=2, name="xl_sys"),
        }
        for stem, sampled in samples.items():
            save_trace(sampled, tmp_path / f"{stem}.rtrc")
        runner = quick_runner(max_accesses=None, trace_overrides={})
        for stem in samples:
            reference, fast = both_kernels(runner.spec_for(f"trace:{stem}", "triangel"))
            assert asdict(reference) == asdict(fast), stem
            assert fast.accesses > 0, stem
