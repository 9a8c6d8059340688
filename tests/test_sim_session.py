"""Unified simulation layer: backend parity, batching, the one report memo."""

import gc
import re
import weakref
from pathlib import Path

import pytest

import repro
from repro.gpu import EndToEndComparison, GPUModel
from repro.hardware import LightNobelAccelerator, LightNobelConfig
from repro.serving import LatencyService
from repro.ppm import (
    PPMConfig,
    StackedOperatorTable,
    clear_workload_caches,
    get_op_table,
    get_stacked_table,
    workload_cache_info,
)
from repro.sim import (
    AcceleratorVariant,
    GPUVariant,
    SimulationSession,
    available_backends,
    create_backend,
)

LENGTHS = (24, 40)


@pytest.fixture()
def config() -> PPMConfig:
    return PPMConfig.tiny()


def relative_difference(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


class TestBackendParity:
    def test_accelerator_backend_matches_direct_simulate(self, config):
        session = SimulationSession(ppm_config=config)
        direct = LightNobelAccelerator(ppm_config=config)
        for n in LENGTHS:
            report = session.simulate(n, backend="lightnobel")
            reference = direct.simulate(n)
            assert relative_difference(report.total_seconds, reference.total_seconds) <= 1e-9
            for phase, seconds in reference.phase_seconds.items():
                assert relative_difference(report.phase_seconds[phase], seconds) <= 1e-9

    @pytest.mark.parametrize("gpu,chunked", [("H100", False), ("H100", True), ("A100", False)])
    def test_gpu_backend_matches_direct_simulate(self, config, gpu, chunked):
        session = SimulationSession(ppm_config=config)
        direct = GPUModel(gpu, ppm_config=config, chunked=chunked)
        name = gpu.lower() + ("-chunk" if chunked else "")
        for n in LENGTHS:
            report = session.simulate(n, backend=name)
            reference = direct.simulate(n)
            assert relative_difference(report.total_seconds, reference.total_seconds) <= 1e-9
            assert report.phase_seconds == reference.phase_seconds
            assert report.out_of_memory == reference.out_of_memory

    def test_folding_seconds_match_accelerator_helper(self, config):
        session = SimulationSession(ppm_config=config)
        direct = LightNobelAccelerator(ppm_config=config)
        for n in LENGTHS:
            report = session.simulate(n, backend="lightnobel")
            assert (
                relative_difference(
                    report.folding_block_seconds, direct.simulate(n).folding_block_seconds
                )
                <= 1e-9
            )

    def test_registry_and_spec_resolution(self, config):
        for name in ("lightnobel", "a100", "h100", "a100-chunk", "h100-chunk"):
            assert name in available_backends()
        custom = create_backend(LightNobelConfig(num_rmpus=8), config)
        (report,) = custom.simulate_stack(get_stacked_table(config, [LENGTHS[0]]))
        assert report.total_seconds > 0
        variant = create_backend(GPUVariant(gpu="A100", chunked=True), config)
        assert variant.name == "a100-chunk"
        with pytest.raises(ValueError):
            create_backend("not-a-backend", config)


class TestSimulateBatch:
    def test_batch_matches_per_length_loop(self, config):
        backends = ["lightnobel", "h100", "h100-chunk"]
        batch = SimulationSession(ppm_config=config).simulate_batch(LENGTHS, backends=backends)
        loop_session = SimulationSession(ppm_config=config)
        for name in backends:
            loop = [loop_session.simulate(n, backend=name).total_seconds for n in LENGTHS]
            assert batch.totals(name) == loop

    def test_batch_dedupes_lengths_and_memoizes(self, config):
        clear_workload_caches()
        session = SimulationSession(ppm_config=config)
        lengths = [LENGTHS[0], LENGTHS[0], LENGTHS[1]]
        before = workload_cache_info().stacks.misses
        batch = session.simulate_batch(lengths, backends=["lightnobel"])
        assert len(batch.totals("lightnobel")) == 3
        assert batch.totals("lightnobel")[0] == batch.totals("lightnobel")[1]
        stats = session.stats()
        # One stack for the 2 distinct lengths.
        assert workload_cache_info().stacks.misses == before + 1
        assert stats["reports_in_memory"] == 2

    def test_batch_distinct_specs_with_same_default_name(self, config):
        # Regression: two hardware configs in one batch must not collapse
        # into a single "lightnobel" registration.
        session = SimulationSession(ppm_config=config)
        small = LightNobelConfig(num_rmpus=1)
        large = LightNobelConfig(num_rmpus=64)
        batch = session.simulate_batch([LENGTHS[1]], backends=[small, large])
        assert len(set(batch.backends)) == 2
        totals = [batch.reports[(name, LENGTHS[1])].total_seconds for name in batch.backends]
        direct = [
            LightNobelAccelerator(hw_config=hw, ppm_config=config)
            .simulate(LENGTHS[1])
            .total_seconds
            for hw in (small, large)
        ]
        for got, want in zip(totals, direct):
            assert relative_difference(got, want) <= 1e-9

    def test_displaced_memoized_spec_is_reregistered(self, config):
        # Regression: a spec-memoized backend displaced by an explicit-name
        # rebinding must be re-registered, not crash with StopIteration.
        session = SimulationSession(ppm_config=config)
        spec = LightNobelConfig(num_rmpus=8)
        session.backend(spec)  # memoized, registered under "lightnobel"
        session.add_backend(LightNobelConfig(num_rmpus=64), name="lightnobel")  # displace
        report = session.simulate(LENGTHS[0], backend=spec)
        direct = LightNobelAccelerator(hw_config=spec, ppm_config=config).simulate(LENGTHS[0])
        assert relative_difference(report.total_seconds, direct.total_seconds) <= 1e-9

    def test_memoized_spec_lookup_does_not_scan_the_registry(self, config):
        class CountingDict(dict):
            scans = 0

            def values(self):
                CountingDict.scans += 1
                return super().values()

            def items(self):
                CountingDict.scans += 1
                return super().items()

        session = SimulationSession(ppm_config=config, backends=())
        specs = [LightNobelConfig(num_rmpus=r) for r in range(1, 61)]
        backends = [session.backend(spec) for spec in specs]
        session._backends = CountingDict(session._backends)
        assert [session.backend(spec) for spec in specs] == backends
        assert CountingDict.scans == 0

    def test_batch_helpers(self, config):
        session = SimulationSession(ppm_config=config)
        batch = session.simulate_batch(LENGTHS, backends=["lightnobel", "h100"])
        totals = batch.totals("h100")
        assert batch.mean_total_seconds("h100") == pytest.approx(sum(totals) / len(totals))
        assert 0 < batch.mean_folding_seconds("lightnobel") < batch.mean_total_seconds("lightnobel")
        assert batch.any_out_of_memory("h100") in (False, True)


class TestNoReportFiles:
    """The session memo is the one cache of reports: a session touches no file."""

    def test_cold_process_fits_each_config_once_and_writes_no_file(
        self, config, tmp_path, monkeypatch
    ):
        # The variable that once switched the disk cache on, and the home
        # directory that held its default location, must both stay empty.
        store, home = tmp_path / "store", tmp_path / "home"
        store.mkdir()
        home.mkdir()
        monkeypatch.setenv("REPRO_SIM_CACHE_DIR", str(store))
        monkeypatch.setenv("HOME", str(home))
        clear_workload_caches()
        grid = [LightNobelConfig(num_rmpus=r) for r in (8, 16, 32)]
        session = SimulationSession(ppm_config=config, backends=())
        for include_recycles in (False, True):
            batch = session.simulate_batch(
                LENGTHS, backends=[*grid, "h100"], include_recycles=include_recycles
            )
            assert len(batch.reports) == len(LENGTHS) * (len(grid) + 1)
        # One cubic fit per distinct (config, include_recycles) pair.
        assert workload_cache_info().fits.misses == 2
        assert list(store.iterdir()) == []
        assert list(home.iterdir()) == []

    @pytest.mark.parametrize("flag", [True, None])
    def test_use_disk_cache_accepts_only_false(self, config, flag):
        for factory in (SimulationSession, LatencyService):
            with pytest.raises(ValueError, match="disk cache was removed"):
                factory(ppm_config=config, use_disk_cache=flag)
        # The spelling perfbench still passes.
        SimulationSession(ppm_config=config, use_disk_cache=False)
        LatencyService(ppm_config=config, use_disk_cache=False).close()


class TestOneTableCache:
    """The stack LRU of ``repro.ppm.op_table`` is the only cache of operator tables."""

    def test_lone_misses_build_one_stack_each(self, config, monkeypatch):
        calls = {"from_tables": 0}
        from_tables = StackedOperatorTable.from_tables.__func__

        def counting(cls, tables):
            calls["from_tables"] += 1
            return from_tables(cls, tables)

        monkeypatch.setattr(StackedOperatorTable, "from_tables", classmethod(counting))
        clear_workload_caches()
        lengths = [LENGTHS[0] + i for i in range(5)]
        first = SimulationSession(ppm_config=config)
        for n in lengths:
            first.simulate(n, backend="lightnobel")
        assert calls["from_tables"] == 0
        assert workload_cache_info().stacks.misses == len(lengths)
        # A fresh session on another backend prices the cached stacks.
        second = SimulationSession(ppm_config=config)
        for n in lengths:
            second.simulate(n, backend="h100")
        assert calls["from_tables"] == 0
        assert workload_cache_info().stacks.misses == len(lengths)

    def test_a_live_session_keeps_no_lone_table(self, config):
        clear_workload_caches()
        session = SimulationSession(ppm_config=config)
        session.simulate(LENGTHS[0])
        table = weakref.ref(get_op_table(config, LENGTHS[0]))
        others = range(100, 101 + workload_cache_info().stacks.maxsize)
        for n in others:  # evicts the lone length's stack from the LRU
            session.simulate(n)
        gc.collect()
        assert table() is None
        assert session.stats()["reports_in_memory"] == 1 + len(others)


class TestSinglePricingPath:
    def test_process_pools_only_in_the_fig11_model_sweep(self):
        # Latency pricing runs in-process only; the one process pool left
        # in src/ shards Fig. 11's model inferences (analysis/dse.py).
        src = Path(repro.__file__).resolve().parent
        users = sorted(
            path.relative_to(src).as_posix()
            for path in src.rglob("*.py")
            if re.search(r"ProcessPoolExecutor|REPRO_SIM_WORKERS", path.read_text())
        )
        assert users == ["analysis/dse.py"]


class TestEndToEndCaching:
    def test_baseline_phases_simulated_once_per_gpu_length(self, config, monkeypatch):
        calls = {"n": 0}
        original = GPUModel.simulate_stack

        def counting(self, stack):
            calls["n"] += stack.num_segments
            return original(self, stack)

        monkeypatch.setattr(GPUModel, "simulate_stack", counting)
        session = SimulationSession(ppm_config=config)
        comparison = EndToEndComparison(session=session)
        comparison.compare([LENGTHS[0], LENGTHS[1]])
        # Eight system profiles x two lengths, but only one GPU simulation
        # per (gpu, length) pair thanks to the session memo.
        assert calls["n"] == len(LENGTHS)

    def test_rebinding_a_name_does_not_serve_stale_reports(self, config):
        # Regression: the report memo is keyed by config digest, so replacing
        # a registered name with a different hardware config must recompute.
        session = SimulationSession(ppm_config=config)
        default = session.simulate(LENGTHS[0], backend="lightnobel").total_seconds
        rebound = session.simulate(
            LENGTHS[0], backend=LightNobelConfig(num_rmpus=1)
        ).total_seconds
        direct = LightNobelAccelerator(
            hw_config=LightNobelConfig(num_rmpus=1), ppm_config=config
        ).simulate(LENGTHS[0])
        assert relative_difference(rebound, direct.total_seconds) <= 1e-9
        assert rebound != default

    def test_custom_accelerator_does_not_hijack_lightnobel_name(self, config):
        session = SimulationSession(ppm_config=config)
        default = session.simulate(LENGTHS[0], backend="lightnobel").total_seconds
        custom = LightNobelAccelerator(
            hw_config=LightNobelConfig(num_rmpus=1), ppm_config=config
        )
        EndToEndComparison(session=session, accelerator=custom).compare([LENGTHS[0]])
        assert session.simulate(LENGTHS[0], backend="lightnobel").total_seconds == default
        assert custom.name == "lightnobel"  # the caller's object keeps its name

    def test_colliding_default_name_leaves_the_callers_engine_unnamed(self, config):
        session = SimulationSession(ppm_config=config)
        acc = LightNobelAccelerator(LightNobelConfig(num_rmpus=8), ppm_config=config)
        registered = session.add_backend(acc)
        key = f"lightnobel-{acc.config_digest()}"
        assert registered is acc
        assert acc.name == "lightnobel"
        assert key in session.backend_names()
        batch = session.simulate_batch(LENGTHS, backends=[acc, "lightnobel"])
        assert batch.backends == [key, "lightnobel"]
        for n in LENGTHS:
            assert batch.report(key, n).backend == key
            assert batch.report("lightnobel", n).backend == "lightnobel"
            assert session.simulate(n, backend=acc).backend == key
            assert session.peek_report(key, n).backend == key
        assert acc.name == "lightnobel"

    def test_session_config_mismatch_raises(self, config):
        from repro.analysis import latency_breakdown

        session = SimulationSession(ppm_config=config)
        with pytest.raises(ValueError):
            EndToEndComparison(ppm_config=PPMConfig.small(), session=session)
        with pytest.raises(ValueError):
            latency_breakdown(LENGTHS[0], config=PPMConfig.small(), session=session)

    def test_repeated_spec_reuses_backend_instance(self, config):
        session = SimulationSession(ppm_config=config)
        spec = LightNobelConfig(num_rmpus=8)
        assert session.backend(spec) is session.backend(spec)

    def test_digest_shared_memo_relabels_per_registration(self, config):
        # Regression: two names bound to the same configuration share one
        # digest-keyed memo entry, but each returned report must carry the
        # name the caller asked for (serving stats bucket by report.backend).
        session = SimulationSession(ppm_config=config)
        default = session.simulate(LENGTHS[0], backend="lightnobel")
        session.add_backend(AcceleratorVariant(), name="ln-alias")
        alias = session.simulate(LENGTHS[0], backend="ln-alias")
        assert default.backend == "lightnobel"
        assert alias.backend == "ln-alias"
        assert alias.total_seconds == default.total_seconds
        assert session.peek_report("ln-alias", LENGTHS[0]).backend == "ln-alias"
        assert session.peek_report("lightnobel", LENGTHS[0]).backend == "lightnobel"

    def test_accelerator_variant_memo_isolation(self, config):
        session = SimulationSession(ppm_config=config)
        fast = session.add_backend(
            AcceleratorVariant(hw_config=LightNobelConfig(num_rmpus=64), name="ln-64")
        )
        slow = session.add_backend(
            AcceleratorVariant(hw_config=LightNobelConfig(num_rmpus=1), name="ln-1")
        )
        fast_report = session.simulate(LENGTHS[1], backend=fast.name)
        slow_report = session.simulate(LENGTHS[1], backend=slow.name)
        assert fast_report.total_seconds < slow_report.total_seconds
