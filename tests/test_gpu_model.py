"""Unit tests for the analytical GPU baseline models."""

import pytest

from repro.gpu import A100, EndToEndComparison, GPUModel, H100, SYSTEM_PROFILES, get_gpu
from repro.ppm import PPMConfig, memory


@pytest.fixture(scope="module")
def paper_config():
    return PPMConfig.paper()


class TestGPUSpecs:
    def test_lookup(self):
        assert get_gpu("A100") is A100
        assert get_gpu("H100") is H100
        with pytest.raises(ValueError):
            get_gpu("V100")

    def test_h100_has_more_int8_throughput_than_a100(self):
        """The paper notes H100's ~5x INT8 advantage (3,026 vs 624 TOPS)."""
        assert H100.int8_tops / A100.int8_tops > 4.0
        assert abs(H100.hbm_bandwidth_gbps - A100.hbm_bandwidth_gbps) / A100.hbm_bandwidth_gbps < 0.05


class TestGPULatency:
    def test_chunking_increases_latency(self, paper_config):
        plain = GPUModel("H100", ppm_config=paper_config).simulate(512)
        chunked = GPUModel("H100", ppm_config=paper_config, chunked=True).simulate(512)
        assert chunked.total_seconds > plain.total_seconds
        assert chunked.details["kernel_count"] > plain.details["kernel_count"]

    def test_h100_faster_than_a100_but_not_5x(self, paper_config):
        """Memory-bound workload: H100's compute advantage translates to little."""
        n = 512
        a100 = GPUModel("A100", ppm_config=paper_config).simulate(n).folding_block_seconds
        h100 = GPUModel("H100", ppm_config=paper_config).simulate(n).folding_block_seconds
        assert h100 < a100
        assert a100 / h100 < 2.0

    def test_pair_dataflow_share_grows_with_length(self, paper_config):
        gpu = GPUModel("H100", ppm_config=paper_config)
        from repro.ppm.workload import PHASE_PAIR
        short = gpu.simulate(96)
        long = gpu.simulate(768)
        share_short = short.phase_seconds[PHASE_PAIR] / short.total_seconds
        share_long = long.phase_seconds[PHASE_PAIR] / long.total_seconds
        assert share_long > share_short


class TestGPUMemory:
    def test_peak_memory_grows_cubically_without_chunk(self, paper_config):
        m1 = memory.activation_bytes(memory.GPU_DENSE, paper_config, 500)
        m2 = memory.activation_bytes(memory.GPU_DENSE, paper_config, 1000)
        assert m2 / m1 > 6.0  # score matrix dominates -> close to 8x

    def test_chunking_reduces_peak_memory(self, paper_config):
        chunked = memory.peak_bytes(memory.GPU_CHUNKED, paper_config, 2000)
        assert chunked < memory.peak_bytes(memory.GPU_DENSE, paper_config, 2000)

    def test_oom_thresholds_match_paper_anchors(self, paper_config):
        """T1269 (1,410 aa) fits without chunk; 2,034 aa does not (Section 3.2)."""
        max_no_chunk = GPUModel("H100", ppm_config=paper_config).max_length
        max_chunk = GPUModel("H100", ppm_config=paper_config, chunked=True).max_length
        assert 1410 <= max_no_chunk < 2034
        assert 3364 < max_chunk < 6879


class TestEndToEnd:
    def test_all_systems_present(self):
        assert "ESMFold (Baseline)" in SYSTEM_PROFILES
        assert "AlphaFold2" in SYSTEM_PROFILES
        assert "LightNobel" in SYSTEM_PROFILES

    def test_fig14a_ordering(self, paper_config):
        comparison = EndToEndComparison(ppm_config=paper_config)
        normalized = comparison.normalized_to_lightnobel([128, 384])
        assert normalized["LightNobel"] == pytest.approx(1.0)
        assert normalized["ESMFold (Baseline)"] > 1.0
        assert normalized["AlphaFold2"] > normalized["AlphaFold3"] > normalized["ColabFold"]
        assert normalized["AlphaFold2"] > 50
        assert normalized["MEFold"] > normalized["PTQ4Protein"] > 1.0

    def test_lightnobel_folding_uses_accelerator(self, paper_config):
        comparison = EndToEndComparison(ppm_config=paper_config)
        result = comparison.evaluate_system("LightNobel", 256)
        baseline = comparison.evaluate_system("ESMFold (Baseline)", 256)
        assert result.folding_seconds < baseline.folding_seconds
        assert result.input_embedding_seconds == pytest.approx(baseline.input_embedding_seconds)
