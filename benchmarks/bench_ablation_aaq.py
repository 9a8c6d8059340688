"""Ablations of the design choices behind AAQ and the LightNobel dataflow.

Covers the design decisions DESIGN.md calls out: quantization granularity
(token vs channel vs tensor), outlier handling, adaptive vs uniform schemes,
and token-wise MHA (score-matrix residency).
"""

import numpy as np
from conftest import print_table

from repro.core import (
    AAQConfig,
    TokenQuantConfig,
    fake_quantize_channelwise,
    fake_quantize_tensorwise,
    fake_quantize_tokens,
)
from repro.hardware import LightNobelAccelerator
from repro.ppm import PPMConfig
from repro.analysis import record_activations
from repro.proteins import generate_protein


def collect_tokens():
    config = PPMConfig.small()
    recorder = record_activations([generate_protein(48, seed=17)], config=config, keep_arrays=True)
    pair_arrays = [
        tokens for tokens in recorder.arrays.values() if tokens.shape[-1] == config.pair_dim
    ]
    return np.concatenate(pair_arrays, axis=0)


def test_ablation_granularity_and_outliers(benchmark):
    tokens = benchmark.pedantic(collect_tokens, rounds=1, iterations=1)

    def rmse(reconstructed):
        return float(np.sqrt(np.mean((tokens - reconstructed) ** 2)))

    results = {
        "tensor-wise INT4": rmse(fake_quantize_tensorwise(tokens, 4)),
        "channel-wise INT4": rmse(fake_quantize_channelwise(tokens, 4)),
        "token-wise INT4": rmse(fake_quantize_tokens(tokens, TokenQuantConfig(4, 0))),
        "token-wise INT4 + outliers": rmse(fake_quantize_tokens(tokens, TokenQuantConfig(4, 4))),
        "token-wise INT8 + outliers": rmse(fake_quantize_tokens(tokens, TokenQuantConfig(8, 4))),
    }
    rows = [(name, f"RMSE {value:.5f}") for name, value in results.items()]
    print_table("Ablation: quantization granularity and outlier handling", rows)

    assert results["token-wise INT4"] < results["tensor-wise INT4"]
    assert results["token-wise INT4 + outliers"] < results["token-wise INT4"]
    assert results["token-wise INT8 + outliers"] < results["token-wise INT4 + outliers"]


def test_ablation_adaptive_vs_uniform_scheme():
    """Adaptive per-group schemes beat uniform ones at equal or smaller size."""
    adaptive = AAQConfig.paper_optimal()
    uniform_small = AAQConfig.uniform(inlier_bits=4, outlier_count=0)
    uniform_large = AAQConfig.uniform(inlier_bits=8, outlier_count=4)
    hidden = 128
    adaptive_bits = adaptive.average_bits_per_value(hidden)
    assert adaptive_bits < uniform_large.average_bits_per_value(hidden)
    assert adaptive_bits > uniform_small.average_bits_per_value(hidden)
    rows = [
        ("uniform INT4/0", f"{uniform_small.average_bits_per_value(hidden):.2f} bits/value"),
        ("adaptive (paper)", f"{adaptive_bits:.2f} bits/value"),
        ("uniform INT8/4", f"{uniform_large.average_bits_per_value(hidden):.2f} bits/value"),
    ]
    print_table("Ablation: adaptive vs uniform storage cost", rows)


def test_ablation_tokenwise_mha(benchmark):
    config = PPMConfig.paper()
    with_mha = LightNobelAccelerator(ppm_config=config, tokenwise_mha=True)
    without_mha = LightNobelAccelerator(ppm_config=config, tokenwise_mha=False)

    def run():
        return with_mha.simulate(512), without_mha.simulate(512)

    fused, unfused = benchmark.pedantic(run, rounds=1, iterations=1)
    fused_dram, unfused_dram = fused.details["dram_bytes"], unfused.details["dram_bytes"]
    rows = [
        ("token-wise MHA (no score writeback)", f"{fused_dram / 1e9:.1f} GB traffic",
         f"{fused.total_seconds:.2f} s"),
        ("score matrix written to DRAM", f"{unfused_dram / 1e9:.1f} GB traffic",
         f"{unfused.total_seconds:.2f} s"),
    ]
    print_table("Ablation: token-wise MHA (Section 5.4)", rows)
    assert fused_dram < 0.75 * unfused_dram
    assert fused.total_seconds < unfused.total_seconds
