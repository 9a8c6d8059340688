"""Bit-for-bit pins of every memory figure, and the one token-size formula.

The values are ``float.hex`` strings, so a pin fails on any change of the
last bit: Fig. 4 (activation vs weight size), Fig. 15 (peak memory), Table 1
(footprint per scheme), Fig. 16b (activation traffic), Sec. 8.3's longest
supported sequence, the GPU baselines' memory limits and the accelerator's
stored bytes per element of each AAQ group.  A deliberate change of the
memory model re-pins them here and says why in CHANGES.md.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    activation_weight_curve,
    footprint_table,
    max_supported_length,
    memory_footprint_comparison,
    peak_memory_comparison,
)
from repro.core import AAQConfig, TokenQuantConfig, pack_tokens_into_blocks, token_layout
from repro.gpu import GPUModel
from repro.gpu.gpu_config import GPUS
from repro.hardware import LightNobelAccelerator
from repro.ppm import PPMConfig, memory

LENGTHS = (1, 24, 256, 1410, 3364, 6879, 10655)

FIG4 = {1: ('0x1.d851eb851eb85p+2', '0x1.7b07e6b1d8de3p-18'),
 24: ('0x1.d851eb851eb85p+2', '0x1.3bae1ac9c9a6fp-10'),
 256: ('0x1.d851eb851eb85p+2', '0x1.7b07e6b1d8de3p-2'),
 1410: ('0x1.d851eb851eb85p+2', '0x1.7f49cba606398p+5'),
 3364: ('0x1.d851eb851eb85p+2', '0x1.393f5c1405a41p+9'),
 6879: ('0x1.d851eb851eb85p+2', '0x1.4a102ff8e7c40p+12'),
 10655: ('0x1.d851eb851eb85p+2', '0x1.312368dd7439ep+14')}

FIG15 = {1: {'baseline_no_chunk': '0x1.d85203359d237p+2',
     'baseline_chunk': '0x1.d8521029541d7p+2',
     'lightnobel': '0x1.6147fe68c88dcp+0'},
 24: {'baseline_no_chunk': '0x1.d865a666cb54fp+2',
      'baseline_chunk': '0x1.d87f51b395b2fp+2',
      'lightnobel': '0x1.61683e9c8cacep+0'},
 256: {'baseline_no_chunk': '0x1.f00269f03c463p+2',
       'baseline_chunk': '0x1.ebd9430e02de4p+2',
       'lightnobel': '0x1.6d28844ffdbbap+0'},
 1410: {'baseline_no_chunk': '0x1.ba540916aa109p+5',
        'baseline_chunk': '0x1.09c4d9e437779p+4',
        'lightnobel': '0x1.617a293be385fp+1'},
 3364: {'baseline_no_chunk': '0x1.3cefffeb0fe18p+9',
        'baseline_chunk': '0x1.df37f3bfde5a7p+5',
        'lightnobel': '0x1.2731838e480a6p+3'},
 6879: {'baseline_no_chunk': '0x1.4a864473c90bbp+12',
        'baseline_chunk': '0x1.c5f3afccd92e8p+7',
        'lightnobel': '0x1.113b83c945254p+5'},
 10655: {'baseline_no_chunk': '0x1.3140edfc2c8bdp+14',
         'baseline_chunk': '0x1.0b19628357e3cp+9',
         'lightnobel': '0x1.3ff162ba5f61ep+6'}}

TABLE1 = {1: {'Baseline': ('0x1.74fdb6823b36cp-15', '0x1.d851eb851eb85p+2'),
     'SmoothQuant': ('0x1.14036d74d9e5fp-15', '0x1.d851eb851eb85p+1'),
     'LLM.int8()': ('0x1.1a131205affb0p-15', '0x1.de395810624ddp+1'),
     'PTQ4Protein': ('0x1.377291fea9c37p-15', '0x1.d851eb851eb85p+1'),
     'Tender': ('0x1.18acffbce109dp-15', '0x1.d851eb851eb85p+0'),
     'MEFold': ('0x1.74fdb6823b36cp-15', '0x1.efef9db22d0e6p+0'),
     'LightNobel (AAQ)': ('0x1.2392f8ded820ep-16', '0x1.d851eb851eb85p+2')},
 24: {'Baseline': ('0x1.3e4c1e9a2791ap-7', '0x1.d851eb851eb85p+2'),
      'SmoothQuant': ('0x1.d7147f36119a1p-8', '0x1.d851eb851eb85p+1'),
      'LLM.int8()': ('0x1.e16cbb15f572ap-8', '0x1.de395810624ddp+1'),
      'PTQ4Protein': ('0x1.09c73d648f1ebp-7', '0x1.d851eb851eb85p+1'),
      'Tender': ('0x1.df09999385ca8p-8', '0x1.d851eb851eb85p+0'),
      'MEFold': ('0x1.3e4c1e9a2791ap-7', '0x1.efef9db22d0e6p+0'),
      'LightNobel (AAQ)': ('0x1.f1a354012bc88p-9', '0x1.d851eb851eb85p+2')},
 256: {'Baseline': ('0x1.08af8d32135ecp+0', '0x1.d851eb851eb85p+2'),
       'SmoothQuant': ('0x1.87bc22e3b6449p-1', '0x1.d851eb851eb85p+1'),
       'LLM.int8()': ('0x1.9056525bbd4c2p-1', '0x1.de395810624ddp+1'),
       'PTQ4Protein': ('0x1.ba06737a06bf8p-1', '0x1.d851eb851eb85p+1'),
       'Tender': ('0x1.8e5a2004f6c08p-1', '0x1.d851eb851eb85p+0'),
       'MEFold': ('0x1.08af8d32135ecp+0', '0x1.efef9db22d0e6p+0'),
       'LightNobel (AAQ)': ('0x1.9dd1d2e917157p-2', '0x1.d851eb851eb85p+2')},
 1410: {'Baseline': ('0x1.f2ea514211f34p+4', '0x1.d851eb851eb85p+2'),
        'SmoothQuant': ('0x1.713283cf9ca4ap+4', '0x1.d851eb851eb85p+1'),
        'LLM.int8()': ('0x1.794e00a6c3f99p+4', '0x1.de395810624ddp+1'),
        'PTQ4Protein': ('0x1.a09822920c6dap+4', '0x1.d851eb851eb85p+1'),
        'Tender': ('0x1.776f0b3a09aaep+4', '0x1.d851eb851eb85p+0'),
        'MEFold': ('0x1.f2ea514211f34p+4', '0x1.efef9db22d0e6p+0'),
        'LightNobel (AAQ)': ('0x1.8602ee29354fdp+3', '0x1.d851eb851eb85p+2')},
 3364: {'Baseline': ('0x1.62b78a3cd1b9fp+7', '0x1.d851eb851eb85p+2'),
        'SmoothQuant': ('0x1.067d946034cc2p+7', '0x1.d851eb851eb85p+1'),
        'LLM.int8()': ('0x1.0c4133bdfe9b0p+7', '0x1.de395810624ddp+1'),
        'PTQ4Protein': ('0x1.28304bbf95858p+7', '0x1.d851eb851eb85p+1'),
        'Tender': ('0x1.0aecac80f76b4p+7', '0x1.d851eb851eb85p+0'),
        'MEFold': ('0x1.62b78a3cd1b9fp+7', '0x1.efef9db22d0e6p+0'),
        'LightNobel (AAQ)': ('0x1.1549f4e724bf3p+6', '0x1.d851eb851eb85p+2')},
 6879: {'Baseline': ('0x1.72b6dd89e6fcbp+9', '0x1.d851eb851eb85p+2'),
        'SmoothQuant': ('0x1.12541ed191549p+9', '0x1.d851eb851eb85p+1'),
        'LLM.int8()': ('0x1.185a4abd16af1p+9', '0x1.de395810624ddp+1'),
        'PTQ4Protein': ('0x1.358be4813a796p+9', '0x1.d851eb851eb85p+1'),
        'Tender': ('0x1.16f667fce437cp+9', '0x1.d851eb851eb85p+0'),
        'MEFold': ('0x1.72b6dd89e6fcbp+9', '0x1.efef9db22d0e6p+0'),
        'LightNobel (AAQ)': ('0x1.21cb596bc2c45p+8', '0x1.d851eb851eb85p+2')},
 10655: {'Baseline': ('0x1.bca80861ce513p+10', '0x1.d851eb851eb85p+2'),
         'SmoothQuant': ('0x1.490bb448605adp+10', '0x1.d851eb851eb85p+1'),
         'LLM.int8()': ('0x1.50457989f73a3p+10', '0x1.de395810624ddp+1'),
         'PTQ4Protein': ('0x1.7349bf51aafeap+10', '0x1.d851eb851eb85p+1'),
         'Tender': ('0x1.4e9a9ac999556p+10', '0x1.d851eb851eb85p+0'),
         'MEFold': ('0x1.bca80861ce513p+10', '0x1.efef9db22d0e6p+0'),
         'LightNobel (AAQ)': ('0x1.5b98a26474ec0p+9', '0x1.d851eb851eb85p+2')}}

FIG16B = {1: {'baseline': '0x1.17be48e1ac691p-9', 'lightnobel': '0x1.b78f78d95aa4cp-10'},
 24: {'baseline': '0x1.dd722de73b5a7p-2', 'lightnobel': '0x1.a4611dd222f80p-3'},
 256: {'baseline': '0x1.8d0753cb1d0e2p+5', 'lightnobel': '0x1.3f1d8cadcdd91p+4'},
 1410: {'baseline': '0x1.762fbcf18d767p+10', 'lightnobel': '0x1.2a24830d661a1p+9'},
 3364: {'baseline': '0x1.0a09a7ad9d4b7p+13', 'lightnobel': '0x1.a77672f540088p+11'},
 6879: {'baseline': '0x1.160926276d3d8p+15', 'lightnobel': '0x1.ba5fdecc67cd2p+13'},
 10655: {'baseline': '0x1.4d7e06495abcep+16', 'lightnobel': '0x1.09445da63decdp+15'}}

#: Sec. 8.3: longest LightNobel sequence per HBM budget (GB).
MAX_SUPPORTED = {40.0: 7467, 80.0: 10655, 160.0: 15137}

#: (dense, chunked) longest sequence each registered GPU holds.
GPU_MAX = {'A100': (1624, 3955), 'H100': (1624, 3955)}

BYTES_PER_ELEMENT = {None: '0x1.0000000000000p+1',
 'A': '0x1.1400000000000p+0',
 'B': '0x1.3000000000000p-1',
 'C': '0x1.0800000000000p-1'}


def hexed(values):
    return {key: value.hex() for key, value in values.items()}


def test_fig4_activation_weight_curve():
    assert {
        p.sequence_length: (p.weight_gb.hex(), p.activation_gb.hex())
        for p in activation_weight_curve(LENGTHS)
    } == FIG4


@pytest.mark.parametrize("n", LENGTHS)
def test_fig15_peak_memory(n):
    assert hexed(peak_memory_comparison(n)) == FIG15[n]


@pytest.mark.parametrize("n", LENGTHS)
def test_table1_footprint(n):
    rows = footprint_table(n)
    assert {r.scheme: (r.activation_gb.hex(), r.weight_gb.hex()) for r in rows} == TABLE1[n]


@pytest.mark.parametrize("n", LENGTHS)
def test_fig16b_memory_footprint(n):
    assert hexed(memory_footprint_comparison(n)) == FIG16B[n]


def test_max_supported_length():
    assert {gb: max_supported_length(gb) for gb in MAX_SUPPORTED} == MAX_SUPPORTED
    assert MAX_SUPPORTED[80.0] == 10655


@pytest.mark.parametrize("budget_gb", [278.5, 320.0, 2000.0])
def test_max_supported_length_beyond_the_first_search_bound(budget_gb):
    # From about 278 GB on, sequences longer than the search's first upper
    # bound fit: the bound grows until one does not.
    config, aaq = PPMConfig.paper(), AAQConfig.paper_optimal()
    n = max_supported_length(budget_gb)
    assert n > 20000
    assert memory.fits(memory.LIGHTNOBEL_AAQ, config, n, budget_gb, aaq)
    assert not memory.fits(memory.LIGHTNOBEL_AAQ, config, n + 1, budget_gb, aaq)


@pytest.mark.parametrize("name", sorted(GPUS))
def test_gpu_max_sequence_length(name):
    assert set(GPU_MAX) == set(GPUS)
    assert (
        GPUModel(name, chunked=False).max_length,
        GPUModel(name, chunked=True).max_length,
    ) == GPU_MAX[name]


@pytest.mark.parametrize("chunked", [False, True])
def test_h100_fits_in_memory_at_every_length(chunked):
    model = GPUModel("H100", chunked=chunked)
    assert GPU_MAX["H100"] == (1624, 3955)
    limit = GPU_MAX["H100"][chunked]
    row = memory.GPU_CHUNKED if chunked else memory.GPU_DENSE
    fits = [memory.fits(row, model.ppm_config, n, model.gpu.memory_gb) for n in range(1, 20001)]
    assert fits == [n <= limit for n in range(1, 20001)]


def test_activation_bytes_per_element():
    accelerator = LightNobelAccelerator()
    assert {
        group: accelerator.activation_bytes_per_element(group).hex() for group in BYTES_PER_ELEMENT
    } == BYTES_PER_ELEMENT


def frozen_bits_per_token(config: TokenQuantConfig, hidden_dim: int) -> int:
    """The token-size formula as written before the memory model had one owner."""
    outliers = min(config.outlier_count, hidden_dim)
    inliers = hidden_dim - outliers
    return inliers * config.inlier_bits + outliers * config.outlier_bits + outliers * 8 + 16


@st.composite
def token_configs(draw):
    hidden_dim = draw(st.integers(1, 256))
    config = TokenQuantConfig(
        inlier_bits=draw(st.sampled_from((2, 3, 4, 6, 8, 16))),
        outlier_count=draw(st.integers(0, hidden_dim + 2)),
        outlier_bits=draw(st.sampled_from((8, 16, 32))),
    )
    return config, hidden_dim


@settings(max_examples=200, deadline=None)
@given(token_configs(), st.integers(1, 5))
def test_token_size_has_one_formula(case, num_tokens):
    config, hidden_dim = case
    bits = config.bits_per_token(hidden_dim)
    layout = token_layout(config, hidden_dim)
    assert bits == frozen_bits_per_token(config, hidden_dim)
    assert bits == 8 * layout.total_bytes
    assert config.bytes_per_token(hidden_dim) == layout.total_bytes
    blocks = pack_tokens_into_blocks(num_tokens, config, hidden_dim)
    assert blocks.token_bytes == layout.total_bytes
    assert blocks.payload_bytes == num_tokens * layout.total_bytes
