"""Unit tests for token-wise quantization with dynamic outlier handling."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_quant import reference_fake_quantize_tokens

from repro.core import (
    AAQConfig,
    QuantizedToken,
    TokenQuantConfig,
    fake_quantize_tokens,
    quantize_token,
    quantize_tokens,
    select_outliers,
    token_quantization_rmse,
)
from repro.core import token_quant
from repro.ppm.activation_tap import GROUPS


def token_with_outliers(rng, dim=128, outliers=4, outlier_value=50.0):
    token = rng.normal(size=dim)
    positions = rng.choice(dim, size=outliers, replace=False)
    token[positions] = outlier_value * np.sign(rng.normal(size=outliers))
    return token, positions


class TestConfig:
    def test_bits_per_token_accounting(self):
        config = TokenQuantConfig(inlier_bits=4, outlier_count=4)
        # 124 inliers * 4b + 4 outliers * 16b + 4 indices * 8b + scale 16b
        assert config.bits_per_token(128) == 124 * 4 + 4 * 16 + 4 * 8 + 16
        assert config.bytes_per_token(128) == pytest.approx(config.bits_per_token(128) / 8)

    def test_compression_ratio_monotone_in_bits(self):
        low = TokenQuantConfig(inlier_bits=4, outlier_count=0)
        high = TokenQuantConfig(inlier_bits=8, outlier_count=0)
        assert low.compression_ratio(128) > high.compression_ratio(128)
        assert low.compression_ratio(128) == pytest.approx(128 * 16 / (128 * 4 + 16))

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenQuantConfig(inlier_bits=5)
        with pytest.raises(ValueError):
            TokenQuantConfig(outlier_count=-1)
        with pytest.raises(ValueError):
            TokenQuantConfig(outlier_bits=12)


class TestOutlierSelection:
    def test_top_k_selects_largest_magnitudes(self, rng):
        token, positions = token_with_outliers(rng)
        selected = select_outliers(token, 4)
        assert set(selected) == set(positions)

    def test_zero_count_returns_empty(self, rng):
        assert select_outliers(rng.normal(size=16), 0).size == 0

    def test_count_clamped_to_token_size(self, rng):
        assert select_outliers(rng.normal(size=8), 100).size == 8


class TestQuantizeToken:
    def test_roundtrip_with_outliers_is_accurate(self, rng):
        token, _ = token_with_outliers(rng)
        config = TokenQuantConfig(inlier_bits=8, outlier_count=4)
        quantized = quantize_token(token, config)
        recon = quantized.dequantize()
        assert np.max(np.abs(recon - token)) < 0.05

    def test_outlier_handling_reduces_error(self, rng):
        token, _ = token_with_outliers(rng, outlier_value=200.0)
        with_outliers = TokenQuantConfig(inlier_bits=4, outlier_count=4)
        without = TokenQuantConfig(inlier_bits=4, outlier_count=0)
        err_with = np.abs(quantize_token(token, with_outliers).dequantize() - token).mean()
        err_without = np.abs(quantize_token(token, without).dequantize() - token).mean()
        assert err_with < err_without

    def test_quantized_token_bit_accounting(self, rng):
        token, _ = token_with_outliers(rng)
        config = TokenQuantConfig(inlier_bits=4, outlier_count=4)
        quantized = quantize_token(token, config)
        assert isinstance(quantized, QuantizedToken)
        assert quantized.bits() == config.bits_per_token(128)
        assert quantized.inlier_values.size == 124
        assert quantized.outlier_values.size == 4

    def test_quantize_tokens_batch(self, rng):
        tokens = rng.normal(size=(10, 32))
        config = TokenQuantConfig(inlier_bits=8, outlier_count=2)
        result = quantize_tokens(tokens, config)
        assert len(result) == 10
        with pytest.raises(ValueError):
            quantize_tokens(rng.normal(size=32), config)


class TestFakeQuantizeTokens:
    def test_matches_per_token_quantizer(self, rng):
        tokens = np.stack([token_with_outliers(rng, dim=64)[0] for _ in range(5)])
        config = TokenQuantConfig(inlier_bits=8, outlier_count=4)
        vectorized = fake_quantize_tokens(tokens, config)
        reference = np.stack([quantize_token(t, config).dequantize() for t in tokens])
        assert np.allclose(vectorized, reference, atol=1e-9)

    def test_preserves_shape_for_3d_input(self, rng):
        values = rng.normal(size=(6, 7, 16))
        config = TokenQuantConfig(inlier_bits=4, outlier_count=2)
        out = fake_quantize_tokens(values, config)
        assert out.shape == values.shape

    def test_rmse_decreases_with_precision(self, rng):
        values = rng.normal(size=(32, 128)) * 5
        rmse4 = token_quantization_rmse(values, TokenQuantConfig(inlier_bits=4, outlier_count=0))
        rmse8 = token_quantization_rmse(values, TokenQuantConfig(inlier_bits=8, outlier_count=0))
        assert rmse8 < rmse4

    def test_paper_section_4_1_outlier_claim(self, rng):
        """Symmetric quantization alone inflates RMSE far more than with outliers.

        Section 4.1: without outlier handling RMSE increases by ~27% relative
        to the outlier-handled case being only ~10% above an asymmetric
        reference; here we verify the qualitative claim that outlier handling
        recovers most of the gap on outlier-heavy (Group A-like) tokens.
        """
        tokens = np.stack([token_with_outliers(rng, outlier_value=100.0)[0] for _ in range(64)])
        base = token_quantization_rmse(tokens, TokenQuantConfig(inlier_bits=8, outlier_count=8))
        no_outliers = token_quantization_rmse(tokens, TokenQuantConfig(inlier_bits=8, outlier_count=0))
        assert no_outliers > 1.2 * base


class TestTransientMemory:
    """The quantizer's transient allocations stay within a small multiple of its input.

    numpy reports its buffers to ``tracemalloc``, so the traced peak is
    deterministic.  The two-pass body peaked at 4.1x (Group C) and 7.1x
    (Groups A/B) of the input's bytes.
    """

    #: A 96-residue pair tensor with 8 (triangle attention head), 32 (pair)
    #: and 1024 (outer product mean) channels.  Per-token temporaries weigh
    #: 1/H of the input each, so the narrow widths bound them too.
    SHAPES = ((96 * 96, 8), (96 * 96, 32), (96 * 96, 1024))
    #: Peak traced bytes, the returned array included, over ``input.nbytes``.
    MAX_PEAK_RATIO = 2.25

    @pytest.mark.parametrize("group", GROUPS)
    def test_peak_within_bound(self, group):
        config = AAQConfig.paper_optimal().config_for(group)
        for shape in self.SHAPES:
            values = np.random.default_rng(0).normal(size=shape)
            tracemalloc.start()
            try:
                baseline = tracemalloc.get_traced_memory()[0]
                out = fake_quantize_tokens(values, config)
                peak = tracemalloc.get_traced_memory()[1] - baseline
            finally:
                tracemalloc.stop()
            assert out.shape == values.shape
            ratio = peak / values.nbytes
            assert ratio <= self.MAX_PEAK_RATIO, (
                f"group {group}, shape {shape}: transient peak {ratio:.2f}x input bytes"
            )


#: Token widths of the reference parity test: degenerate widths, the fold's
#: 2, 8, 16, 32, 96 and 1024, and both sides of each row-max strategy edge.
PARITY_WIDTHS = (1, 2, 3, 8, 16, 17, 32, 63, 64, 96, 255, 256, 1024)

#: Kinds of token the parity test mixes row by row.
TOKEN_KINDS = ("normal", "quantized", "pairs", "repeated", "zero", "equal")


@st.composite
def tie_heavy_tokens(draw):
    """(tokens, config): normal, already-quantized, +/-x pairs, repeated
    magnitudes, all-zero and all-equal tokens, mixed row by row, over up to
    three row blocks of the quantizer's outlier path."""
    width = draw(st.sampled_from(PARITY_WIDTHS))
    count = draw(st.sampled_from(sorted({0, 1, 4, width - 1, width, width + 3})))
    config = TokenQuantConfig(inlier_bits=draw(st.sampled_from([4, 8])), outlier_count=count)
    block_rows = max(token_quant._OUTLIER_BLOCK_VALUES // width, 1)
    rows = draw(st.integers(min_value=1, max_value=min(3 * block_rows, 4096)))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    scale = draw(st.sampled_from([1e-14, 1.0, 1e3]))
    tokens = rng.normal(scale=scale, size=(rows, width))
    for row, kind in zip(tokens, rng.choice(TOKEN_KINDS, size=rows)):
        if kind == "quantized":
            row[:] = fake_quantize_tokens(row, TokenQuantConfig(inlier_bits=4, outlier_count=0))
        elif kind == "pairs":
            row[1::2] = -row[: width - width % 2 : 2]
        elif kind == "repeated":
            row[:] = rng.choice([-2.0, -1.0, 1.0, 2.0, 0.5], size=width) * scale
        elif kind == "zero":
            row[:] = rng.choice([0.0, -0.0], size=width)
        elif kind == "equal":
            row[:] = row[0]
    return tokens, config


@given(tie_heavy_tokens())
@settings(max_examples=300, deadline=None)
def test_fake_quantize_tokens_byte_equal_to_reference(case):
    """The per-element scale pass equals the gather/scatter reference byte for byte.

    The cases cross every path: no outliers, every value an outlier
    (``k >= H``), and top-k selection with ties at the cut, in one row block
    or several.
    """
    tokens, config = case
    before = tokens.copy()
    result = fake_quantize_tokens(tokens, config)
    assert tokens.tobytes() == before.tobytes()
    reference = reference_fake_quantize_tokens(tokens, config)
    assert result.dtype == reference.dtype and result.shape == reference.shape
    assert result.tobytes() == reference.tobytes()
