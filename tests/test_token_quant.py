"""Unit tests for token-wise quantization with dynamic outlier handling."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_quant import (
    packed_fake_quantize,
    reference_fake_quantize_tokens,
    reference_quantize_token,
)

from repro.core import (
    AAQConfig,
    PackedQuantizedTensor,
    TokenQuantConfig,
    fake_quantize_tokens,
    token_quantization_rmse,
)
from repro.core import token_quant
from repro.core.schemes import all_schemes
from repro.ppm.activation_tap import GROUP_C, GROUPS


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
        selected = PackedQuantizedTensor.pack(token[None], TokenQuantConfig(outlier_count=4))
        assert set(selected.outlier_indices[0]) == set(positions)

    def test_zero_count_returns_empty(self, rng):
        packed = PackedQuantizedTensor.pack(rng.normal(size=(1, 16)), TokenQuantConfig(outlier_count=0))
        assert packed.outlier_indices.size == 0

    def test_count_clamped_to_token_size(self, rng):
        packed = PackedQuantizedTensor.pack(rng.normal(size=(1, 8)), TokenQuantConfig(outlier_count=100))
        assert packed.outlier_indices.size == 8


class TestQuantizeToken:
    def test_roundtrip_with_outliers_is_accurate(self, rng):
        token, _ = token_with_outliers(rng)
        config = TokenQuantConfig(inlier_bits=8, outlier_count=4)
        recon = packed_fake_quantize(token, config)
        assert np.max(np.abs(recon - token)) < 0.05

    def test_outlier_handling_reduces_error(self, rng):
        token, _ = token_with_outliers(rng, outlier_value=200.0)
        with_outliers = TokenQuantConfig(inlier_bits=4, outlier_count=4)
        without = TokenQuantConfig(inlier_bits=4, outlier_count=0)
        err_with = np.abs(packed_fake_quantize(token, with_outliers) - token).mean()
        err_without = np.abs(packed_fake_quantize(token, without) - token).mean()
        assert err_with < err_without

    def test_quantized_token_bit_accounting(self, rng):
        token, _ = token_with_outliers(rng)
        config = TokenQuantConfig(inlier_bits=4, outlier_count=4)
        packed = PackedQuantizedTensor.pack(token[None], config)
        assert packed.bits() == config.bits_per_token(128)
        assert packed.inlier_values.shape == (1, 124)
        assert packed.outlier_values.shape == (1, 4)

    def test_quantize_tokens_batch(self, rng):
        tokens = rng.normal(size=(10, 32))
        config = TokenQuantConfig(inlier_bits=8, outlier_count=2)
        assert len(PackedQuantizedTensor.pack(tokens, config)) == 10
        with pytest.raises(ValueError):
            PackedQuantizedTensor.pack(rng.normal(size=32), config)


class TestFakeQuantizeTokens:
    def test_matches_per_token_quantizer(self, rng):
        tokens = np.stack([token_with_outliers(rng, dim=64)[0] for _ in range(5)])
        config = TokenQuantConfig(inlier_bits=8, outlier_count=4)
        vectorized = fake_quantize_tokens(tokens, config)
        reference = np.stack([reference_quantize_token(t, config).dequantize() for t in tokens])
        assert vectorized.tobytes() == reference.tobytes()

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
    (Groups A/B) of the input's bytes.  The bound holds for float64 and
    float32 input alike (2.01x and 2.04x at the narrowest shape; Group C
    reads 1.38x at either precision there, since its scales are derived in
    the input's dtype).  An in-place call (``out=values``) on the outer
    product mean's tap allocates no input-sized buffer at all.
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
        for shape, dtype in itertools.product(self.SHAPES, (np.float64, np.float32)):
            values = np.random.default_rng(0).normal(size=shape).astype(dtype)
            tracemalloc.start()
            try:
                baseline = tracemalloc.get_traced_memory()[0]
                out = fake_quantize_tokens(values, config)
                peak = tracemalloc.get_traced_memory()[1] - baseline
            finally:
                tracemalloc.stop()
            assert out.shape == values.shape and out.dtype == dtype
            ratio = peak / values.nbytes
            assert ratio <= self.MAX_PEAK_RATIO, (
                f"group {group}, shape {shape}, {np.dtype(dtype).name}: "
                f"transient peak {ratio:.2f}x input bytes"
            )

    #: Peak traced bytes of an in-place call over ``input.nbytes``.
    MAX_IN_PLACE_RATIO = 0.1

    def test_in_place_outer_product_tap(self):
        """The outer product mean's float32 Group C tap, quantized into its own buffer."""
        config = AAQConfig.paper_optimal().config_for(GROUP_C)
        values = np.random.default_rng(0).normal(size=(96 * 96, 1024)).astype(np.float32)
        expected = fake_quantize_tokens(values, config)
        tracemalloc.start()
        try:
            baseline = tracemalloc.get_traced_memory()[0]
            out = fake_quantize_tokens(values, config, out=values)
            peak = tracemalloc.get_traced_memory()[1] - baseline
        finally:
            tracemalloc.stop()
        assert out is values and out.tobytes() == expected.tobytes()
        ratio = peak / values.nbytes
        assert ratio <= self.MAX_IN_PLACE_RATIO, f"in-place peak {ratio:.3f}x input bytes"


#: Token widths of the reference parity test: degenerate widths, the fold's
#: 2, 8, 16, 32, 96 and 1024, and both sides of each row-max strategy edge.
PARITY_WIDTHS = (1, 2, 3, 8, 16, 17, 32, 33, 63, 64, 96, 255, 256, 1024)

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


@given(tie_heavy_tokens())
@settings(max_examples=150, deadline=None)
def test_fake_quantize_tokens_byte_equal_to_reference_float32(case):
    """The same byte equality for float32 tokens, quantized in float32.

    Half the float64 test's examples: both precisions run the same code.
    """
    tokens, config = case
    tokens = tokens.astype(np.float32)
    result = fake_quantize_tokens(tokens, config)
    reference = reference_fake_quantize_tokens(tokens, config)
    assert result.dtype == reference.dtype == np.float32
    assert result.tobytes() == reference.tobytes()


@st.composite
def any_config_tokens(draw):
    """(tokens, config) of :func:`tie_heavy_tokens` under any supported precision."""
    tokens, config = draw(tie_heavy_tokens())
    config = TokenQuantConfig(
        inlier_bits=draw(st.sampled_from([2, 3, 4, 6, 8, 16])),
        outlier_count=config.outlier_count,
        outlier_bits=draw(st.sampled_from([8, 16, 32])),
    )
    return tokens.astype(draw(st.sampled_from([np.float32, np.float64]))), config


@given(any_config_tokens())
@settings(max_examples=60, deadline=None)
def test_out_is_values_gives_the_out_of_place_bytes(case):
    """``out=values`` for k = 0, 0 < k < H and k >= H, ties across row blocks."""
    tokens, config = case
    expected = fake_quantize_tokens(tokens, config)
    result = fake_quantize_tokens(tokens, config, out=tokens)
    assert result is tokens
    assert result.tobytes() == expected.tobytes()


class TestOutParameter:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_every_scheme_transform_in_place(self, rng, dtype):
        """Each scheme's transform writes the out-of-place bytes into ``out``."""
        shapes = ((4, 8, 8), (64, 32), (16, 96), (3, 300))
        for name, scheme in all_schemes().items():
            for group, transform in scheme.activation_transforms.items():
                for shape in shapes:
                    values = rng.normal(scale=3.0, size=shape).astype(dtype)
                    values.reshape(-1, shape[-1])[::5, :2] = 7.0  # tied top magnitudes
                    expected = transform(values)
                    result = transform(values, out=values)
                    assert result is values, (name, group, shape)
                    assert result.tobytes() == expected.tobytes(), (name, group, shape)

    def test_into_a_separate_buffer(self, rng):
        values = rng.normal(size=(50, 32)).astype(np.float32)
        before = values.copy()
        out = np.empty_like(values)
        config = TokenQuantConfig(inlier_bits=4, outlier_count=4)
        assert fake_quantize_tokens(values, config, out=out) is out
        assert out.tobytes() == fake_quantize_tokens(values, config).tobytes()
        assert values.tobytes() == before.tobytes()

    def test_rejects_a_buffer_it_cannot_fill(self, rng):
        values = rng.normal(size=(8, 16))
        config = TokenQuantConfig(inlier_bits=4, outlier_count=2)
        for out in (values.astype(np.float32), np.empty((8, 8)), np.empty((16, 16))[::2]):
            with pytest.raises(ValueError):
                fake_quantize_tokens(values, config, out=out)
