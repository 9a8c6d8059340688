"""Property tests for the batched packed-quantization path (SoA layout).

Required parity properties:

* ``quantize_token`` + ``dequantize`` applied row-wise equals
  ``fake_quantize_tokens`` on the same array,
* ``PackedQuantizedTensor.unpack(pack(x))`` matches the per-token path
  bit-for-bit — including ``outlier_count >= hidden_dim`` and all-zero tokens.
"""

import itertools

import numpy as np
import pytest

from repro.core import (
    PackedQuantizedTensor,
    TokenQuantConfig,
    blocked_layout_for,
    fake_quantize_tokens,
    pack_packed_tensor,
    pack_quantized_tokens,
    pack_tokens_into_blocks,
    packed_fake_quantize_tokens,
    quantize_token,
    quantize_tokens,
    quantize_tokens_packed,
    unpack_packed_tensor,
)
from repro.core.aaq import AAQConfig, AAQQuantizer
from repro.ppm import GROUPS

CONFIGS = [
    TokenQuantConfig(inlier_bits=4, outlier_count=4),
    TokenQuantConfig(inlier_bits=8, outlier_count=4),
    TokenQuantConfig(inlier_bits=4, outlier_count=0),
    TokenQuantConfig(inlier_bits=8, outlier_count=16),
]


@pytest.fixture
def tokens(rng):
    values = rng.normal(size=(96, 64))
    values[::9] *= 30.0  # outlier-heavy tokens, as in the pair residual stream
    return values


class TestRowwiseEquivalence:
    @pytest.mark.parametrize("config", CONFIGS)
    def test_quantize_token_rowwise_equals_fake_quantize(self, tokens, config):
        for dtype in (np.float64, np.float32):
            values = tokens.astype(dtype)
            fake = fake_quantize_tokens(values, config)
            for row, expected in zip(values, fake):
                assert np.array_equal(quantize_token(row, config).dequantize(), expected)

    @pytest.mark.parametrize("config", CONFIGS)
    def test_unpack_pack_matches_per_token_path(self, tokens, config):
        packed = PackedQuantizedTensor.pack(tokens, config)
        reconstructed = packed.unpack()
        for i, row in enumerate(tokens):
            token = quantize_token(row, config)
            assert np.array_equal(token.dequantize(), reconstructed[i])
            assert np.array_equal(token.inlier_values, packed.inlier_values[i])
            assert np.array_equal(token.inlier_indices, packed.inlier_indices[i])
            assert np.array_equal(token.outlier_values, packed.outlier_values[i])
            assert np.array_equal(token.outlier_indices, packed.outlier_indices[i])
            assert token.scale == packed.scales[i]
            assert token.outlier_scale == packed.outlier_scales[i]

    def test_outlier_count_exceeding_hidden_dim(self, rng):
        config = TokenQuantConfig(inlier_bits=4, outlier_count=64)
        values = rng.normal(size=(17, 16))  # every value becomes an outlier
        packed = PackedQuantizedTensor.pack(values, config)
        assert packed.inlier_values.shape == (17, 0)
        assert packed.outlier_values.shape == (17, 16)
        for i, row in enumerate(values):
            token = quantize_token(row, config)
            assert np.array_equal(token.dequantize(), packed.unpack()[i])
            assert token.scale == packed.scales[i]

    def test_all_zero_tokens_round_trip_to_zero(self):
        for config in CONFIGS:
            values = np.zeros((5, 32))
            packed = PackedQuantizedTensor.pack(values, config)
            assert np.array_equal(packed.unpack(), values)
            for i in range(5):
                token = quantize_token(values[i], config)
                assert token.scale == packed.scales[i]
                assert token.outlier_scale == packed.outlier_scales[i]
                assert np.array_equal(token.dequantize(), np.zeros(32))

    def test_packed_fake_quantize_equals_fused_expression(self, tokens):
        for config, dtype in itertools.product(CONFIGS, (np.float64, np.float32)):
            fused = fake_quantize_tokens(tokens.astype(dtype), config)
            via_layout = packed_fake_quantize_tokens(tokens.astype(dtype), config)
            assert fused.dtype == via_layout.dtype == dtype
            assert fused.tobytes() == via_layout.tobytes()
        # >2-D tensors are flattened to tokens along the last axis, like the
        # activation taps do.
        cube = tokens.reshape(4, 24, 64)
        assert np.array_equal(
            packed_fake_quantize_tokens(cube, CONFIGS[0]),
            fake_quantize_tokens(cube, CONFIGS[0]),
        )


class TestLegacyListAPI:
    def test_quantize_tokens_matches_per_token_objects(self, tokens):
        config = CONFIGS[0]
        via_packed = quantize_tokens(tokens, config)
        assert len(via_packed) == tokens.shape[0]
        for row, token in zip(tokens, via_packed):
            reference = quantize_token(row, config)
            assert np.array_equal(reference.dequantize(), token.dequantize())
            assert reference.scale == token.scale
        with pytest.raises(ValueError):
            quantize_tokens(tokens[0], config)  # 1-D input still rejected

    def test_from_tokens_round_trip(self, tokens):
        config = CONFIGS[1]
        packed = quantize_tokens_packed(tokens, config)
        rebuilt = PackedQuantizedTensor.from_tokens(packed.to_tokens())
        assert np.array_equal(rebuilt.unpack(), packed.unpack())
        assert np.array_equal(rebuilt.scales, packed.scales)
        with pytest.raises(ValueError):
            PackedQuantizedTensor.from_tokens([])


class TestMemoryLayoutWiring:
    def test_serializer_matches_per_token_serializer(self, tokens):
        for config in CONFIGS:
            packed = quantize_tokens_packed(tokens, config)
            flat_columnar = pack_packed_tensor(packed)
            flat_legacy = pack_quantized_tokens(packed.to_tokens())
            assert np.array_equal(flat_columnar, flat_legacy)
            # pack_quantized_tokens dispatches packed tensors to the fast path
            assert np.array_equal(pack_quantized_tokens(packed), flat_legacy)

    def test_unpack_packed_tensor_round_trip(self, tokens):
        config = CONFIGS[0]
        packed = quantize_tokens_packed(tokens, config)
        restored = unpack_packed_tensor(pack_packed_tensor(packed), packed)
        assert np.array_equal(restored.unpack(), packed.unpack())
        assert np.array_equal(restored.outlier_indices, packed.outlier_indices)
        assert restored.outlier_indices.dtype == np.int64

    def test_blocked_layout_for_matches_count_based_packing(self, tokens):
        config = CONFIGS[0]
        packed = quantize_tokens_packed(tokens, config)
        layout = blocked_layout_for(packed, channel_bytes=64)
        reference = pack_tokens_into_blocks(len(packed), config, packed.hidden_dim, 64)
        assert len(layout.blocks) == len(reference.blocks)
        assert layout.total_bytes == reference.total_bytes

    def test_bits_accounting(self, tokens):
        config = CONFIGS[0]
        packed = quantize_tokens_packed(tokens, config)
        assert packed.bits() == len(packed) * config.bits_per_token(packed.hidden_dim)


class TestPackedAAQContext:
    def test_packed_quantizer_matches_fused_quantizer(self, rng):
        values = rng.normal(size=(40, 32))
        fused = AAQQuantizer(AAQConfig.paper_optimal(), use_packed=False)
        packed = AAQQuantizer(AAQConfig.paper_optimal(), use_packed=True)
        for group in GROUPS:
            assert np.array_equal(
                fused.quantize(group, values), packed.quantize(group, values)
            )

    def test_packed_scheme_prediction_identical(self):
        """QuantizedPPM through the packed layout equals the fused AAQ path."""
        from repro.ppm import PPMConfig
        from repro.ppm.model import ProteinStructureModel
        from repro.ppm.quantized import AAQScheme, QuantizedPPM
        from repro.proteins import generate_protein

        target = generate_protein(24, seed=3)
        for dtype in ("float64", "float32"):
            model = ProteinStructureModel(PPMConfig.tiny().with_dtype(dtype), seed=0)
            fused = QuantizedPPM(model, AAQScheme()).predict(target)
            packed = QuantizedPPM(model, AAQScheme(use_packed=True)).predict(target)
            assert fused.pair_representation.dtype == dtype
            assert np.array_equal(fused.structure.coordinates, packed.structure.coordinates)
