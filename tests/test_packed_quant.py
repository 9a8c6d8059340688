"""Property tests for the packed quantization store (SoA layout, Fig. 7).

Required parity properties:

* ``PackedQuantizedTensor.pack`` equals the per-token reference
  (``tests/reference_quant.py``) field for field, row by row, and its
  ``unpack`` equals ``fake_quantize_tokens`` on the same array byte for
  byte — including ``outlier_count >= hidden_dim`` and all-zero tokens,
* an AAQ fold whose taps go through ``pack(...).unpack()`` predicts the
  coordinates of the fused quantizer.
"""

import itertools

import numpy as np
import pytest
from reference_quant import (
    assert_packed_row_equals,
    packed_aaq_context,
    packed_fake_quantize,
    reference_quantize_token,
)

from repro.core import (
    PackedQuantizedTensor,
    TokenQuantConfig,
    blocked_layout_for,
    fake_quantize_tokens,
    pack_packed_tensor,
    pack_tokens_into_blocks,
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
                reference = reference_quantize_token(row, config)
                assert reference.dequantize().tobytes() == expected.tobytes()

    @pytest.mark.parametrize("config", CONFIGS)
    def test_unpack_pack_matches_per_token_path(self, tokens, config):
        packed = PackedQuantizedTensor.pack(tokens, config)
        reconstructed = packed.unpack()
        for i, row in enumerate(tokens):
            reference = reference_quantize_token(row, config)
            assert_packed_row_equals(packed, i, reference)
            assert np.array_equal(reference.dequantize(), reconstructed[i])

    def test_outlier_count_exceeding_hidden_dim(self, rng):
        config = TokenQuantConfig(inlier_bits=4, outlier_count=64)
        values = rng.normal(size=(17, 16))  # every value becomes an outlier
        packed = PackedQuantizedTensor.pack(values, config)
        assert packed.inlier_values.shape == (17, 0)
        assert packed.outlier_values.shape == (17, 16)
        for i, row in enumerate(values):
            reference = reference_quantize_token(row, config)
            assert_packed_row_equals(packed, i, reference)
            assert np.array_equal(reference.dequantize(), packed.unpack()[i])

    def test_all_zero_tokens_round_trip_to_zero(self):
        for config in CONFIGS:
            values = np.zeros((5, 32))
            packed = PackedQuantizedTensor.pack(values, config)
            assert np.array_equal(packed.unpack(), values)
            for i in range(5):
                assert_packed_row_equals(packed, i, reference_quantize_token(values[i], config))

    def test_packed_fake_quantize_equals_fused_expression(self, tokens):
        for config, dtype in itertools.product(CONFIGS, (np.float64, np.float32)):
            fused = fake_quantize_tokens(tokens.astype(dtype), config)
            via_layout = PackedQuantizedTensor.pack(tokens.astype(dtype), config).unpack()
            assert fused.dtype == via_layout.dtype == dtype
            assert fused.tobytes() == via_layout.tobytes()
        # >2-D tensors are flattened to tokens along the last axis, like the
        # activation taps do.
        cube = tokens.reshape(4, 24, 64)
        assert np.array_equal(
            packed_fake_quantize(cube, CONFIGS[0]),
            fake_quantize_tokens(cube, CONFIGS[0]),
        )


class TestMemoryLayoutWiring:
    def test_serializer_matches_per_token_serializer(self, tokens):
        """The columnar serializer emits each reference token's fields in Fig. 7 order."""
        for config in CONFIGS:
            packed = PackedQuantizedTensor.pack(tokens, config)
            per_token = []
            for row in tokens:
                reference = reference_quantize_token(row, config)
                per_token += [
                    reference.inlier_values,
                    reference.outlier_values,
                    [reference.scale, reference.outlier_scale],
                    reference.outlier_indices,
                ]
            expected = np.concatenate([np.asarray(part, dtype=np.float64) for part in per_token])
            assert np.array_equal(pack_packed_tensor(packed), expected)

    def test_unpack_packed_tensor_round_trip(self, tokens):
        config = CONFIGS[0]
        packed = PackedQuantizedTensor.pack(tokens, config)
        restored = unpack_packed_tensor(pack_packed_tensor(packed), packed)
        assert np.array_equal(restored.unpack(), packed.unpack())
        assert np.array_equal(restored.outlier_indices, packed.outlier_indices)
        assert restored.outlier_indices.dtype == np.int64

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_unpack_packed_tensor_keeps_the_dtype(self, tokens, dtype):
        for config in CONFIGS:
            packed = PackedQuantizedTensor.pack(tokens.astype(dtype), config)
            restored = unpack_packed_tensor(pack_packed_tensor(packed), packed)
            for name in ("inlier_values", "outlier_values", "scales", "outlier_scales"):
                assert getattr(restored, name).dtype == dtype
                assert np.array_equal(getattr(restored, name), getattr(packed, name))
            assert restored.unpack().dtype == dtype
            assert restored.unpack().tobytes() == packed.unpack().tobytes()

    def test_blocked_layout_for_matches_count_based_packing(self, tokens):
        config = CONFIGS[0]
        packed = PackedQuantizedTensor.pack(tokens, config)
        layout = blocked_layout_for(packed, channel_bytes=64)
        reference = pack_tokens_into_blocks(len(packed), config, packed.hidden_dim, 64)
        assert len(layout.blocks) == len(reference.blocks)
        assert layout.total_bytes == reference.total_bytes

    def test_bits_accounting(self, tokens):
        config = CONFIGS[0]
        packed = PackedQuantizedTensor.pack(tokens, config)
        assert packed.bits() == len(packed) * config.bits_per_token(packed.hidden_dim)


class TestPackedAAQContext:
    def test_packed_quantizer_matches_fused_quantizer(self, rng):
        values = rng.normal(size=(40, 32))
        fused = AAQQuantizer(AAQConfig.paper_optimal())
        packed = packed_aaq_context()
        for group in GROUPS:
            assert np.array_equal(
                fused.quantize(group, values), packed.process("tap", group, values)
            )

    def test_packed_scheme_prediction_identical(self):
        """A fold through the packed layout equals the fused AAQ fold."""
        from repro.core import lightnobel_aaq
        from repro.ppm import PPMConfig
        from repro.ppm.model import ProteinStructureModel
        from repro.ppm.quantized import QuantizedPPM
        from repro.proteins import generate_protein

        target = generate_protein(24, seed=3)
        for dtype in ("float64", "float32"):
            model = ProteinStructureModel(PPMConfig.tiny().with_dtype(dtype), seed=0)
            fused = QuantizedPPM(model, lightnobel_aaq()).predict(target)
            packed = model.predict_from_structure(target, ctx=packed_aaq_context())
            assert fused.pair_representation.dtype == dtype
            assert np.array_equal(fused.structure.coordinates, packed.structure.coordinates)
