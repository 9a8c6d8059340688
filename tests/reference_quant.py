"""Test-side references for the token-wise quantizers of ``repro.core.token_quant``.

``reference_fake_quantize_tokens`` is the gather/scatter formulation the
library ran before the per-element scale pass: the top-k positions come from
one ``np.argpartition`` over the magnitudes, the outliers are gathered,
quantized on their own grid and scattered back over the inlier-grid
reconstruction, and both grids are clipped.  It computes in the input's
float precision (float32 or float64; anything else as float64), with each
scale derived in float64 and cast to that precision.  The library must
reproduce it byte for byte at both precisions
(``tests/test_token_quant.py``), and ``benchmarks/bench_token_quant.py``
times the library against it.

``reference_quantize_token`` is the per-token form of the Fig. 7 store: one
token's top-k outliers, inliers, integer grids and two scales, computed from
a 1-D ``np.argpartition`` over that token alone.
``PackedQuantizedTensor.pack`` must equal it field for field, row by row.

``packed_aaq_context`` quantizes every tap of a fold through the store
itself, ``PackedQuantizedTensor.pack(...).unpack()``, so the fold goldens
pin the Fig. 7 path end to end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.aaq import AAQConfig
from repro.core.quantization import (
    dequantize_values,
    integer_bounds,
    quantize_values,
    symmetric_scale,
)
from repro.core.token_quant import PackedQuantizedTensor, TokenQuantConfig
from repro.ppm.activation_tap import GROUPS, TransformingContext


def reference_fake_quantize_tokens(values, config):
    """Token-wise fake quantization by top-k gather, clip and scatter."""
    values = np.asarray(values)
    if values.dtype not in (np.float32, np.float64):
        values = values.astype(np.float64)
    dtype = values.dtype
    original_shape = values.shape
    flat = values.reshape(-1, original_shape[-1])
    count = min(config.outlier_count, flat.shape[-1])

    out = np.abs(flat)
    if count > 0:
        positions = np.argpartition(out, -count, axis=-1)[:, -count:].copy()
        outliers = np.take_along_axis(flat, positions, axis=-1)
        np.put_along_axis(out, positions, 0.0, axis=-1)
    inlier_scale = symmetric_scale(out.max(axis=-1, keepdims=True), config.inlier_bits).astype(dtype)
    qmax = integer_bounds(config.inlier_bits)
    np.divide(flat, inlier_scale, out=out)
    np.round(out, out=out)
    np.clip(out, -qmax, qmax, out=out)
    np.multiply(out, inlier_scale, out=out)

    if count > 0:
        outlier_max = np.abs(outliers).max(axis=-1, keepdims=True)
        outlier_scale = symmetric_scale(outlier_max, config.outlier_bits).astype(dtype)
        outlier_recon = dequantize_values(
            quantize_values(outliers, outlier_scale, config.outlier_bits), outlier_scale
        )
        np.put_along_axis(out, positions, outlier_recon, axis=-1)
    return out.reshape(original_shape)


@dataclass
class ReferenceToken:
    """One token in the Fig. 7 layout, held field by field."""

    inlier_values: np.ndarray      # signed integers on the inlier grid
    inlier_indices: np.ndarray     # ascending positions of the inliers
    outlier_values: np.ndarray     # integers on the outlier grid
    outlier_indices: np.ndarray    # ascending positions of the k outliers
    scale: np.floating             # inlier scale, in the token's precision
    outlier_scale: np.floating     # outlier scale, in the token's precision

    def dequantize(self) -> np.ndarray:
        """The token vector, in the precision of its scales."""
        hidden_dim = self.inlier_indices.size + self.outlier_indices.size
        token = np.zeros(hidden_dim, dtype=np.asarray(self.scale).dtype)
        token[self.inlier_indices] = dequantize_values(self.inlier_values, self.scale)
        token[self.outlier_indices] = dequantize_values(self.outlier_values, self.outlier_scale)
        return token


def reference_quantize_token(token, config: TokenQuantConfig) -> ReferenceToken:
    """Quantize one token on its own: top-k split, two scales, two grids."""
    token = np.asarray(token)
    if token.dtype not in (np.float32, np.float64):
        token = token.astype(np.float64)
    token = token.reshape(-1)
    count = min(config.outlier_count, token.size)
    if count:
        outlier_indices = np.sort(np.argpartition(np.abs(token), -count)[-count:])
    else:
        outlier_indices = np.empty(0, dtype=np.intp)
    is_inlier = np.ones(token.size, dtype=bool)
    is_inlier[outlier_indices] = False
    inlier_indices = np.flatnonzero(is_inlier)
    inliers = token[inlier_indices]
    outliers = token[outlier_indices]
    inlier_max = np.abs(inliers).max() if inliers.size else 0.0
    outlier_max = np.abs(outliers).max() if outliers.size else 0.0
    scale = symmetric_scale(inlier_max, config.inlier_bits, token.dtype)
    outlier_scale = symmetric_scale(outlier_max, config.outlier_bits, token.dtype)
    return ReferenceToken(
        inlier_values=quantize_values(inliers, scale, config.inlier_bits),
        inlier_indices=inlier_indices,
        outlier_values=quantize_values(outliers, outlier_scale, config.outlier_bits),
        outlier_indices=outlier_indices,
        scale=scale,
        outlier_scale=outlier_scale,
    )


def assert_packed_row_equals(packed: PackedQuantizedTensor, row: int, reference: ReferenceToken) -> None:
    """Row ``row`` of ``packed`` holds exactly the reference token's fields, byte for byte."""
    assert packed.inlier_values[row].tobytes() == reference.inlier_values.tobytes()
    assert packed.outlier_values[row].tobytes() == reference.outlier_values.tobytes()
    assert np.array_equal(packed.inlier_indices[row], reference.inlier_indices)
    assert np.array_equal(packed.outlier_indices[row], reference.outlier_indices)
    assert packed.scales[row].tobytes() == reference.scale.tobytes()
    assert packed.outlier_scales[row].tobytes() == reference.outlier_scale.tobytes()


def packed_fake_quantize(values, config: TokenQuantConfig) -> np.ndarray:
    """Fake quantization through the Fig. 7 store: pack the tokens, unpack them."""
    values = np.asarray(values)
    flat = values.reshape(-1, values.shape[-1])
    return PackedQuantizedTensor.pack(flat, config).unpack().reshape(values.shape)


def packed_aaq_context(config: AAQConfig = None, recorder=None) -> TransformingContext:
    """An AAQ activation context that stores every tap in the packed layout."""
    config = config or AAQConfig.paper_optimal()

    def transform(group_config):
        # The offered buffer is not used: the store builds its own arrays.
        return lambda values, out=None: packed_fake_quantize(values, group_config)

    return TransformingContext(
        transforms={group: transform(config.config_for(group)) for group in GROUPS},
        recorder=recorder,
    )
