"""Test-side reference for ``repro.core.token_quant.fake_quantize_tokens``.

``reference_fake_quantize_tokens`` is the gather/scatter formulation the
library ran before the per-element scale pass: the top-k positions come from
one ``np.argpartition`` over the magnitudes, the outliers are gathered,
quantized on their own grid and scattered back over the inlier-grid
reconstruction, and both grids are clipped.  The library must reproduce it
byte for byte (``tests/test_token_quant.py``), and
``benchmarks/bench_token_quant.py`` times the library against it.
"""

from __future__ import annotations

import numpy as np

from repro.core.quantization import (
    dequantize_values,
    integer_bounds,
    quantize_values,
    symmetric_scale,
)


def reference_fake_quantize_tokens(values, config):
    """Token-wise fake quantization by top-k gather, clip and scatter."""
    values = np.asarray(values, dtype=np.float64)
    original_shape = values.shape
    flat = values.reshape(-1, original_shape[-1])
    count = min(config.outlier_count, flat.shape[-1])

    out = np.abs(flat)
    if count > 0:
        positions = np.argpartition(out, -count, axis=-1)[:, -count:].copy()
        outliers = np.take_along_axis(flat, positions, axis=-1)
        np.put_along_axis(out, positions, 0.0, axis=-1)
    inlier_scale = symmetric_scale(out.max(axis=-1, keepdims=True), config.inlier_bits)
    qmax = integer_bounds(config.inlier_bits)
    np.divide(flat, inlier_scale, out=out)
    np.round(out, out=out)
    np.clip(out, -qmax, qmax, out=out)
    np.multiply(out, inlier_scale, out=out)

    if count > 0:
        outlier_max = np.abs(outliers).max(axis=-1, keepdims=True)
        outlier_scale = symmetric_scale(outlier_max, config.outlier_bits)
        outlier_recon = dequantize_values(
            quantize_values(outliers, outlier_scale, config.outlier_bits), outlier_scale
        )
        np.put_along_axis(out, positions, outlier_recon, axis=-1)
    return out.reshape(original_shape)
