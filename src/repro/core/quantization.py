"""Uniform symmetric quantization primitives (Section 2.2 / Equation 1).

All quantizers here are *fake-quantizers*: they quantize to an integer grid
and immediately dequantize back to floating point.  That is exactly what the
paper's accuracy study needs (the quantization error is what matters), while
the size/footprint accounting uses the bit-widths directly.

Granularities follow Section 2.2:

* tensor-wise  — one scaling factor for the whole tensor,
* channel-wise — one scaling factor per channel (last-axis index),
* token-wise   — one scaling factor per token (vector along the last axis).

Every fake-quantizer computes in its input's float precision: float32 in
gives float32 out, float64 in gives float64 out, and any other input
(integer, bool, float16) is quantized as float64.  Scaling factors are
derived in that precision too, bytewise what a float64 derivation rounded to
it would give (:func:`symmetric_scale`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..ppm.functional import row_max


def integer_bounds(bits: int) -> int:
    """Largest representable magnitude of a signed ``bits``-bit integer grid."""
    if bits < 2 or bits > 32:
        raise ValueError("bits must be between 2 and 32")
    return 2 ** (bits - 1) - 1


def float_values(values: np.ndarray) -> np.ndarray:
    """``values`` as an array of the float precision the fake-quantizers compute in.

    float32 and float64 arrays pass through unchanged (no copy); every other
    dtype is converted to float64.
    """
    values = np.asarray(values)
    if values.dtype == np.float32 or values.dtype == np.float64:
        return values
    return values.astype(np.float64)


def symmetric_scale(
    max_abs: np.ndarray | float, bits: int, dtype: np.typing.DTypeLike = np.float64
) -> np.ndarray | float:
    """Scaling factor of Equation 1: ``sigma = M / (2^(m-1) - 1)``.

    ``max_abs`` holds maxima of values of ``dtype``, the precision of the
    values it scales; the scale is divided in that precision, with no
    float64 copy, and floored at the ``dtype`` image of ``1e-12 / qmax``.
    That is bytewise ``max(M, 1e-12) / qmax`` divided in float64 and then
    rounded to ``dtype``.  A quotient of float32 operands rounded through
    float64 is the correctly rounded float32 quotient (53 >= 2 * 24 + 2).
    Where ``qmax`` rounds to a power of two in float32 (``bits > 25``), the
    float32 quotient is exact and the true one lies less than half an ulp
    above it.  Rounding is monotone, so the floor moves past the division.
    """
    dtype = np.dtype(dtype)
    qmax = integer_bounds(bits)
    floor = dtype.type(np.float64(1e-12) / qmax)
    return np.maximum(np.asarray(max_abs, dtype=dtype) / dtype.type(qmax), floor)


def quantize_values(values: np.ndarray, scale: np.ndarray | float, bits: int) -> np.ndarray:
    """Quantize ``values`` onto the signed integer grid defined by ``scale``."""
    qmax = integer_bounds(bits)
    quantized = np.round(values / scale)
    return np.clip(quantized, -qmax, qmax)


def dequantize_values(quantized: np.ndarray, scale: np.ndarray | float) -> np.ndarray:
    """Map integer-grid values back to real values."""
    return quantized * scale


@dataclass(frozen=True)
class QuantizationError:
    """Error summary of a quantize/dequantize round trip."""

    rmse: float
    max_abs_error: float
    relative_rmse: float


def quantization_error(original: np.ndarray, reconstructed: np.ndarray) -> QuantizationError:
    """RMSE / max error / relative RMSE between an array and its reconstruction."""
    diff = np.asarray(original, dtype=np.float64) - np.asarray(reconstructed, dtype=np.float64)
    rmse = float(np.sqrt(np.mean(diff ** 2)))
    denom = float(np.sqrt(np.mean(np.asarray(original, dtype=np.float64) ** 2)))
    return QuantizationError(
        rmse=rmse,
        max_abs_error=float(np.max(np.abs(diff))) if diff.size else 0.0,
        relative_rmse=rmse / max(denom, 1e-12),
    )


def result_buffer(values: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    """The array a fake-quantizer writes its result into: ``out``, or a new one.

    ``out`` must be a C-contiguous array of ``values``' shape and float dtype
    (the dtype :func:`float_values` gives).  It may be ``values`` itself:
    every quantizer reads what it needs of an element before writing it.
    """
    if out is None:
        return np.empty(values.shape, dtype=values.dtype)
    if out.shape != values.shape or out.dtype != values.dtype or not out.flags.c_contiguous:
        raise ValueError(
            f"out must be a C-contiguous {values.dtype} array of shape {values.shape}, "
            f"got {out.dtype} {out.shape}"
        )
    return out


def _round_to_grid(values: np.ndarray, scale, bits: int, out: np.ndarray) -> np.ndarray:
    """``out = clip(round(values / scale), -qmax, qmax) * scale``, in place."""
    qmax = integer_bounds(bits)
    np.divide(values, scale, out=out)
    np.round(out, out=out)
    np.clip(out, -qmax, qmax, out=out)
    return np.multiply(out, scale, out=out)


def fake_quantize_tensorwise(values: np.ndarray, bits: int, out: np.ndarray | None = None) -> np.ndarray:
    """Quantize/dequantize with a single scaling factor for the whole tensor.

    ``out`` (see :func:`result_buffer`) receives the result; it may be
    ``values``.
    """
    values = float_values(values)
    scale = symmetric_scale(np.max(np.abs(values)) if values.size else 0.0, bits, values.dtype)
    return _round_to_grid(values, scale, bits, result_buffer(values, out))


def fake_quantize_channelwise(values: np.ndarray, bits: int, out: np.ndarray | None = None) -> np.ndarray:
    """Quantize/dequantize with one scaling factor per channel (last axis).

    ``out`` (see :func:`result_buffer`) receives the result; it may be
    ``values``.
    """
    values = float_values(values)
    out = result_buffer(values, out)
    flat = values.reshape(-1, values.shape[-1])
    scale = symmetric_scale(np.max(np.abs(flat), axis=0), bits, values.dtype)
    _round_to_grid(flat, scale, bits, out.reshape(flat.shape))
    return out


def _abs_row_max(flat: np.ndarray, scratch: np.ndarray | None) -> np.ndarray:
    """``max |x|`` of every row of ``flat``: :func:`~repro.ppm.functional.row_max`.

    Rows of up to 128 bytes (32 float32 or 16 float64 values) fold column by
    column, rows up to 255 wide take one ``abs`` pass into ``scratch`` (a
    new array when ``None``) and gather each row at its ``argmax``, and
    wider rows reduce ``max`` and ``min`` with no ``abs`` pass.  Every pass
    is exact, so all three equal ``np.abs(flat).max(-1)`` up to the sign of
    a zero maximum, which :func:`symmetric_scale` clamps to the same
    ``1e-12`` floor.
    """
    return row_max(flat, absolute=True, scratch=scratch)


def _scale_round(values: np.ndarray, scales: np.ndarray, out: np.ndarray) -> None:
    """``out = round(values / scales) * scales``, one element at a time.

    No clip: every ``|x| <= M`` and ``s = max(M, 1e-12) / qmax``, so
    ``|x / s|`` exceeds ``qmax`` by at most a few ulps and rounds to at most
    ``qmax``.
    """
    np.divide(values, scales, out=out)
    np.round(out, out=out)
    np.multiply(out, scales, out=out)


def fake_quantize_tokenwise(values: np.ndarray, bits: int, out: np.ndarray | None = None) -> np.ndarray:
    """Quantize/dequantize with one scaling factor per token (last-axis vector).

    The one token-wise pass without outliers: each token's maximum magnitude
    sets its scale, and every element is divided, rounded and multiplied back
    into the result, which is also the scratch of the maximum.  The transient
    peak, the result included, is about 1x the bytes of the float input.
    ``out`` (see :func:`result_buffer`) receives the result; with
    ``out is values`` nothing of input size is allocated for tokens of up to
    128 bytes or from 256 values wide.
    :func:`~repro.core.token_quant.fake_quantize_tokens` runs its ``k == 0``
    and ``k >= H`` cases through here.
    """
    values = float_values(values)
    result = result_buffer(values, out)
    flat = values.reshape(-1, values.shape[-1])
    flat_out = result.reshape(flat.shape)
    scratch = None if np.may_share_memory(flat_out, flat) else flat_out
    _scale_round(flat, symmetric_scale(_abs_row_max(flat, scratch), bits, flat.dtype)[:, None], flat_out)
    return result


GRANULARITY_FUNCTIONS = {
    "tensor": fake_quantize_tensorwise,
    "channel": fake_quantize_channelwise,
    "token": fake_quantize_tokenwise,
}


def fake_quantize(
    values: np.ndarray, bits: int, granularity: str = "token", out: np.ndarray | None = None
) -> np.ndarray:
    """Dispatch fake quantization by granularity name."""
    try:
        function = GRANULARITY_FUNCTIONS[granularity]
    except KeyError:
        raise ValueError(
            f"unknown granularity {granularity!r}; expected one of {sorted(GRANULARITY_FUNCTIONS)}"
        ) from None
    return function(values, bits, out=out)
