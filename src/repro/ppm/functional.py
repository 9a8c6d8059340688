"""Stateless numeric primitives shared by the PPM modules."""

from __future__ import annotations

import numpy as np


def inplace_target(array: np.ndarray, *operands) -> np.ndarray | None:
    """``array`` as the ``out=`` of a ufunc over it and ``operands``, if that is exact.

    Writing into ``array`` is the same arithmetic as allocating when numpy's
    promoted result dtype is ``array``'s own float dtype; otherwise (integer
    input, float32 against a float64 operand) this returns ``None`` so the
    ufunc allocates, keeping the out-of-place result dtype.
    """
    if array.dtype.kind == "f" and np.result_type(array, *operands) == array.dtype:
        return array
    return None


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic sigmoid.

    Float inputs keep their dtype; integer and boolean inputs give float64.
    ``exp`` only ever sees ``-|x|``, so it cannot overflow.  Every step after
    ``|x|`` writes into that buffer or into the returned one.
    """
    x = np.asarray(x)
    if not np.issubdtype(x.dtype, np.floating):
        x = x.astype(np.float64)
    e = np.abs(x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    out = np.where(x >= 0, 1.0, e)
    e += 1.0
    out /= e
    return out


def relu(x: np.ndarray) -> np.ndarray:
    """Rectified linear unit."""
    return np.maximum(x, 0.0)


def gelu(x: np.ndarray) -> np.ndarray:
    """Gaussian error linear unit (tanh approximation)."""
    return 0.5 * x * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (x + 0.044715 * x ** 3)))


#: Longest rows, in bytes, :func:`row_max` folds column by column: 32
#: float32 or 16 float64 values.  Folding slows down several-fold at a
#: 256-byte row stride (32 float64 columns), where the argmax gather does not.
FOLD_MAX_ROW_BYTES = 128
#: Narrowest rows :func:`row_max` reduces with numpy's ``max`` itself.
REDUCE_MIN_WIDTH = 256


def row_max(x: np.ndarray, absolute: bool = False, scratch: np.ndarray | None = None) -> np.ndarray:
    """Exact maximum of ``x`` (of ``|x|`` when ``absolute``) along its last axis.

    numpy's ``max`` reduction pays about 110 ns per row, which dominates
    narrow rows, so the pass depends on the row width W:

    * rows of at most 128 bytes (W <= 32 in float32, W <= 16 in float64):
      fold the columns with ``np.maximum`` (taking ``|x|`` one column at a
      time); 0.32 ms at (9216, 32) float32 where ``abs().max`` takes 1.1 ms;
    * wider rows up to W = 255: gather each row at its ``argmax`` (of
      ``|x|``, written into ``scratch`` when one is given, else into a new
      array); 0.6 ms at (6144, 96) float32 against 1.0 ms;
    * W >= 256: ``max``, or ``max(max, -min)`` for ``|x|`` with no ``abs``
      pass.

    Each pass returns an element of its row (or its negation), so the result
    equals ``np.max(x, axis=-1)`` (``np.abs(x).max(-1)``) bit for bit,
    infinities and NaN included, except that a zero maximum may carry either
    sign.  Integer and bool input keep their dtype.
    """
    width = x.shape[-1]
    if 0 < width * x.itemsize <= FOLD_MAX_ROW_BYTES:
        row = np.array(x[..., 0])
        column = None
        if absolute:
            np.abs(row, out=row)
            column = np.empty_like(row)
        for j in range(1, width):
            np.maximum(row, np.abs(x[..., j], out=column) if absolute else x[..., j], out=row)
        return row
    if 0 < width < REDUCE_MIN_WIDTH:
        if absolute:
            x = np.abs(x, out=scratch)
        return np.take_along_axis(x, np.argmax(x, axis=-1)[..., None], axis=-1)[..., 0]
    if absolute:
        return np.maximum(x.max(axis=-1), -x.min(axis=-1))
    return x.max(axis=-1)


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis``.

    The shift along the last axis is :func:`row_max` (the same bytes as
    ``np.max``, faster on narrow rows).  Exponentiates and normalizes the
    shifted copy in place; integer input gives float64 (``exp`` casts it),
    as the out-of-place form did.
    """
    x = np.asarray(x)
    if axis in (-1, x.ndim - 1):
        shifted = x - row_max(x)[..., None]
    else:
        shifted = x - np.max(x, axis=axis, keepdims=True)
    exp = np.exp(shifted, out=inplace_target(shifted))
    exp /= np.sum(exp, axis=axis, keepdims=True)
    return exp


def layer_norm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Layer normalization over the last axis with scale and shift.

    ``x.var`` squares and sums its own ``x - x.mean()``; this computes that
    difference once and reuses it.  ``x.var`` divides by an ``np.intp`` count,
    which runs float32 through a float64 loop; the count here is a Python
    int, so float32 divides in float32.  Rounding a quotient to float64 and
    then to float32 gives the float32 rounding (53 >= 2 * 24 + 2), so the
    variance is bit-identical to ``x.var(axis=-1)`` (for every dtype but
    float16, whose mean ``x.mean`` accumulates in float32).  Normalization,
    scale and shift then run in place wherever that keeps numpy's result
    dtype (float32 input times float64 ``gamma`` gives float64, as before).
    """
    centered = x - x.mean(axis=-1, keepdims=True)
    variance = np.square(centered).sum(axis=-1, keepdims=True)
    variance /= centered.shape[-1]
    centered /= np.sqrt(variance + eps)
    out = inplace_target(centered, gamma, beta)
    return np.add(np.multiply(centered, gamma, out=out), beta, out=out)
