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


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis``.

    Exponentiates and normalizes the shifted copy in place; integer input
    gives float64 (``exp`` casts it), as the out-of-place form did.
    """
    shifted = x - np.max(x, axis=axis, keepdims=True)
    exp = np.exp(shifted, out=inplace_target(shifted))
    exp /= np.sum(exp, axis=axis, keepdims=True)
    return exp


def layer_norm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Layer normalization over the last axis with scale and shift.

    ``x.var`` squares and sums its own ``x - x.mean()``; this computes that
    difference once and reuses it, dividing by the same ``np.intp`` count, so
    the variance is bit-identical to ``x.var(axis=-1)`` (for every dtype but
    float16, whose mean ``x.mean`` accumulates in float32).  Normalization,
    scale and shift then run in place wherever that keeps numpy's result
    dtype (float32 input times float64 ``gamma`` gives float64, as before).
    """
    centered = x - x.mean(axis=-1, keepdims=True)
    variance = np.square(centered).sum(axis=-1, keepdims=True)
    np.true_divide(variance, np.intp(centered.shape[-1]), out=variance, casting="unsafe")
    centered /= np.sqrt(variance + eps)
    out = inplace_target(centered, gamma, beta)
    return np.add(np.multiply(centered, gamma, out=out), beta, out=out)
