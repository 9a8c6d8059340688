"""The PPM primitives and the AAQ quantizer write only into their own buffers.

``layer_norm``, ``softmax``, ``sigmoid``, ``Linear.forward``,
``blockwise_attention`` and ``fake_quantize_tokens`` reuse their
temporaries in place.  For each one, on float64, float32, int and bool
input:

* the input is never written: contiguous arrays, the transposed pair that
  ``ending``-mode triangle attention passes, and strided views;
* the result is byte-equal to the textbook out-of-place expression;
* the result dtype is the textbook expression's (``repro.ppm`` exports these
  functions, so callers may pass any of these dtypes).  Where the textbook
  expression raises (``softmax`` of bool input), so does the primitive.
"""

import numpy as np
import pytest
from reference_quant import reference_fake_quantize_tokens

from repro.core import AAQConfig, fake_quantize_tokens
from repro.ppm import Linear
from repro.ppm.activation_tap import GROUPS
from repro.ppm.chunking import blockwise_attention
from repro.ppm.functional import layer_norm, sigmoid, softmax

DTYPES = (np.float64, np.float32, np.int64, np.bool_)


def sample(rng, shape, dtype):
    values = rng.normal(scale=3.0, size=shape)
    if dtype is np.bool_:
        return values > 0
    return np.round(values).astype(dtype) if np.issubdtype(dtype, np.integer) else values.astype(dtype)


def pair_views(base):
    """The (N, N, C) pair as passed in place: as is, ``ending``-transposed, strided."""
    return {
        "contiguous": base,
        "transposed": base.transpose(1, 0, 2),
        "strided": base[:, ::2, ::2],
    }


def assert_matches_textbook(function, textbook, bases, *inputs):
    """``function(*inputs)`` equals ``textbook(*inputs)`` byte for byte and writes no base."""
    snapshots = [base.copy() for base in bases]
    try:
        expected = textbook(*inputs)
    except TypeError as error:
        with pytest.raises(type(error)):
            function(*inputs)
        return
    result = function(*inputs)
    for base, snapshot in zip(bases, snapshots):
        assert base.dtype == snapshot.dtype and base.tobytes() == snapshot.tobytes()
    assert result.dtype == expected.dtype
    assert result.shape == expected.shape
    assert result.tobytes() == expected.tobytes()


def textbook_softmax(x, axis=-1):
    exp = np.exp(x - np.max(x, axis=axis, keepdims=True))
    return exp / np.sum(exp, axis=axis, keepdims=True)


@pytest.mark.parametrize("dtype", DTYPES)
class TestPrimitivesInPlace:
    def test_layer_norm(self, rng, dtype):
        base = sample(rng, (6, 6, 8), dtype)
        for x in pair_views(base).values():
            gamma = rng.normal(size=x.shape[-1])
            beta = rng.normal(size=x.shape[-1])

            def textbook(x, gamma, beta):
                mean = x.mean(axis=-1, keepdims=True)
                variance = x.var(axis=-1, keepdims=True)
                return (x - mean) / np.sqrt(variance + 1e-5) * gamma + beta

            assert_matches_textbook(layer_norm, textbook, [base, gamma, beta], x, gamma, beta)

    @pytest.mark.parametrize("axis", [-1, 0])
    def test_softmax(self, rng, dtype, axis):
        base = sample(rng, (6, 6, 8), dtype)
        for x in pair_views(base).values():
            assert_matches_textbook(
                lambda x: softmax(x, axis=axis), lambda x: textbook_softmax(x, axis), [base], x
            )

    def test_sigmoid(self, rng, dtype):
        def textbook(x):
            x = np.asarray(x)
            if not np.issubdtype(x.dtype, np.floating):
                x = x.astype(np.float64)
            e = np.exp(-np.abs(x))
            return np.where(x >= 0, 1.0, e) / (1.0 + e)

        base = sample(rng, (6, 6, 8), dtype)
        for x in pair_views(base).values():
            assert_matches_textbook(sigmoid, textbook, [base], x)

    @pytest.mark.parametrize("bias", [True, False])
    def test_linear_forward(self, rng, dtype, bias):
        base = sample(rng, (6, 6, 8), dtype)
        for x in pair_views(base).values():
            layer = Linear(x.shape[-1], 5, rng, bias=bias, init="gating")
            weight = layer.weight.copy()

            def textbook(x):
                out = x @ weight.T
                return out + layer.bias if bias else out

            assert_matches_textbook(layer.forward, textbook, [base, layer.weight], x)
            assert np.array_equal(layer.weight, weight)

    @pytest.mark.parametrize("query_chunk", [None, 2])
    def test_blockwise_attention(self, rng, dtype, query_chunk):
        n, heads, width = 5, 2, 4
        bases = [sample(rng, (n, heads, n, width), dtype) for _ in range(3)]
        bias_base = sample(rng, (heads, n, n), dtype)
        divisor = np.sqrt(width)

        def textbook(q, k, v, bias):
            blocks = []
            for start in range(0, n, query_chunk or n):
                rows = slice(start, start + (query_chunk or n))
                scores = np.matmul(q[..., rows, :], np.swapaxes(k, -1, -2)) / divisor + bias[..., rows, :]
                blocks.append(np.matmul(textbook_softmax(scores), v))
            # The kernel writes every block into a ``v.dtype`` result.
            return np.concatenate(blocks, axis=-2).astype(v.dtype)

        def attention(q, k, v, bias):
            return blockwise_attention(q, k, v, bias, scale_divisor=divisor, query_chunk=query_chunk)

        for layout in ("contiguous", "transposed"):
            if layout == "contiguous":
                q, k, v = bases
                bias = bias_base
            else:
                q, k, v = (base.transpose(2, 1, 0, 3) for base in bases)
                bias = bias_base.transpose(0, 2, 1)
            assert_matches_textbook(attention, textbook, [*bases, bias_base], q, k, v, bias)

    @pytest.mark.parametrize("group", GROUPS)
    def test_fake_quantize_tokens(self, rng, dtype, group):
        config = AAQConfig.paper_optimal().config_for(group)
        base = sample(rng, (6, 6, 8), dtype)
        for x in pair_views(base).values():
            assert_matches_textbook(
                lambda x: fake_quantize_tokens(x, config),
                lambda x: reference_fake_quantize_tokens(x, config),
                [base],
                x,
            )


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("width", [1, 3, 8, 96, 128, 257])
def test_layer_norm_variance_is_x_var(rng, dtype, width):
    # The variance divides by a Python int (a float32 loop for float32)
    # where ``x.var`` divides by an ``np.intp`` (a float64 loop): unit scale
    # and zero shift expose it byte for byte, over many rows.
    x = (rng.normal(size=(512, width)) * rng.lognormal(size=(512, 1))).astype(dtype)
    gamma, beta = np.ones(width, dtype=dtype), np.zeros(width, dtype=dtype)
    centered = x - x.mean(axis=-1, keepdims=True)
    expected = centered / np.sqrt(x.var(axis=-1, keepdims=True) + 1e-5)
    result = layer_norm(x, gamma, beta)
    assert result.dtype == expected.dtype == dtype
    assert result.tobytes() == expected.tobytes()
