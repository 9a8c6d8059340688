"""The one row max, and ``softmax``'s shift through it.

:func:`repro.ppm.functional.row_max` picks its pass by row width (a column
fold up to 128 bytes, 32 float32 or 16 float64 values, an ``argmax`` gather
up to 255 values, numpy's ``max`` from 256).  Each pass must equal numpy's reduction bit for bit on both sides of
every edge, in float32 and float64, with ties, signed zeros and infinities;
only the sign of a zero maximum may differ, so results are compared after
adding ``0.0`` (which turns ``-0.0`` into ``0.0`` and changes nothing else).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.ppm.functional import FOLD_MAX_ROW_BYTES, REDUCE_MIN_WIDTH, row_max, softmax

#: Both sides of each strategy edge (the fold's in float64 and float32, then
#: numpy's reduction), and the fold's own widths.
EDGE_WIDTHS = (1, 2, 8, FOLD_MAX_ROW_BYTES // 8, FOLD_MAX_ROW_BYTES // 8 + 1,
               FOLD_MAX_ROW_BYTES // 4, FOLD_MAX_ROW_BYTES // 4 + 1, 96,
               REDUCE_MIN_WIDTH - 1, REDUCE_MIN_WIDTH, 300)

#: Values that tie, zeros of both signs and infinities.
SPECIAL = (0.0, -0.0, 1.0, -1.0, 2.5, -2.5, np.inf, -np.inf)


@st.composite
def row_arrays(draw):
    """(..., W) arrays, W in 1-300 with the edges favoured, mixing special values."""
    width = draw(st.one_of(st.sampled_from(EDGE_WIDTHS), st.integers(min_value=1, max_value=300)))
    leading = draw(st.sampled_from([(), (3,), (2, 5), (17,)]))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    elements = st.one_of(
        st.sampled_from(SPECIAL),
        st.floats(allow_nan=False, allow_infinity=False, width=32),
    )
    return draw(hnp.arrays(dtype=dtype, shape=leading + (width,), elements=elements))


def normalized(values):
    return (np.asarray(values) + 0.0).tobytes()


@given(row_arrays())
@settings(max_examples=120, deadline=None)
def test_row_max_equals_numpy(x):
    expected_abs = np.abs(x).max(axis=-1)
    expected = np.max(x, axis=-1)
    result_abs = row_max(x, absolute=True)
    result = row_max(x)
    assert result_abs.dtype == expected_abs.dtype and result.dtype == expected.dtype
    assert np.shape(result_abs) == expected_abs.shape and np.shape(result) == expected.shape
    assert normalized(result_abs) == normalized(expected_abs)
    assert normalized(result) == normalized(expected)


@pytest.mark.parametrize("width", EDGE_WIDTHS)
def test_row_max_writes_only_its_scratch(rng, width):
    x = rng.normal(size=(40, width)).astype(np.float32)
    before = x.copy()
    scratch = np.empty_like(x)
    assert normalized(row_max(x, absolute=True, scratch=scratch)) == normalized(np.abs(x).max(-1))
    assert x.tobytes() == before.tobytes()


@pytest.mark.parametrize("dtype", [np.int64, np.bool_])
@pytest.mark.parametrize("width", [3, 40, 300])
def test_row_max_keeps_integer_dtypes(rng, dtype, width):
    x = (rng.normal(scale=5.0, size=(7, width)) > 0) if dtype is np.bool_ else rng.integers(-9, 9, (7, width))
    result = row_max(x)
    assert result.dtype == x.dtype and result.tobytes() == np.max(x, axis=-1).tobytes()


def former_softmax(x, axis=-1):
    """The shift ``softmax`` took before :func:`row_max`, kept byte for byte."""
    exp = np.exp(x - np.max(x, axis=axis, keepdims=True))
    return exp / np.sum(exp, axis=axis, keepdims=True)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("width", EDGE_WIDTHS)
def test_softmax_shift_is_bit_identical(rng, dtype, width):
    x = rng.normal(scale=4.0, size=(4, 6, width)).astype(dtype)
    x[0, 0] = -np.inf                         # a row of -inf: NaN throughout
    x[0, 1, 0] = np.nan                       # a row with NaN
    x[0, 2, -1] = np.inf                      # a row with +inf
    x[0, 3] = np.round(x[0, 3])               # ties
    x[0, 4] = 0.0
    x[0, 4, ::2] = -0.0                       # signed zeros
    with np.errstate(invalid="ignore"):
        expected = former_softmax(x)
        for view in (x, x.transpose(1, 0, 2), x[:, ::2]):
            assert softmax(view).tobytes() == former_softmax(view).tobytes()
        result = softmax(x)
    assert result.dtype == expected.dtype
    assert result.tobytes() == expected.tobytes()
