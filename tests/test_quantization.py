"""Unit tests for the uniform symmetric quantization primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    fake_quantize,
    fake_quantize_channelwise,
    fake_quantize_tensorwise,
    fake_quantize_tokenwise,
    integer_bounds,
    quantization_error,
    quantize_values,
    dequantize_values,
    symmetric_scale,
)


class TestPrimitives:
    def test_integer_bounds(self):
        assert integer_bounds(4) == 7
        assert integer_bounds(8) == 127
        assert integer_bounds(16) == 32767
        with pytest.raises(ValueError):
            integer_bounds(1)

    def test_symmetric_scale_equation(self):
        # Equation 1: sigma = M / (2^(m-1) - 1)
        assert symmetric_scale(7.0, 4) == pytest.approx(1.0)
        assert symmetric_scale(127.0, 8) == pytest.approx(1.0)

    def test_quantize_clips_to_grid(self):
        values = np.array([-100.0, 0.0, 100.0])
        q = quantize_values(values, scale=1.0, bits=4)
        assert q.min() >= -7 and q.max() <= 7

    def test_round_trip_error_bounded_by_half_scale(self, rng):
        values = rng.uniform(-10, 10, size=1000)
        scale = symmetric_scale(np.abs(values).max(), 8)
        recon = dequantize_values(quantize_values(values, scale, 8), scale)
        assert np.max(np.abs(values - recon)) <= scale / 2 + 1e-12


def float64_detour(max_abs, bits, dtype):
    """The scale derived in float64 and rounded to ``dtype``."""
    scale = np.maximum(np.asarray(max_abs, dtype=np.float64), 1e-12) / integer_bounds(bits)
    return scale.astype(dtype, copy=False)


def float32_maxima():
    """0, -0, subnormals, the float32 neighbours of 1e-12 and /qmax, and large values."""
    tiny = np.float32(1e-12)
    near = [tiny]
    for direction in (0.0, np.inf):
        value = tiny
        for _ in range(4):
            value = np.nextafter(value, np.float32(direction))
            near.append(value)
    subnormal = np.finfo(np.float32).smallest_subnormal
    return np.array(
        [0.0, -0.0, subnormal, 3 * subnormal, np.finfo(np.float32).smallest_normal / 3,
         *near, 1e-13, 5e-12, 1e-11, 1e-6, 0.5, 1.0, 7.0, 127.0, 3.0e4, 1e30,
         np.finfo(np.float32).max, np.inf],
        dtype=np.float32,
    )


class TestScalesInValueDtype:
    """``symmetric_scale`` divides in the values' dtype, bytewise the float64 detour."""

    @pytest.mark.parametrize("bits", range(2, 33))
    def test_float32_maxima_match_the_float64_detour(self, bits):
        maxima = float32_maxima()
        for max_abs in (maxima, maxima[:, None], maxima[3]):
            got = symmetric_scale(max_abs, bits, np.float32)
            want = float64_detour(max_abs, bits, np.float32)
            assert got.dtype == np.float32 and np.shape(got) == np.shape(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    @pytest.mark.parametrize("bits", range(2, 33))
    def test_float64_maxima_match_the_float64_detour(self, bits):
        maxima = np.concatenate([float32_maxima().astype(np.float64), [1e-12, 1e-300, 5e-324]])
        got = symmetric_scale(maxima, bits)
        assert got.dtype == np.float64
        assert got.tobytes() == float64_detour(maxima, bits, np.float64).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(
        maxima=st.lists(
            st.floats(min_value=0.0, max_value=float(np.finfo(np.float32).max), width=32),
            min_size=1, max_size=16,
        ),
        bits=st.integers(2, 32),
    )
    def test_random_float32_maxima(self, maxima, bits):
        maxima = np.array(maxima, dtype=np.float32)
        got = symmetric_scale(maxima, bits, np.float32)
        assert got.tobytes() == float64_detour(maxima, bits, np.float32).tobytes()

    def test_a_python_float_maximum_keeps_the_numpy_scalar_type(self):
        for dtype in (np.float32, np.float64):
            got = symmetric_scale(0.0, 8, dtype)
            assert got.dtype == dtype and got == float64_detour(0.0, 8, dtype)


class TestGranularities:
    def test_tensorwise_error_smaller_with_more_bits(self, rng):
        values = rng.normal(size=(64, 32))
        err4 = quantization_error(values, fake_quantize_tensorwise(values, 4)).rmse
        err8 = quantization_error(values, fake_quantize_tensorwise(values, 8)).rmse
        assert err8 < err4

    def test_channelwise_beats_tensorwise_with_channel_variance(self, rng):
        values = rng.normal(size=(128, 16)) * np.logspace(0, 2, 16)[None, :]
        err_tensor = quantization_error(values, fake_quantize_tensorwise(values, 4)).rmse
        err_channel = quantization_error(values, fake_quantize_channelwise(values, 4)).rmse
        assert err_channel < err_tensor

    def test_tokenwise_beats_channelwise_with_token_variance(self, rng):
        """The PPM case (Section 3.3): variance across tokens, not channels."""
        values = rng.normal(size=(128, 16)) * np.logspace(0, 2, 128)[:, None]
        err_channel = quantization_error(values, fake_quantize_channelwise(values, 4)).rmse
        err_token = quantization_error(values, fake_quantize_tokenwise(values, 4)).rmse
        assert err_token < err_channel

    def test_dispatch_and_unknown_granularity(self, rng):
        values = rng.normal(size=(8, 8))
        assert np.allclose(fake_quantize(values, 8, "token"), fake_quantize_tokenwise(values, 8))
        with pytest.raises(ValueError):
            fake_quantize(values, 8, "row")

    def test_exact_representation_of_grid_values(self):
        # values already on the INT8 grid are reproduced exactly
        values = np.arange(-127, 128, dtype=np.float64).reshape(1, -1)
        recon = fake_quantize_tensorwise(values, 8)
        assert np.allclose(recon, values)

    def test_quantization_error_summary_fields(self, rng):
        values = rng.normal(size=100)
        err = quantization_error(values, fake_quantize_tensorwise(values, 4))
        assert err.rmse >= 0
        assert err.max_abs_error >= err.rmse
        assert 0 <= err.relative_rmse < 1
