"""Property-based tests (hypothesis) for core invariants."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from reference_quant import assert_packed_row_equals, reference_quantize_token

from repro.core import (
    PackedQuantizedTensor,
    TokenQuantConfig,
    dequantize_values,
    fake_quantize_tokens,
    fake_quantize_tokenwise,
    integer_bounds,
    quantize_values,
    symmetric_scale,
)
from repro.core.aaq import AAQConfig
from repro.gpu.gpu_config import get_gpu
from repro.hardware import LightNobelConfig
from repro.metrics import kabsch, tm_score
from repro.ppm import PPMConfig
from repro.ppm.functional import softmax

finite_floats = st.floats(
    min_value=-1e4, max_value=1e4, allow_nan=False, allow_infinity=False, width=64
)


@st.composite
def token_arrays(draw, max_tokens=8, max_dim=32):
    rows = draw(st.integers(min_value=1, max_value=max_tokens))
    cols = draw(st.integers(min_value=2, max_value=max_dim))
    return draw(
        hnp.arrays(dtype=np.float64, shape=(rows, cols), elements=finite_floats)
    )


@given(token_arrays(), st.sampled_from([4, 8]))
@settings(max_examples=40, deadline=None)
def test_tokenwise_quantization_error_bounded_by_scale(values, bits):
    """|x - Q(x)| <= scale/2 per token: the defining property of round-to-nearest."""
    reconstructed = fake_quantize_tokenwise(values, bits)
    max_abs = np.max(np.abs(values), axis=-1, keepdims=True)
    scale = symmetric_scale(max_abs, bits)
    assert np.all(np.abs(values - reconstructed) <= scale / 2 + 1e-9)


@given(token_arrays(), st.sampled_from([4, 8]), st.integers(min_value=0, max_value=8))
@settings(max_examples=40, deadline=None)
def test_token_quant_roundtrip_never_increases_magnitude_range(values, bits, outliers):
    config = TokenQuantConfig(inlier_bits=bits, outlier_count=outliers)
    reconstructed = fake_quantize_tokens(values, config)
    assert reconstructed.shape == values.shape
    assert np.all(np.isfinite(reconstructed))
    assert np.max(np.abs(reconstructed)) <= np.max(np.abs(values)) + 1e-9


@given(token_arrays(max_tokens=4, max_dim=24), st.integers(min_value=0, max_value=4))
@settings(max_examples=30, deadline=None)
def test_vectorized_and_scalar_token_quantizers_agree(values, outliers):
    config = TokenQuantConfig(inlier_bits=8, outlier_count=outliers)
    vectorized = fake_quantize_tokens(values, config)
    for row_index in range(values.shape[0]):
        scalar = reference_quantize_token(values[row_index], config).dequantize()
        assert vectorized[row_index].tobytes() == scalar.tobytes()


@given(st.integers(min_value=2, max_value=16))
def test_integer_bounds_monotone(bits):
    assert integer_bounds(bits) < integer_bounds(bits + 1)


@given(
    hnp.arrays(
        dtype=np.float64,
        shape=st.tuples(st.integers(4, 30), st.just(3)),
        elements=st.floats(-100, 100, allow_nan=False, width=64),
    )
)
@settings(max_examples=30, deadline=None)
def test_kabsch_rmsd_invariant_under_rigid_motion(coords):
    # Degenerate (all-identical) point clouds are excluded: rotation is undefined.
    if np.allclose(coords.std(axis=0), 0.0):
        return
    rng = np.random.default_rng(0)
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    moved = coords @ q.T + np.array([1.0, -2.0, 3.0])
    assert kabsch(moved, coords).rmsd < 1e-6


@given(
    hnp.arrays(
        dtype=np.float64,
        shape=st.tuples(st.integers(5, 40), st.just(3)),
        elements=st.floats(-50, 50, allow_nan=False, width=64),
    ),
    hnp.arrays(
        dtype=np.float64,
        shape=st.tuples(st.integers(5, 40), st.just(3)),
        elements=st.floats(-50, 50, allow_nan=False, width=64),
    ),
)
@settings(max_examples=20, deadline=None)
def test_tm_score_always_in_unit_interval(a, b):
    n = min(a.shape[0], b.shape[0])
    score = tm_score(a[:n], b[:n])
    assert 0.0 <= score <= 1.0


@given(
    hnp.arrays(
        dtype=np.float64,
        shape=st.tuples(st.integers(1, 6), st.integers(2, 12)),
        elements=st.floats(-30, 30, allow_nan=False, width=64),
    )
)
@settings(max_examples=40, deadline=None)
def test_softmax_rows_are_distributions(x):
    y = softmax(x, axis=-1)
    assert np.all(y >= 0)
    assert np.allclose(y.sum(axis=-1), 1.0, atol=1e-9)


# --------------------------------------------------------------- config_digest
#: Cross-process/cross-version anchors: these digests key the session memo
#: and name disambiguated backends, so a change in the canonical
#: serialization (field order, float formatting, dataclass handling) must
#: show up here, not as silently moved keys and names.  Regenerate
#: deliberately via ``config_digest()``.  PPMConfig digests re-pinned twice
#: for a new field, since new fields must move the digest: for the
#: chunked-execution knobs (attn_chunk_size/triangle_chunk_size), then for
#: the execution precision ``dtype``.
PINNED_DIGESTS = {
    "PPMConfig.paper": (PPMConfig.paper, "4c9ca3030a57fe4d"),
    "PPMConfig.tiny": (PPMConfig.tiny, "e074b1efb95cd5ea"),
    "LightNobelConfig": (LightNobelConfig, "5a8efafda3dbc9fb"),
    "GPUSpec.H100": (lambda: get_gpu("H100"), "aede25983e2495e2"),
    "AAQConfig.paper_optimal": (AAQConfig.paper_optimal, "a9d0d690670a8fff"),
}


@pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
def test_config_digest_pinned_across_processes(name):
    factory, expected = PINNED_DIGESTS[name]
    assert factory().config_digest() == expected


def test_config_digest_stable_for_equal_configs():
    for factory, _ in PINNED_DIGESTS.values():
        assert factory().config_digest() == factory().config_digest()


@pytest.mark.parametrize(
    "base", [PPMConfig.tiny(), PPMConfig.paper(), LightNobelConfig()]
)
def test_config_digest_changes_when_any_field_changes(base):
    """Every field perturbation that yields a valid config moves the digest."""
    digest = base.config_digest()
    perturbed_fields = 0
    for field_info in dataclasses.fields(base):
        value = getattr(base, field_info.name)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        bumped = value + 1 if isinstance(value, int) else value * 1.5 + 0.25
        try:
            variant = dataclasses.replace(base, **{field_info.name: bumped})
        except ValueError:
            continue  # perturbation violates the config's own validation
        assert variant.config_digest() != digest, field_info.name
        perturbed_fields += 1
    assert perturbed_fields >= 5  # the sweep really exercised the dataclass


@given(st.integers(min_value=1, max_value=64), st.integers(min_value=1, max_value=8))
@settings(max_examples=30, deadline=None)
def test_lightnobel_digest_uniqueness_over_grid(num_rmpus, vvpus):
    a = LightNobelConfig(num_rmpus=num_rmpus, vvpus_per_rmpu=vvpus)
    b = LightNobelConfig(num_rmpus=num_rmpus, vvpus_per_rmpu=vvpus)
    c = LightNobelConfig(num_rmpus=num_rmpus + 1, vvpus_per_rmpu=vvpus)
    assert a.config_digest() == b.config_digest()
    assert a.config_digest() != c.config_digest()


# ------------------------------------------- PackedQuantizedTensor round trips
@given(token_arrays(max_tokens=6, max_dim=24), st.sampled_from([4, 8]), st.integers(0, 30))
@settings(max_examples=40, deadline=None)
def test_packed_roundtrip_on_random_shapes(values, bits, outliers):
    """pack → unpack preserves shape and matches the per-token path exactly.

    ``outliers`` deliberately ranges past ``hidden_dim`` to cover the
    every-value-is-an-outlier clamp.
    """
    config = TokenQuantConfig(inlier_bits=bits, outlier_count=outliers)
    packed = PackedQuantizedTensor.pack(values, config)
    reconstructed = packed.unpack()
    assert reconstructed.shape == values.shape
    assert np.all(np.isfinite(reconstructed))
    for row_index in range(values.shape[0]):
        per_token = reference_quantize_token(values[row_index], config).dequantize()
        assert reconstructed[row_index].tobytes() == per_token.tobytes()


@given(token_arrays(max_tokens=5, max_dim=16), st.integers(0, 6))
@settings(max_examples=40, deadline=None)
def test_packed_roundtrip_error_bounded_by_scales(values, outliers):
    """|x - unpack(pack(x))| <= scale/2 element-wise, per token and grid."""
    config = TokenQuantConfig(inlier_bits=8, outlier_count=outliers)
    packed = PackedQuantizedTensor.pack(values, config)
    error = np.abs(values - packed.unpack())
    bound = np.maximum(packed.scales, packed.outlier_scales)[:, None] / 2.0
    assert np.all(error <= bound + 1e-12)


# ------------------------------------------- fake_quantize_tokens bit identity
def _reference_fake_quantize_tokens(values, config):
    """Frozen two-pass body of ``fake_quantize_tokens`` (mask + ``np.where``).

    The one-pass body must reproduce this reference bit for bit; it is kept
    verbatim so any drift in tie-breaking, scales or grids shows up here.
    The one edit since: it computes in the input's float precision, with
    each scale derived in float64 and cast to it, as the library does.
    """
    values = np.asarray(values)
    if values.dtype not in (np.float32, np.float64):
        values = values.astype(np.float64)
    dtype = values.dtype
    original_shape = values.shape
    flat = values.reshape(-1, original_shape[-1])
    num_tokens, hidden_dim = flat.shape
    count = min(config.outlier_count, hidden_dim)

    abs_values = np.abs(flat)
    if count > 0:
        outlier_positions = np.argpartition(abs_values, -count, axis=-1)[:, -count:]
        outlier_mask = np.zeros_like(flat, dtype=bool)
        rows = np.repeat(np.arange(num_tokens), count)
        outlier_mask[rows, outlier_positions.reshape(-1)] = True
    else:
        outlier_mask = np.zeros_like(flat, dtype=bool)

    inlier_abs = np.where(outlier_mask, 0.0, abs_values)
    inlier_max = inlier_abs.max(axis=-1, keepdims=True)
    inlier_scale = symmetric_scale(inlier_max, config.inlier_bits).astype(dtype)
    inlier_recon = dequantize_values(
        quantize_values(flat, inlier_scale, config.inlier_bits), inlier_scale
    )

    if count > 0:
        outlier_abs = np.where(outlier_mask, abs_values, 0.0)
        outlier_max = outlier_abs.max(axis=-1, keepdims=True)
        outlier_scale = symmetric_scale(outlier_max, config.outlier_bits).astype(dtype)
        outlier_recon = dequantize_values(
            quantize_values(flat, outlier_scale, config.outlier_bits), outlier_scale
        )
        reconstructed = np.where(outlier_mask, outlier_recon, inlier_recon)
    else:
        reconstructed = inlier_recon
    return reconstructed.reshape(original_shape)


#: Values that force exact ties, +/- pairs of equal magnitude, signed zeros
#: and subnormals into the top-k selection.
_TIE_POOL = [0.0, -0.0, 1.0, -1.0, 2.5, -2.5, 1e4, -1e4, 5e-324, -5e-324, 1e-310]


@st.composite
def quantizer_inputs(draw):
    """(values, config): 1-4-D, float64/float32, contiguous or not, tie-heavy."""
    ndim = draw(st.integers(min_value=1, max_value=4))
    shape = [draw(st.integers(min_value=1, max_value=4)) for _ in range(ndim - 1)]
    shape.append(draw(st.integers(min_value=1, max_value=12)))
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    width = 64 if dtype is np.float64 else 32
    elements = st.one_of(
        st.floats(-1e4, 1e4, allow_nan=False, allow_infinity=False, width=width),
        st.sampled_from(_TIE_POOL).map(lambda v: float(dtype(v))),
    )
    layout = draw(st.sampled_from(["contiguous", "transposed", "strided"]))
    if layout == "transposed":
        values = draw(hnp.arrays(dtype, tuple(reversed(shape)), elements=elements)).T
    elif layout == "strided":
        doubled = tuple(shape[:-1]) + (2 * shape[-1],)
        values = draw(hnp.arrays(dtype, doubled, elements=elements))[..., ::2]
    else:
        values = draw(hnp.arrays(dtype, tuple(shape), elements=elements))
    if draw(st.booleans()):
        values[(0,) * (values.ndim - 1)] = 0.0  # an all-zero token
    config = draw(
        st.one_of(
            st.sampled_from(list(AAQConfig.paper_optimal().group_configs.values())),
            st.builds(
                TokenQuantConfig,
                inlier_bits=st.sampled_from([2, 4, 8, 16]),
                outlier_count=st.integers(min_value=0, max_value=16),
            ),
        )
    )
    return values, config


@given(quantizer_inputs())
@settings(max_examples=100, deadline=None)
def test_fake_quantize_tokens_matches_frozen_two_pass_reference(case):
    """The one-pass quantizer equals the two-pass reference bit for bit.

    Covers Groups A/B/C, ``outlier_count >= hidden_dim``, tied and
    +/- equal magnitudes, all-zero tokens, 1-4-D, transposed and strided
    (non-contiguous) views and float32 input; the input is never written.
    """
    values, config = case
    before = values.copy()
    reference = _reference_fake_quantize_tokens(values, config)
    assert values.tobytes() == before.tobytes()
    result = fake_quantize_tokens(values, config)
    assert values.tobytes() == before.tobytes()
    assert result.dtype == reference.dtype and result.shape == reference.shape
    assert np.array_equal(result, reference)
    assert result.tobytes() == reference.tobytes()


# ---------------------------------- one quantized token: store, fold, reference
def _tokens_of(values):
    return values.reshape(-1, values.shape[-1])


@given(quantizer_inputs())
@settings(max_examples=100, deadline=None)
def test_pack_unpack_is_byte_equal_to_fake_quantize_tokens(case):
    """The Fig. 7 store reconstructs what the fold computes, byte for byte.

    float64 and float32, tied magnitudes and ``outlier_count >= hidden_dim``.
    """
    values, config = case
    tokens = _tokens_of(values)
    unpacked = PackedQuantizedTensor.pack(tokens, config).unpack()
    fused = fake_quantize_tokens(values, config)
    assert unpacked.dtype == fused.dtype == values.dtype
    assert unpacked.tobytes() == _tokens_of(fused).tobytes()


@given(quantizer_inputs())
@settings(max_examples=100, deadline=None)
def test_tokenwise_is_fake_quantize_tokens_without_outliers(case):
    """``fake_quantize_tokenwise(x, b)`` is ``fake_quantize_tokens`` at ``k = 0``."""
    values, config = case
    bits = config.inlier_bits
    tokenwise = fake_quantize_tokenwise(values, bits)
    tokens = fake_quantize_tokens(values, TokenQuantConfig(inlier_bits=bits, outlier_count=0))
    assert tokenwise.dtype == tokens.dtype == values.dtype
    assert tokenwise.shape == values.shape
    assert tokenwise.tobytes() == tokens.tobytes()


@given(quantizer_inputs())
@settings(max_examples=100, deadline=None)
def test_pack_fields_equal_the_per_token_reference(case):
    """pack's integer grids, indices and scales are each token's, quantized alone."""
    values, config = case
    tokens = _tokens_of(values)
    packed = PackedQuantizedTensor.pack(tokens, config)
    for i, token in enumerate(tokens):
        assert_packed_row_equals(packed, i, reference_quantize_token(token, config))


# --------------------------------------------------------------------------
# Chunked (blockwise) pair-stack execution: dense ≡ chunked on random shapes.


#: Micro folding-trunk configuration: large enough to exercise multi-head
#: attention and the triangular contraction, small enough that hypothesis can
#: afford fresh modules per example.
_MICRO_PPM = PPMConfig(
    pair_dim=8,
    seq_dim=12,
    num_blocks=1,
    num_heads=2,
    head_dim=4,
    triangle_hidden=8,
    transition_factor=2,
    seq_num_heads=2,
    distogram_channels=4,
)


@st.composite
def chunked_pair_cases(draw):
    """(pair tensor, chunk size, weight seed) with ragged and >=N chunkings."""
    n = draw(st.integers(min_value=2, max_value=12))
    chunk = draw(st.integers(min_value=1, max_value=16))  # ragged + chunk >= n
    seed = draw(st.integers(min_value=0, max_value=2**16))
    pair = draw(
        hnp.arrays(
            dtype=np.float64,
            shape=(n, n, _MICRO_PPM.pair_dim),
            elements=st.floats(
                min_value=-8.0, max_value=8.0, allow_nan=False, allow_infinity=False
            ),
        )
    )
    return pair, chunk, seed


@given(chunked_pair_cases(), st.sampled_from(["starting", "ending"]))
@settings(max_examples=25, deadline=None)
def test_chunked_triangle_attention_agrees_with_dense(case, mode):
    """Dense ≡ chunked TriangleAttention ≤ 1e-9 on arbitrary shapes/chunkings."""
    from repro.ppm import TriangleAttention

    pair, chunk, seed = case
    dense = TriangleAttention(_MICRO_PPM, np.random.default_rng(seed), mode=mode)
    tiled = TriangleAttention(
        _MICRO_PPM.with_chunking(attn_chunk_size=chunk),
        np.random.default_rng(seed),
        mode=mode,
    )
    np.testing.assert_allclose(tiled(pair), dense(pair), rtol=0, atol=1e-9)


@given(chunked_pair_cases(), st.sampled_from(["outgoing", "incoming"]))
@settings(max_examples=25, deadline=None)
def test_chunked_triangle_multiplication_agrees_with_dense(case, mode):
    """Dense ≡ chunked TriangleMultiplication ≤ 1e-9, tiled third-axis sums."""
    from repro.ppm import TriangleMultiplication

    pair, chunk, seed = case
    dense = TriangleMultiplication(_MICRO_PPM, np.random.default_rng(seed), mode=mode)
    tiled = TriangleMultiplication(
        _MICRO_PPM.with_chunking(triangle_chunk_size=chunk),
        np.random.default_rng(seed),
        mode=mode,
    )
    np.testing.assert_allclose(tiled(pair), dense(pair), rtol=0, atol=1e-9)
