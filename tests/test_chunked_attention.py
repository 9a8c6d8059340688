"""Dense ≡ chunked parity for the blockwise pair-stack execution.

The chunked execution mode (``PPMConfig.attn_chunk_size`` /
``triangle_chunk_size``) must change peak activation memory only — never a
number.  This suite asserts dense ≡ chunked at the repo-wide 1e-9 bar on
every level the refactor touches (in float64; float32 holds at a bound
argued from float32 eps): the attention/multiplication modules
(``attention.py``, ``triangle.py``), a full folding block
(``folding_block.py``), the end-to-end model through the structure module
(``structure_module.py``), and the quantized variants (``ppm/quantized.py``)
where the activation taps transform every chunk.  It also covers the
degenerate tilings (chunk of 1, ragged last chunk, chunk >= N) and runs a
sequence length whose dense score tensor would exceed the CI memory guard's
budget.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from reference_quant import packed_aaq_context

from repro.core import lightnobel_aaq
from repro.metrics.tm_score import tm_score_structures
from repro.ppm import (
    FoldingBlock,
    OuterProductMean,
    PPMConfig,
    ProteinStructureModel,
    SequenceAttention,
    TriangleAttention,
    TriangleMultiplication,
    iter_chunks,
    streaming_attention,
)
from repro.ppm.activation_tap import NULL_CONTEXT, ActivationRecorder
from repro.ppm.chunking import context_observes_taps
from repro.ppm.quantized import QuantizedPPM

#: Repo-wide parity bar (absolute, on unit-scale activations).
TOL = 1e-9

#: Degenerate and ordinary tilings: single element, ragged last chunk (23 % 5,
#: 23 % 8), exact fit, and chunk >= N.
CHUNK_SIZES = (1, 5, 8, 23, 64)

SEQ_LEN = 23


def with_chunks(config: PPMConfig, chunk: int) -> PPMConfig:
    return config.with_chunking(attn_chunk_size=chunk, triangle_chunk_size=chunk)


@pytest.fixture()
def pair(tiny_config, rng) -> np.ndarray:
    return rng.normal(size=(SEQ_LEN, SEQ_LEN, tiny_config.pair_dim))


@pytest.fixture()
def sequence(tiny_config, rng) -> np.ndarray:
    return rng.normal(size=(SEQ_LEN, tiny_config.seq_dim))


def quantized_contexts():
    """Fresh AAQ contexts (fused and packed-layout) for one forward pass."""
    return [lightnobel_aaq().make_context(), packed_aaq_context()]


# ---------------------------------------------------------------- helpers


def test_iter_chunks_tiles_the_range_exactly():
    for total, chunk in [(1, 1), (7, 3), (23, 5), (23, 23), (23, 64), (8, None)]:
        slices = list(iter_chunks(total, chunk))
        assert slices[0].start == 0 and slices[-1].stop == total
        for left, right in zip(slices, slices[1:]):
            assert left.stop == right.start
        if chunk is None or chunk >= total:
            assert slices == [slice(0, total)]
    assert list(iter_chunks(0, 4)) == []


def test_config_chunk_knobs():
    config = PPMConfig.tiny()
    assert not config.is_chunked
    chunked = config.with_chunking(attn_chunk_size=8, triangle_chunk_size=4)
    assert chunked.is_chunked
    assert chunked.attn_chunk_size == 8 and chunked.triangle_chunk_size == 4
    assert not chunked.with_chunking().is_chunked
    assert chunked.config_digest() != config.config_digest()
    with pytest.raises(ValueError):
        dataclasses.replace(config, attn_chunk_size=0)
    with pytest.raises(ValueError):
        dataclasses.replace(config, triangle_chunk_size=-3)
    with pytest.raises(ValueError):
        dataclasses.replace(config, attn_chunk_size=2.5)  # fail at config time,
    with pytest.raises(ValueError):
        dataclasses.replace(config, attn_chunk_size=True)  # not inside range()


def test_context_observation_detection():
    assert not context_observes_taps(NULL_CONTEXT)
    assert context_observes_taps(ActivationRecorder())
    for ctx in quantized_contexts():
        assert context_observes_taps(ctx)


def test_streaming_attention_matches_reference(rng):
    q = rng.normal(size=(3, 2, 11, 4))
    k = rng.normal(size=(3, 2, 11, 4))
    v = rng.normal(size=(3, 2, 11, 4))
    bias = rng.normal(size=(2, 11, 11))
    scores = np.einsum("ihqd,ihkd->ihqk", q, k) * 0.5 + bias
    exp = np.exp(scores - scores.max(axis=-1, keepdims=True))
    reference = np.einsum(
        "ihqk,ihkd->ihqd", exp / exp.sum(axis=-1, keepdims=True), v
    )
    for query_chunk, key_chunk in [(1, 1), (4, 3), (11, 11), (64, 2), (None, None)]:
        streamed = streaming_attention(
            q, k, v, bias=bias, scale=0.5, query_chunk=query_chunk, key_chunk=key_chunk
        )
        np.testing.assert_allclose(streamed, reference, rtol=0, atol=TOL)


# ------------------------------------------------------- module-level parity


@pytest.mark.parametrize("chunk", CHUNK_SIZES)
@pytest.mark.parametrize("mode", ["starting", "ending"])
def test_triangle_attention_parity(tiny_config, pair, mode, chunk):
    dense = TriangleAttention(tiny_config, np.random.default_rng(3), mode=mode)
    tiled = TriangleAttention(with_chunks(tiny_config, chunk), np.random.default_rng(3), mode=mode)
    np.testing.assert_allclose(tiled(pair), dense(pair), rtol=0, atol=TOL)
    # Observing-but-identity context: the blockwise (tap-faithful) path.
    np.testing.assert_allclose(
        tiled(pair, ActivationRecorder()), dense(pair, ActivationRecorder()),
        rtol=0, atol=TOL,
    )


@pytest.mark.parametrize("chunk", CHUNK_SIZES)
@pytest.mark.parametrize("mode", ["starting", "ending"])
def test_triangle_attention_quantized_parity(tiny_config, pair, mode, chunk):
    """Per-token AAQ transforms must be chunk-invariant (full key axis per tap)."""
    dense = TriangleAttention(tiny_config, np.random.default_rng(3), mode=mode)
    tiled = TriangleAttention(with_chunks(tiny_config, chunk), np.random.default_rng(3), mode=mode)
    for dense_ctx, tiled_ctx in zip(quantized_contexts(), quantized_contexts()):
        np.testing.assert_allclose(
            tiled(pair, tiled_ctx), dense(pair, dense_ctx), rtol=0, atol=TOL
        )


@pytest.mark.parametrize("chunk", CHUNK_SIZES)
@pytest.mark.parametrize("mode", ["outgoing", "incoming"])
def test_triangle_multiplication_parity(tiny_config, pair, mode, chunk):
    dense = TriangleMultiplication(tiny_config, np.random.default_rng(5), mode=mode)
    tiled = TriangleMultiplication(with_chunks(tiny_config, chunk), np.random.default_rng(5), mode=mode)
    np.testing.assert_allclose(tiled(pair), dense(pair), rtol=0, atol=TOL)
    for dense_ctx, tiled_ctx in zip(quantized_contexts(), quantized_contexts()):
        np.testing.assert_allclose(
            tiled(pair, tiled_ctx), dense(pair, dense_ctx), rtol=0, atol=TOL
        )


@pytest.mark.parametrize("chunk", CHUNK_SIZES)
def test_sequence_attention_parity(tiny_config, sequence, pair, chunk):
    dense = SequenceAttention(tiny_config, np.random.default_rng(7))
    tiled = SequenceAttention(with_chunks(tiny_config, chunk), np.random.default_rng(7))
    np.testing.assert_allclose(
        tiled(sequence, pair), dense(sequence, pair), rtol=0, atol=TOL
    )


def test_chunked_taps_fire_same_names_and_groups(tiny_config, pair):
    """Chunked mode fires the same tap names with the same group labels.

    The weights tap fires once per query block (instead of once) but under an
    identical name/group, so per-group AAQ transforms and group statistics
    classify every activation exactly as the dense path does.
    """
    dense_recorder, tiled_recorder = ActivationRecorder(), ActivationRecorder()
    TriangleAttention(tiny_config, np.random.default_rng(3))(pair, dense_recorder)
    TriangleAttention(with_chunks(tiny_config, 8), np.random.default_rng(3))(
        pair, tiled_recorder
    )
    dense_taps = {(r.name, r.group) for r in dense_recorder.records}
    tiled_taps = {(r.name, r.group) for r in tiled_recorder.records}
    assert dense_taps == tiled_taps
    weights_records = [
        r for r in tiled_recorder.records if r.name.endswith("attention_weights")
    ]
    assert len(weights_records) == -(-SEQ_LEN // 8)  # one per query block
    assert all(r.group == "C" for r in weights_records)


@pytest.mark.parametrize("chunk", CHUNK_SIZES)
def test_outer_product_mean_row_blocks_bit_for_bit(tiny_config, sequence, chunk):
    """Row-blocked OPM output is the dense output byte for byte, AAQ included."""
    dense = OuterProductMean(tiny_config, np.random.default_rng(13))
    tiled = OuterProductMean(with_chunks(tiny_config, chunk), np.random.default_rng(13))
    assert tiled(sequence).tobytes() == dense(sequence).tobytes()
    for dense_ctx, tiled_ctx in zip(quantized_contexts(), quantized_contexts()):
        assert tiled(sequence, tiled_ctx).tobytes() == dense(sequence, dense_ctx).tobytes()


def test_outer_product_mean_outer_tap_fires_once_per_row_block(tiny_config, sequence):
    dense_recorder, tiled_recorder = ActivationRecorder(), ActivationRecorder()
    OuterProductMean(tiny_config, np.random.default_rng(13))(sequence, dense_recorder)
    OuterProductMean(with_chunks(tiny_config, 8), np.random.default_rng(13))(
        sequence, tiled_recorder
    )
    dense_taps = {(r.name, r.group) for r in dense_recorder.records}
    tiled_taps = {(r.name, r.group) for r in tiled_recorder.records}
    assert dense_taps == tiled_taps == {("outer_product_mean.outer", "C")}
    assert len(dense_recorder.records) == 1
    assert len(tiled_recorder.records) == -(-SEQ_LEN // 8)  # one per row block
    assert sum(r.token_count for r in tiled_recorder.records) == SEQ_LEN * SEQ_LEN


def test_outer_product_mean_row_blocks_halve_peak_memory():
    """At N=96 (small(), AAQ) the row-blocked OPM peaks at <= half the dense peak.

    The dense (N, N, h*h) outer tensor and its quantized copy dominate the
    forward; a regression that re-materializes them fails here.
    """
    config = PPMConfig.small()
    sequence = np.random.default_rng(0).normal(size=(96, config.seq_dim))

    def traced_peak(chunk):
        module = OuterProductMean(
            config.with_chunking(attn_chunk_size=chunk), np.random.default_rng(13)
        )
        ctx = lightnobel_aaq().make_context()
        tracemalloc.start()
        try:
            module(sequence, ctx)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert traced_peak(32) <= 0.5 * traced_peak(None)


# ------------------------------------------------ block- and model-level parity


@pytest.mark.parametrize("chunk", [5, 16])
def test_folding_block_parity(tiny_config, sequence, pair, chunk):
    dense = FoldingBlock(tiny_config, np.random.default_rng(11))
    tiled = FoldingBlock(with_chunks(tiny_config, chunk), np.random.default_rng(11))
    dense_seq, dense_pair = dense(sequence, pair)
    tiled_seq, tiled_pair = tiled(sequence, pair)
    np.testing.assert_allclose(tiled_seq, dense_seq, rtol=0, atol=TOL)
    np.testing.assert_allclose(tiled_pair, dense_pair, rtol=0, atol=TOL)
    for dense_ctx, tiled_ctx in zip(quantized_contexts(), quantized_contexts()):
        dense_out = dense(sequence, pair, dense_ctx)
        tiled_out = tiled(sequence, pair, tiled_ctx)
        np.testing.assert_allclose(tiled_out[1], dense_out[1], rtol=0, atol=TOL)


def test_full_model_parity_through_structure_module(tiny_config, tiny_protein):
    dense_model = ProteinStructureModel(tiny_config, seed=0)
    tiled_model = ProteinStructureModel(with_chunks(tiny_config, 7), seed=0)
    dense_result = dense_model.predict_from_structure(tiny_protein)
    tiled_result = tiled_model.predict_from_structure(tiny_protein)
    np.testing.assert_allclose(
        tiled_result.pair_representation, dense_result.pair_representation,
        rtol=0, atol=TOL,
    )
    np.testing.assert_allclose(
        tiled_result.predicted_distances, dense_result.predicted_distances,
        rtol=0, atol=TOL,
    )
    # Coordinates pass through an eigendecomposition + iterative refinement,
    # which amplifies float noise; the structural answer must still agree.
    np.testing.assert_allclose(
        tiled_result.structure.coordinates, dense_result.structure.coordinates,
        rtol=0, atol=1e-6,
    )


@pytest.mark.parametrize("chunk", CHUNK_SIZES)
def test_float32_model_parity_through_structure_module(tiny_config, tiny_protein, chunk):
    """Dense ≡ chunked in float32, at a bound argued from float32 eps.

    Both run the same float32 operations except the blocked contractions,
    whose sums associate differently.  Each of a folding block's five
    residual adds rounds the pair stream to float32 once, so the two streams
    may drift apart by about one rounding, ``eps * max|pair|``, per add: the
    bound allows one per add (10 in the tiny trunk; half of one is measured).
    Coordinates get the float64 test's allowance for the eigendecomposition
    and refinement, 1000x the pair bound (1e-6 there over 1e-9).
    """
    config = tiny_config.with_dtype("float32")
    dense = ProteinStructureModel(config, seed=0).predict_from_structure(tiny_protein)
    tiled_model = ProteinStructureModel(with_chunks(config, chunk), seed=0)
    tiled = tiled_model.predict_from_structure(tiny_protein)
    assert dense.pair_representation.dtype == tiled.pair_representation.dtype == np.float32
    residual_adds = 5 * config.num_blocks
    bound = residual_adds * np.finfo(np.float32).eps * np.abs(dense.pair_representation).max()
    np.testing.assert_allclose(
        tiled.pair_representation, dense.pair_representation, rtol=0, atol=bound
    )
    np.testing.assert_allclose(
        tiled.structure.coordinates, dense.structure.coordinates, rtol=0, atol=1e3 * bound
    )


def test_quantized_model_parity(tiny_config, tiny_protein):
    """The accuracy experiments see identical numbers with chunking enabled."""
    dense_model = ProteinStructureModel(tiny_config, seed=0)
    tiled_model = ProteinStructureModel(with_chunks(tiny_config, 7), seed=0)
    predictions = [
        (QuantizedPPM(dense_model, lightnobel_aaq()).predict(tiny_protein),
         QuantizedPPM(tiled_model, lightnobel_aaq()).predict(tiny_protein)),
        (dense_model.predict_from_structure(tiny_protein, ctx=packed_aaq_context()),
         tiled_model.predict_from_structure(tiny_protein, ctx=packed_aaq_context())),
    ]
    for dense_prediction, tiled_prediction in predictions:
        np.testing.assert_allclose(
            tiled_prediction.predicted_distances,
            dense_prediction.predicted_distances,
            rtol=0, atol=TOL,
        )
        dense_tm = tm_score_structures(dense_prediction.structure, tiny_protein)
        tiled_tm = tm_score_structures(tiled_prediction.structure, tiny_protein)
        assert tiled_tm == pytest.approx(dense_tm, abs=1e-6)


# ----------------------------------------------------- beyond the dense budget


def test_chunked_attention_runs_beyond_dense_score_budget(tiny_config, rng):
    """Chunked mode executes a length whose dense score tensor breaks the budget.

    At N=256 the tiny configuration's dense (N, N, N, heads) score tensor
    alone is 256 MiB of float64 — above the CI memory guard's budget — while
    the streaming path never holds more than one (N, H, chunk, chunk) tile.
    """
    n = 256
    score_tensor_bytes = float(n) ** 3 * tiny_config.num_heads * 8
    assert score_tensor_bytes >= 256 * 1024 * 1024
    attention = TriangleAttention(
        with_chunks(tiny_config, 32), np.random.default_rng(3), mode="starting"
    )
    pair = rng.normal(size=(n, n, tiny_config.pair_dim))
    update = attention(pair)
    assert update.shape == pair.shape
    assert np.isfinite(update).all()
