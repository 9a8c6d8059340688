"""Unit tests for triangle blocks, attention, outer product mean and folding blocks."""

import numpy as np
import pytest

from repro.core import AAQQuantizer
from repro.ppm import (
    GROUP_A,
    GROUP_B,
    GROUP_C,
    ActivationContext,
    ActivationRecorder,
    FoldingBlock,
    FoldingTrunk,
    OuterProductMean,
    PPMConfig,
    SequenceAttention,
    TriangleAttention,
    TriangleMultiplication,
)


@pytest.fixture(scope="module")
def config():
    return PPMConfig.tiny()


@pytest.fixture(scope="module")
def reps(config):
    rng = np.random.default_rng(0)
    n = 12
    pair = rng.normal(size=(n, n, config.pair_dim))
    seq = rng.normal(size=(n, config.seq_dim))
    return seq, pair


class TestTriangleMultiplication:
    def test_output_shape(self, config, reps):
        _, pair = reps
        module = TriangleMultiplication(config, np.random.default_rng(1), mode="outgoing")
        out = module(pair)
        assert out.shape == pair.shape

    def test_outgoing_and_incoming_differ(self, config, reps):
        _, pair = reps
        rng_a, rng_b = np.random.default_rng(2), np.random.default_rng(2)
        outgoing = TriangleMultiplication(config, rng_a, mode="outgoing")
        incoming = TriangleMultiplication(config, rng_b, mode="incoming")
        assert not np.allclose(outgoing(pair), incoming(pair))

    def test_invalid_mode(self, config):
        with pytest.raises(ValueError):
            TriangleMultiplication(config, np.random.default_rng(0), mode="sideways")

    def test_activation_taps_report_expected_groups(self, config, reps):
        _, pair = reps
        module = TriangleMultiplication(config, np.random.default_rng(3))
        recorder = ActivationRecorder()
        module(pair, ctx=recorder)
        groups = {r.group for r in recorder.records}
        assert groups == {GROUP_A, GROUP_B, GROUP_C}
        names = [r.name for r in recorder.records]
        assert any("pre_ln" in n for n in names)
        assert any("proj_a" in n for n in names)


class TestTriangleAttention:
    def test_output_shape_and_modes(self, config, reps):
        _, pair = reps
        for mode in ("starting", "ending"):
            module = TriangleAttention(config, np.random.default_rng(4), mode=mode)
            assert module(pair).shape == pair.shape

    def test_invalid_mode(self, config):
        with pytest.raises(ValueError):
            TriangleAttention(config, np.random.default_rng(0), mode="middle")

    def test_attention_weights_tap_present(self, config, reps):
        _, pair = reps
        module = TriangleAttention(config, np.random.default_rng(5))
        recorder = ActivationRecorder()
        module(pair, ctx=recorder)
        weight_records = [r for r in recorder.records if "attention_weights" in r.name]
        assert len(weight_records) == 1
        # attention weights over the last axis sum to 1, so mean is 1/N
        assert weight_records[0].mean_abs == pytest.approx(1.0 / pair.shape[0], rel=0.2)


class TestSequenceAttentionAndOPM:
    def test_sequence_attention_shape(self, config, reps):
        seq, pair = reps
        module = SequenceAttention(config, np.random.default_rng(6))
        assert module(seq, pair).shape == seq.shape

    def test_outer_product_mean_shape(self, config, reps):
        seq, pair = reps
        module = OuterProductMean(config, np.random.default_rng(7))
        out = module(seq)
        assert out.shape == (seq.shape[0], seq.shape[0], config.pair_dim)

    def test_outer_product_mean_matches_einsum_bit_for_bit(self, config, reps):
        seq, _ = reps
        module = OuterProductMean(config, np.random.default_rng(7))
        normalized = module.layer_norm(seq)
        a, b = module.linear_a(normalized), module.linear_b(normalized)
        outer = np.einsum("ic,jd->ijcd", a, b).reshape(a.shape[0], b.shape[0], -1)
        expected = module.linear_o(outer / np.sqrt(module.hidden_dim))
        assert module(seq).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("chunk", [None, 3])
    def test_outer_tap_is_quantized_in_its_block_buffer(self, config, reps, chunk):
        """The ``outer`` tap is offered its block as ``out``; AAQ writes over it."""
        seq, _ = reps
        module = OuterProductMean(config.with_chunking(attn_chunk_size=chunk), np.random.default_rng(7))
        aaq = AAQQuantizer()

        class Offered(ActivationContext):
            def __init__(self, in_place):
                self.in_place, self.offers = in_place, []

            def process(self, name, group, value, out=None):
                self.offers.append(out is value)
                return aaq.quantize(group, value, out=out if self.in_place else None)

        in_place, copied = Offered(True), Offered(False)
        assert module(seq, in_place).tobytes() == module(seq, copied).tobytes()
        assert in_place.offers and all(in_place.offers)


class TestFoldingBlock:
    def test_shapes_preserved(self, config, reps):
        seq, pair = reps
        block = FoldingBlock(config, np.random.default_rng(8), index=0)
        new_seq, new_pair = block(seq, pair)
        assert new_seq.shape == seq.shape
        assert new_pair.shape == pair.shape

    def test_residual_updates_are_moderate(self, config, reps):
        """Sub-layer outputs are scaled so the residual stream dominates."""
        seq, pair = reps
        block = FoldingBlock(config, np.random.default_rng(9), index=0)
        _, new_pair = block(seq, pair)
        relative_change = np.abs(new_pair - pair).mean() / np.abs(pair).mean()
        assert relative_change < 1.0

    def test_trunk_stacks_blocks(self, config, reps):
        seq, pair = reps
        trunk = FoldingTrunk(config, np.random.default_rng(10))
        assert len(trunk.blocks) == config.num_blocks
        out = trunk(seq, pair)
        assert out.pair_representation.shape == pair.shape
        assert out.sequence_representation.shape == seq.shape

    def test_trunk_records_group_a_residual_taps(self, config, reps):
        seq, pair = reps
        trunk = FoldingTrunk(config, np.random.default_rng(11))
        recorder = ActivationRecorder()
        trunk(seq, pair, ctx=recorder)
        residual_records = [r for r in recorder.records if "residual" in r.name]
        assert len(residual_records) == 2 * config.num_blocks
        assert all(r.group == GROUP_A for r in residual_records)
