"""Unit tests for the operator-level workload model."""

import pytest

from reference_graph import filter_ops, total_macs

from repro.ppm import PPMConfig
from repro.ppm.workload import (
    ENGINE_MATMUL,
    ENGINE_VECTOR,
    PHASE_INPUT_EMBEDDING,
    PHASE_PAIR,
    PHASE_SEQUENCE,
    PHASE_STRUCTURE,
    SUBPHASE_TRI_ATT,
    SUBPHASE_TRI_MULT,
    build_folding_block_ops,
    build_model_ops,
    pair_activation_elements,
    score_matrix_elements,
)


@pytest.fixture(scope="module")
def paper_config():
    return PPMConfig.paper()


def test_build_model_ops_covers_all_phases(paper_config):
    workload = build_model_ops(paper_config, 64)
    phases = set(op.phase for op in workload.operators)
    assert phases == {PHASE_INPUT_EMBEDDING, PHASE_SEQUENCE, PHASE_PAIR, PHASE_STRUCTURE}
    assert workload.sequence_length == 64
    with pytest.raises(ValueError):
        build_model_ops(paper_config, 0)


def test_pair_dataflow_dominates_at_long_lengths(paper_config):
    """Reproduces the Fig. 3 observation: pair macs grow cubically and dominate."""
    short = build_model_ops(paper_config, 64)
    long = build_model_ops(paper_config, 512)

    def pair_fraction(workload):
        pair = sum(op.macs for op in filter_ops(workload, phase=PHASE_PAIR))
        return pair / total_macs(workload)

    assert pair_fraction(long) > pair_fraction(short)
    assert pair_fraction(long) > 0.85


def test_triangle_attention_scales_cubically(paper_config):
    n1, n2 = 128, 256

    def score_macs(n):
        return sum(
            op.macs
            for op in build_folding_block_ops(paper_config, n)
            if "attention_scores" in op.name
        )

    ratio = score_macs(n2) / score_macs(n1)
    assert ratio == pytest.approx(8.0)  # exactly cubic in sequence length


def test_linear_ops_scale_quadratically(paper_config):
    n1, n2 = 128, 256
    def linear_macs(n):
        return sum(
            op.macs
            for op in build_folding_block_ops(paper_config, n)
            if op.subphase == SUBPHASE_TRI_MULT and "linear" in op.name
        )
    ratio = linear_macs(n2) / linear_macs(n1)
    assert 3.5 < ratio < 4.5


def test_block_count_scales_operator_count(paper_config):
    one = build_model_ops(paper_config.with_blocks(1), 32)
    two = build_model_ops(paper_config.with_blocks(2), 32)
    block_ops_one = len(filter_ops(one, phase=PHASE_PAIR)) + len(
        filter_ops(one, phase=PHASE_SEQUENCE)
    )
    block_ops_two = len(filter_ops(two, phase=PHASE_PAIR)) + len(
        filter_ops(two, phase=PHASE_SEQUENCE)
    )
    assert block_ops_two == 2 * block_ops_one


def test_score_matrix_is_fusible_and_cubic(paper_config):
    ops = build_folding_block_ops(paper_config, 64)
    score_ops = [op for op in ops if "attention_scores" in op.name]
    assert score_ops and all(op.fusible for op in score_ops)
    assert score_matrix_elements(paper_config, 64) == 64 ** 3 * paper_config.num_heads
    assert pair_activation_elements(paper_config, 64) == 64 * 64 * paper_config.pair_dim


def test_engines_are_assigned(paper_config):
    workload = build_model_ops(paper_config, 32)
    engines = {op.engine for op in workload.operators}
    assert engines == {ENGINE_MATMUL, ENGINE_VECTOR}
    assert all(op.macs >= 0 and op.vector_ops >= 0 for op in workload.operators)


def test_recycling_multiplies_trunk_work(paper_config):
    config = paper_config.with_recycles(2)
    single = build_model_ops(config, 32, include_recycles=False)
    recycled = build_model_ops(config, 32, include_recycles=True)
    embedding_macs = sum(op.macs for op in filter_ops(single, phase=PHASE_INPUT_EMBEDDING))
    trunk_macs = total_macs(single) - embedding_macs
    expected = embedding_macs + 3 * trunk_macs  # 2 recycles = 3 trunk passes
    assert total_macs(recycled) == pytest.approx(expected)
