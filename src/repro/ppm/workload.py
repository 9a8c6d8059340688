"""Operator-level workload model of the PPM at paper scale.

The latency, memory and energy experiments of the paper run ESMFold at its
full dimensions (pair dim 128, sequence dim 1024, 48 blocks) on sequences of
hundreds to thousands of residues.  Executing the numpy substrate at that
scale is unnecessary (and far too slow): what the hardware simulator, the GPU
baseline model and the cost models need is the *operator graph* — every
matrix multiplication and vector operation of the dataflow in Fig. 2(b) with
its exact MAC count, activation sizes and activation group.

``build_model_ops`` produces that graph for a given sequence length.  All
downstream models (LightNobel accelerator, A100/H100 analytical model, peak
memory, computational cost) consume the same graph, which keeps the
comparisons apples-to-apples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from .activation_tap import GROUP_A, GROUP_B, GROUP_C
from .config import PPMConfig

#: Operator execution engines.
ENGINE_MATMUL = "matmul"   # executed on the RMPU / GPU tensor cores
ENGINE_VECTOR = "vector"   # executed on the VVPU / GPU CUDA cores

#: Pipeline phases (Fig. 2a / Fig. 3 breakdown categories).
PHASE_INPUT_EMBEDDING = "input_embedding"
PHASE_SEQUENCE = "sequence_dataflow"
PHASE_PAIR = "pair_dataflow"
PHASE_STRUCTURE = "structure_module"

#: Sub-phases of the pair dataflow used in the Fig. 3 breakdown.
SUBPHASE_BIAS_MLP = "bias_mlp"
SUBPHASE_TRI_MULT = "triangular_multiplication"
SUBPHASE_TRI_ATT = "triangular_attention"


@dataclass(frozen=True)
class Operator:
    """One operator of the PPM dataflow."""

    name: str
    engine: str
    phase: str
    subphase: str = ""
    macs: float = 0.0             # multiply-accumulate count
    vector_ops: float = 0.0       # elementwise / reduction operations
    input_elements: float = 0.0   # activation elements read
    output_elements: float = 0.0  # activation elements written
    weight_elements: float = 0.0  # weight elements read
    output_group: Optional[str] = None  # AAQ group of the produced activation
    #: True for intermediates that never leave on-chip storage under
    #: LightNobel's token-wise MHA (e.g. the attention score matrix).
    fusible: bool = False

    @property
    def flops(self) -> float:
        return 2.0 * self.macs + self.vector_ops


@dataclass
class Workload:
    """The operator graph of one PPM inference at a given sequence length."""

    sequence_length: int
    config: PPMConfig
    operators: List[Operator] = field(default_factory=list)


def _linear_op(
    name: str,
    tokens: float,
    in_dim: int,
    out_dim: int,
    phase: str,
    subphase: str = "",
    group: Optional[str] = GROUP_C,
) -> Operator:
    """A token-parallel linear layer over ``tokens`` tokens."""
    return Operator(
        name=name,
        engine=ENGINE_MATMUL,
        phase=phase,
        subphase=subphase,
        macs=tokens * in_dim * out_dim,
        input_elements=tokens * in_dim,
        output_elements=tokens * out_dim,
        weight_elements=in_dim * out_dim + out_dim,
        output_group=group,
    )


def _vector_op(
    name: str,
    elements: float,
    passes: float,
    phase: str,
    subphase: str = "",
    group: Optional[str] = None,
    output_elements: Optional[float] = None,
    fusible: bool = False,
) -> Operator:
    return Operator(
        name=name,
        engine=ENGINE_VECTOR,
        phase=phase,
        subphase=subphase,
        vector_ops=elements * passes,
        input_elements=elements,
        output_elements=elements if output_elements is None else output_elements,
        output_group=group,
        fusible=fusible,
    )


def build_triangle_multiplication_ops(config: PPMConfig, n: int, mode: str, block: int) -> List[Operator]:
    """Operators of one Triangular Multiplication block (Fig. 6a)."""
    hz = config.pair_dim
    hidden = config.triangle_hidden
    tokens = float(n) * n
    prefix = f"block{block:02d}.tri_mult_{mode}"
    return [
        _vector_op(f"{prefix}.layer_norm_in", tokens * hz, 4, PHASE_PAIR, SUBPHASE_TRI_MULT, GROUP_B),
        _linear_op(f"{prefix}.linear_a_p", tokens, hz, hidden, PHASE_PAIR, SUBPHASE_TRI_MULT),
        _linear_op(f"{prefix}.linear_a_g", tokens, hz, hidden, PHASE_PAIR, SUBPHASE_TRI_MULT),
        _linear_op(f"{prefix}.linear_b_p", tokens, hz, hidden, PHASE_PAIR, SUBPHASE_TRI_MULT),
        _linear_op(f"{prefix}.linear_b_g", tokens, hz, hidden, PHASE_PAIR, SUBPHASE_TRI_MULT),
        _vector_op(f"{prefix}.gates", tokens * hidden * 2, 2, PHASE_PAIR, SUBPHASE_TRI_MULT),
        Operator(
            name=f"{prefix}.triangle_matmul",
            engine=ENGINE_MATMUL,
            phase=PHASE_PAIR,
            subphase=SUBPHASE_TRI_MULT,
            macs=float(n) ** 3 * hidden,
            input_elements=2 * tokens * hidden,
            output_elements=tokens * hidden,
            weight_elements=0.0,
            output_group=GROUP_A,
        ),
        _vector_op(f"{prefix}.layer_norm_out", tokens * hidden, 4, PHASE_PAIR, SUBPHASE_TRI_MULT, GROUP_B),
        _linear_op(f"{prefix}.linear_g", tokens, hz, hz, PHASE_PAIR, SUBPHASE_TRI_MULT),
        _linear_op(f"{prefix}.linear_o", tokens, hidden, hz, PHASE_PAIR, SUBPHASE_TRI_MULT),
        _vector_op(f"{prefix}.gate_and_residual", tokens * hz, 3, PHASE_PAIR, SUBPHASE_TRI_MULT, GROUP_A),
    ]


def build_triangle_attention_ops(config: PPMConfig, n: int, mode: str, block: int) -> List[Operator]:
    """Operators of one Triangular Attention block (Fig. 6b)."""
    hz = config.pair_dim
    heads = config.num_heads
    head_dim = config.head_dim
    width = heads * head_dim
    tokens = float(n) * n
    prefix = f"block{block:02d}.tri_att_{mode}"
    return [
        _vector_op(f"{prefix}.layer_norm", tokens * hz, 4, PHASE_PAIR, SUBPHASE_TRI_ATT, GROUP_B),
        _linear_op(f"{prefix}.linear_q", tokens, hz, width, PHASE_PAIR, SUBPHASE_TRI_ATT),
        _linear_op(f"{prefix}.linear_k", tokens, hz, width, PHASE_PAIR, SUBPHASE_TRI_ATT),
        _linear_op(f"{prefix}.linear_v", tokens, hz, width, PHASE_PAIR, SUBPHASE_TRI_ATT),
        _linear_op(f"{prefix}.linear_bias", tokens, hz, heads, PHASE_PAIR, SUBPHASE_TRI_ATT),
        Operator(
            name=f"{prefix}.attention_scores",
            engine=ENGINE_MATMUL,
            phase=PHASE_PAIR,
            subphase=SUBPHASE_TRI_ATT,
            macs=float(n) ** 3 * heads * head_dim,
            input_elements=2 * tokens * width,
            output_elements=float(n) ** 3 * heads,
            weight_elements=0.0,
            output_group=GROUP_C,
            fusible=True,
        ),
        _vector_op(
            f"{prefix}.softmax",
            float(n) ** 3 * heads,
            5,
            PHASE_PAIR,
            SUBPHASE_TRI_ATT,
            GROUP_C,
            fusible=True,
        ),
        Operator(
            name=f"{prefix}.attention_values",
            engine=ENGINE_MATMUL,
            phase=PHASE_PAIR,
            subphase=SUBPHASE_TRI_ATT,
            macs=float(n) ** 3 * heads * head_dim,
            input_elements=float(n) ** 3 * heads + tokens * width,
            output_elements=tokens * width,
            weight_elements=0.0,
            output_group=GROUP_C,
        ),
        _linear_op(f"{prefix}.linear_g", tokens, hz, width, PHASE_PAIR, SUBPHASE_TRI_ATT),
        _linear_op(f"{prefix}.linear_o", tokens, width, hz, PHASE_PAIR, SUBPHASE_TRI_ATT),
        _vector_op(f"{prefix}.gate_and_residual", tokens * hz, 3, PHASE_PAIR, SUBPHASE_TRI_ATT, GROUP_A),
    ]


def build_pair_bias_mlp_ops(config: PPMConfig, n: int, block: int) -> List[Operator]:
    """Outer product mean, pair transition and bias calculation of one block."""
    hz = config.pair_dim
    hm = config.seq_dim
    tokens = float(n) * n
    hidden = 32
    factor = config.transition_factor
    prefix = f"block{block:02d}.bias_mlp"
    return [
        _vector_op(f"{prefix}.opm_layer_norm", float(n) * hm, 4, PHASE_PAIR, SUBPHASE_BIAS_MLP),
        _linear_op(f"{prefix}.opm_linear_a", float(n), hm, hidden, PHASE_PAIR, SUBPHASE_BIAS_MLP),
        _linear_op(f"{prefix}.opm_linear_b", float(n), hm, hidden, PHASE_PAIR, SUBPHASE_BIAS_MLP),
        Operator(
            name=f"{prefix}.outer_product",
            engine=ENGINE_MATMUL,
            phase=PHASE_PAIR,
            subphase=SUBPHASE_BIAS_MLP,
            macs=tokens * hidden * hidden,
            input_elements=2 * float(n) * hidden,
            output_elements=tokens * hidden * hidden,
            weight_elements=0.0,
            output_group=GROUP_C,
        ),
        _linear_op(f"{prefix}.opm_linear_o", tokens, hidden * hidden, hz, PHASE_PAIR, SUBPHASE_BIAS_MLP),
        _vector_op(f"{prefix}.opm_residual", tokens * hz, 1, PHASE_PAIR, SUBPHASE_BIAS_MLP, GROUP_A),
        _vector_op(f"{prefix}.transition_layer_norm", tokens * hz, 4, PHASE_PAIR, SUBPHASE_BIAS_MLP, GROUP_B),
        _linear_op(f"{prefix}.transition_expand", tokens, hz, hz * factor, PHASE_PAIR, SUBPHASE_BIAS_MLP),
        _vector_op(f"{prefix}.transition_relu", tokens * hz * factor, 1, PHASE_PAIR, SUBPHASE_BIAS_MLP),
        _linear_op(f"{prefix}.transition_contract", tokens, hz * factor, hz, PHASE_PAIR, SUBPHASE_BIAS_MLP),
        _vector_op(f"{prefix}.transition_residual", tokens * hz, 1, PHASE_PAIR, SUBPHASE_BIAS_MLP, GROUP_A),
    ]


def build_sequence_dataflow_ops(config: PPMConfig, n: int, block: int) -> List[Operator]:
    """Sequence-representation self-attention and transition of one block."""
    hm = config.seq_dim
    hz = config.pair_dim
    heads = config.seq_num_heads
    factor = config.transition_factor
    prefix = f"block{block:02d}.sequence"
    return [
        _vector_op(f"{prefix}.layer_norm", float(n) * hm, 4, PHASE_SEQUENCE, "", None),
        _linear_op(f"{prefix}.linear_q", float(n), hm, hm, PHASE_SEQUENCE, "", None),
        _linear_op(f"{prefix}.linear_k", float(n), hm, hm, PHASE_SEQUENCE, "", None),
        _linear_op(f"{prefix}.linear_v", float(n), hm, hm, PHASE_SEQUENCE, "", None),
        _linear_op(f"{prefix}.pair_bias", float(n) * n, hz, heads, PHASE_SEQUENCE, "", None),
        Operator(
            name=f"{prefix}.attention",
            engine=ENGINE_MATMUL,
            phase=PHASE_SEQUENCE,
            macs=2.0 * float(n) * n * hm,
            input_elements=2 * float(n) * hm,
            output_elements=float(n) * hm,
            weight_elements=0.0,
        ),
        _vector_op(f"{prefix}.softmax", float(n) * n * heads, 5, PHASE_SEQUENCE),
        _linear_op(f"{prefix}.linear_o", float(n), hm, hm, PHASE_SEQUENCE, "", None),
        _vector_op(f"{prefix}.transition_layer_norm", float(n) * hm, 4, PHASE_SEQUENCE),
        _linear_op(f"{prefix}.transition_expand", float(n), hm, hm * factor, PHASE_SEQUENCE, "", None),
        _linear_op(f"{prefix}.transition_contract", float(n), hm * factor, hm, PHASE_SEQUENCE, "", None),
        _vector_op(f"{prefix}.residuals", float(n) * hm, 2, PHASE_SEQUENCE),
    ]


def build_folding_block_ops(config: PPMConfig, n: int, block: int = 0) -> List[Operator]:
    """All operators of one Protein Folding Block (Fig. 2b)."""
    return [
        *build_sequence_dataflow_ops(config, n, block),
        *build_pair_bias_mlp_ops(config, n, block),
        *build_triangle_multiplication_ops(config, n, "outgoing", block),
        *build_triangle_multiplication_ops(config, n, "incoming", block),
        *build_triangle_attention_ops(config, n, "starting", block),
        *build_triangle_attention_ops(config, n, "ending", block),
    ]


def build_input_embedding_ops(config: PPMConfig, n: int) -> List[Operator]:
    """Input-embedding operators (protein language model forward pass).

    ESMFold's input embedding is the ESM-2 3B language model; its cost is
    modelled as the standard transformer estimate of 2 x parameters MACs per
    residue plus the pair/sequence projection layers.
    """
    lm_macs = config.language_model_params * float(n)
    return [
        Operator(
            name="input_embedding.language_model",
            engine=ENGINE_MATMUL,
            phase=PHASE_INPUT_EMBEDDING,
            macs=lm_macs,
            input_elements=float(n) * config.seq_dim,
            output_elements=float(n) * config.seq_dim,
            weight_elements=config.language_model_params,
        ),
        _linear_op("input_embedding.pair_projection", float(n) * n, 32, config.pair_dim,
                   PHASE_INPUT_EMBEDDING, "", None),
    ]


def build_structure_module_ops(config: PPMConfig, n: int, num_layers: int = 8) -> List[Operator]:
    """Structure-module operators (invariant point attention style costs)."""
    hz = config.pair_dim
    hs = 384  # structure-module single representation width in ESMFold
    ops: List[Operator] = []
    for layer in range(num_layers):
        ops.append(
            Operator(
                name=f"structure.ipa_{layer}",
                engine=ENGINE_MATMUL,
                phase=PHASE_STRUCTURE,
                macs=float(n) * n * (hz + hs) * 4 + float(n) * hs * hs * 6,
                input_elements=float(n) * n * hz + float(n) * hs,
                output_elements=float(n) * hs,
                weight_elements=hs * hs * 6,
            )
        )
        ops.append(_vector_op(f"structure.frames_{layer}", float(n) * hs, 6, PHASE_STRUCTURE))
    return ops


#: Builds the operators of one block of a segment: ``(config, n, block)``.
SegmentBuilder = Callable[[PPMConfig, int, int], List[Operator]]


def _input_embedding_segment(config: PPMConfig, n: int, block: int) -> List[Operator]:
    return build_input_embedding_ops(config, n)


def _structure_module_segment(config: PPMConfig, n: int, block: int) -> List[Operator]:
    return build_structure_module_ops(config, n)


def model_segments(
    config: PPMConfig, include_recycles: bool = False
) -> List[Tuple[SegmentBuilder, int]]:
    """The operator graph in graph order, as ``(builder, blocks)`` runs.

    The graph is ``builder(config, n, block)`` for ``block in range(blocks)``
    over each run in turn: the input embedding, then per recycle pass the
    ``num_blocks`` folding blocks and the structure module.  This list is the
    one owner of graph order — :func:`build_model_ops` expands it into
    operators, and :mod:`repro.ppm.op_table` fits one block of each distinct
    builder once per config, at n = 1–8, into per-row cubics in ``n``.  No
    builder's numbers depend on ``block`` (only the operator names carry it),
    and each is an integer cubic in ``n`` (the fit raises otherwise).
    """
    passes = (config.num_recycles + 1) if include_recycles else 1
    segments: List[Tuple[SegmentBuilder, int]] = [(_input_embedding_segment, 1)]
    for _ in range(passes):
        segments.append((build_folding_block_ops, config.num_blocks))
        segments.append((_structure_module_segment, 1))
    return segments


def check_sequence_length(n: int) -> None:
    """Reject a non-positive sequence length (every graph builder's precondition)."""
    if n <= 0:
        raise ValueError("sequence length must be positive")


def build_model_ops(config: PPMConfig, n: int, include_recycles: bool = False) -> Workload:
    """Full operator graph of one PPM inference at sequence length ``n``."""
    check_sequence_length(n)
    operators: List[Operator] = []
    for builder, blocks in model_segments(config, include_recycles):
        for block in range(blocks):
            operators.extend(builder(config, n, block))
    return Workload(sequence_length=n, config=config, operators=operators)


def pair_activation_elements(config: PPMConfig, n: int) -> float:
    """Number of elements of one Pair Representation tensor."""
    return float(n) * n * config.pair_dim


def score_matrix_elements(config: PPMConfig, n: int) -> float:
    """Number of elements of one triangular-attention score matrix (all heads)."""
    return float(n) ** 3 * config.num_heads


def sequence_activation_elements(config: PPMConfig, n: int) -> float:
    """Number of elements of one Sequence Representation tensor."""
    return float(n) * config.seq_dim
