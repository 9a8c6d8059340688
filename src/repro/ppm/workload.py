"""Operator rows of the PPM at paper scale, one segment builder per block kind.

The latency, memory and energy experiments of the paper run ESMFold at its
full dimensions (pair dim 128, sequence dim 1024, 48 blocks) on sequences of
hundreds to thousands of residues.  Executing the numpy substrate at that
scale is unnecessary (and far too slow): what the hardware simulator, the GPU
baseline model and the cost models need is every matrix multiplication and
vector operation of the dataflow in Fig. 2(b) with its exact MAC count,
activation sizes and activation group.

Each :func:`model_segments` builder writes those numbers for one block of a
segment as :class:`Operator` rows, and :mod:`repro.ppm.op_table` fits them
once per config into per-row cubics in n; no table is built from operators.
:func:`build_model_ops` expands every block into the whole object graph,
which the tests keep as the oracle the fitted tables must equal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from .activation_tap import GROUP_A, GROUP_B, GROUP_C
from .config import PPMConfig
from .labels import ENGINE_MATMUL, ENGINE_VECTOR, PHASE_INPUT_EMBEDDING, PHASE_PAIR, PHASE_SEQUENCE
from .labels import PHASE_STRUCTURE, SUBPHASE_BIAS_MLP, SUBPHASE_TRI_ATT, SUBPHASE_TRI_MULT


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


def build_triangle_multiplication_ops(config: PPMConfig, n: int, mode: str) -> List[Operator]:
    """Operators of one Triangular Multiplication block (Fig. 6a)."""
    hz = config.pair_dim
    hidden = config.triangle_hidden
    tokens = float(n) * n
    prefix = f"tri_mult_{mode}"
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


def build_triangle_attention_ops(config: PPMConfig, n: int, mode: str) -> List[Operator]:
    """Operators of one Triangular Attention block (Fig. 6b)."""
    hz = config.pair_dim
    heads = config.num_heads
    head_dim = config.head_dim
    width = heads * head_dim
    tokens = float(n) * n
    prefix = f"tri_att_{mode}"
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


def build_pair_bias_mlp_ops(config: PPMConfig, n: int) -> List[Operator]:
    """Outer product mean, pair transition and bias calculation of one block."""
    hz = config.pair_dim
    hm = config.seq_dim
    tokens = float(n) * n
    hidden = 32
    factor = config.transition_factor
    prefix = "bias_mlp"
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


def build_sequence_dataflow_ops(config: PPMConfig, n: int) -> List[Operator]:
    """Sequence-representation self-attention and transition of one block."""
    hm = config.seq_dim
    hz = config.pair_dim
    heads = config.seq_num_heads
    factor = config.transition_factor
    prefix = "sequence"
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


def build_folding_block_ops(config: PPMConfig, n: int) -> List[Operator]:
    """All operators of one Protein Folding Block (Fig. 2b)."""
    return [
        *build_sequence_dataflow_ops(config, n),
        *build_pair_bias_mlp_ops(config, n),
        *build_triangle_multiplication_ops(config, n, "outgoing"),
        *build_triangle_multiplication_ops(config, n, "incoming"),
        *build_triangle_attention_ops(config, n, "starting"),
        *build_triangle_attention_ops(config, n, "ending"),
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


#: Builds the operators of one block of a segment: ``(config, n)``.
SegmentBuilder = Callable[[PPMConfig, int], List[Operator]]


def model_segments(
    config: PPMConfig, include_recycles: bool = False
) -> List[Tuple[SegmentBuilder, int, str]]:
    """The operator rows in graph order, as ``(builder, blocks, prefix)`` runs.

    Each run is ``blocks`` copies of ``builder(config, n)``, block ``b``'s
    operator names prefixed with ``prefix.format(b)``: the input embedding,
    then per recycle pass the ``num_blocks`` folding blocks (``block00.`` on)
    and the structure module.  This list is the one owner of row order and
    names — :mod:`repro.ppm.op_table` fits one block of each distinct builder
    once per config, at n = 1–8, into per-row cubics in ``n``, and
    :func:`build_model_ops` expands it into operators.  Every builder's
    numbers are an integer cubic in ``n`` (the fit raises otherwise).
    """
    passes = (config.num_recycles + 1) if include_recycles else 1
    segments: List[Tuple[SegmentBuilder, int, str]] = [(build_input_embedding_ops, 1, "")]
    for _ in range(passes):
        segments.append((build_folding_block_ops, config.num_blocks, "block{:02d}."))
        segments.append((build_structure_module_ops, 1, ""))
    return segments


def check_sequence_length(n: int) -> None:
    """Reject a non-positive sequence length (every graph builder's precondition)."""
    if n <= 0:
        raise ValueError("sequence length must be positive")


def build_model_ops(config: PPMConfig, n: int, include_recycles: bool = False) -> Workload:
    """Full operator graph of one PPM inference at sequence length ``n``."""
    check_sequence_length(n)
    operators: List[Operator] = []
    for builder, blocks, prefix in model_segments(config, include_recycles):
        for block in range(blocks):
            head = prefix.format(block)
            for op in builder(config, n):
                # Each call returns fresh operators, so naming them in place is safe;
                # a copy per operator would make the graph half again slower.
                object.__setattr__(op, "name", f"{head}{op.name}")
                operators.append(op)
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
