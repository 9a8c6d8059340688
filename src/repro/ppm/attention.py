"""Sequence-representation attention with pair bias, and outer product mean.

The Sequence Representation dataflow of the folding block (Fig. 2b) consists
of a pair-biased self-attention over the sequence representation followed by a
transition MLP; the sequence representation then feeds back into the pair
representation through the Outer Product Mean.  These blocks account for a
small share of the runtime at long sequence length (Fig. 3b) but they are the
source of the "unpredictable outliers ... due to biasing and merging with
Sequence Representation" that motivates dynamic outlier handling.
"""

from __future__ import annotations

import numpy as np

from .activation_tap import GROUP_C, ActivationContext, NULL_CONTEXT
from .chunking import blockwise_attention, iter_chunks
from .config import PPMConfig
from .functional import sigmoid
from .modules import LayerNorm, Linear, Module


class SequenceAttention(Module):
    """Self-attention over the sequence representation with an additive pair bias.

    Honors ``PPMConfig.attn_chunk_size``: when set, attention is evaluated in
    query blocks (each against the full key axis — the score matrix is only
    (H, Ns, Ns) here, so the blocks exist for uniformity with the triangular
    stack, not out of memory pressure).  ``None`` is the dense path, one
    block.  Both run :func:`~repro.ppm.chunking.blockwise_attention`.
    """

    def __init__(self, config: PPMConfig, rng: np.random.Generator, name: str = "sequence_attention") -> None:
        super().__init__(name)
        self.chunk_size = config.attn_chunk_size
        self.num_heads = config.seq_num_heads
        if config.seq_dim % self.num_heads != 0:
            raise ValueError("seq_dim must be divisible by seq_num_heads")
        self.head_dim = config.seq_dim // self.num_heads
        seq_dim = config.seq_dim
        self.layer_norm = self.register_child("layer_norm", LayerNorm(seq_dim, "layer_norm"))
        self.pair_norm = self.register_child("pair_norm", LayerNorm(config.pair_dim, "pair_norm"))
        self.linear_q = self.register_child("linear_q", Linear(seq_dim, seq_dim, rng, "linear_q", bias=False))
        self.linear_k = self.register_child("linear_k", Linear(seq_dim, seq_dim, rng, "linear_k", bias=False))
        self.linear_v = self.register_child("linear_v", Linear(seq_dim, seq_dim, rng, "linear_v", bias=False))
        self.linear_bias = self.register_child(
            "linear_bias", Linear(config.pair_dim, self.num_heads, rng, "linear_bias", bias=False)
        )
        self.linear_g = self.register_child("linear_g", Linear(seq_dim, seq_dim, rng, "linear_g", init="gating"))
        self.linear_o = self.register_child("linear_o", Linear(seq_dim, seq_dim, rng, "linear_o", init="final"))

    def forward(
        self, sequence: np.ndarray, pair: np.ndarray, ctx: ActivationContext = NULL_CONTEXT
    ) -> np.ndarray:
        """Residual update for the sequence representation (Ns, Hm)."""
        normalized = self.layer_norm(sequence)
        q = self.linear_q(normalized).reshape(-1, self.num_heads, self.head_dim)
        k = self.linear_k(normalized).reshape(-1, self.num_heads, self.head_dim)
        v = self.linear_v(normalized).reshape(-1, self.num_heads, self.head_dim)

        bias = self.linear_bias(self.pair_norm(pair))          # (Ns, Ns, H)
        bias = ctx.process(f"{self.name}.pair_bias", GROUP_C, bias)
        bias = bias.transpose(2, 0, 1)                          # (H, Ns, Ns)

        attended = blockwise_attention(
            q.transpose(1, 0, 2), k.transpose(1, 0, 2), v.transpose(1, 0, 2), bias,
            scale_divisor=np.sqrt(self.head_dim),
            query_chunk=self.chunk_size,
        ).transpose(1, 0, 2)                                    # (Ns, H, D)
        attended = attended.reshape(sequence.shape[0], -1)

        gate = sigmoid(self.linear_g(normalized))
        return self.linear_o(attended * gate)

    __call__ = forward


class OuterProductMean(Module):
    """Project the sequence representation into a pair-representation update.

    The (Ns, Ns, h*h) outer-product tensor is ``h*h / Hz`` times wider than
    the pair update it produces (32x at ``small()``), so it is built one block
    of rows (first residue axis) at a time: each block is scaled, sent through
    the ``outer`` tap and projected by ``linear_o`` into its rows of the
    output.  ``PPMConfig.attn_chunk_size`` sets the block (it already tiles
    the output-row axis of attention); ``None`` is one block, the dense path.
    Every block holds complete (i, j) tokens and ``linear_o`` projects each
    row with the same matmul, so the output is bit-identical for any block
    size, AAQ contexts included.  A recording context sees one ``outer``
    record per block.  Every block is built in the same reused buffer, so
    the array handed to the ``outer`` tap is valid only during that call: a
    context that keeps it must copy it (``ActivationRecorder`` does).
    """

    def __init__(
        self,
        config: PPMConfig,
        rng: np.random.Generator,
        hidden_dim: int = 32,
        name: str = "outer_product_mean",
    ) -> None:
        super().__init__(name)
        self.chunk_size = config.attn_chunk_size
        hidden_dim = min(hidden_dim, config.seq_dim)
        self.hidden_dim = hidden_dim
        self.layer_norm = self.register_child("layer_norm", LayerNorm(config.seq_dim, "layer_norm"))
        self.linear_a = self.register_child("linear_a", Linear(config.seq_dim, hidden_dim, rng, "linear_a"))
        self.linear_b = self.register_child("linear_b", Linear(config.seq_dim, hidden_dim, rng, "linear_b"))
        self.linear_o = self.register_child(
            "linear_o", Linear(hidden_dim * hidden_dim, config.pair_dim, rng, "linear_o", init="final")
        )

    def forward(self, sequence: np.ndarray, ctx: ActivationContext = NULL_CONTEXT) -> np.ndarray:
        """Pair-representation update of shape (Ns, Ns, Hz) from a (Ns, Hm) input."""
        normalized = self.layer_norm(sequence)
        a = self.linear_a(normalized)
        b = self.linear_b(normalized)
        num_residues, num_cols = a.shape[0], b.shape[0]
        update = np.empty((num_residues, num_cols, self.linear_o.out_dim), dtype=a.dtype)
        block = min(self.chunk_size or num_residues, num_residues)
        buffer = np.empty((block, num_cols, a.shape[1], b.shape[1]), dtype=a.dtype)
        for rs in iter_chunks(num_residues, self.chunk_size):
            outer = np.multiply(a[rs, None, :, None], b[None, :, None, :], out=buffer[: rs.stop - rs.start])
            outer = outer.reshape(rs.stop - rs.start, num_cols, -1)
            outer /= np.sqrt(self.hidden_dim)
            outer = ctx.process(f"{self.name}.outer", GROUP_C, outer)
            update[rs] = self.linear_o(outer)
        return update

    __call__ = forward
