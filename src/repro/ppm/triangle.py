"""Triangular Multiplication and Triangular Attention blocks (Fig. 6a/6b).

These two blocks dominate the Pair Representation dataflow and are the main
target of AAQ.  The implementation mirrors the ESMFold/AlphaFold2 pair stack:

* Triangular multiplication ("outgoing"/"incoming"): gated projections of the
  pair representation are combined along the third sequence axis with a
  matrix multiplication, normalized, gated again and projected back.
* Triangular attention ("starting"/"ending" node): multi-head attention over
  rows (or columns) of the pair representation with an additive pair bias and
  a sigmoid output gate.

Every activation the paper quantizes is routed through the activation context
with its group label (A: residual-stream/pre-LayerNorm, B: post-LayerNorm,
C: post-linear intermediates).

Both blocks support opt-in blockwise execution (``PPMConfig.attn_chunk_size``
/ ``triangle_chunk_size``): triangular attention evaluates query blocks with
a streaming max/denominator softmax so the (N, N, N, heads) score tensor is
never materialized, and triangular multiplication tiles its third-axis
contraction.  ``None`` (the default) runs the dense paths; the chunked paths
fire the same tap names with the same group labels and agree with dense at
the repo-wide 1e-9 parity bar.  Every contraction is a batched ``np.matmul``.
"""

from __future__ import annotations

import numpy as np

from .activation_tap import GROUP_A, GROUP_B, GROUP_C, ActivationContext, NULL_CONTEXT
from .chunking import (
    blockwise_attention,
    context_observes_taps,
    iter_chunks,
    streaming_attention,
)
from .config import PPMConfig
from .functional import sigmoid
from .modules import LayerNorm, Linear, Module


class TriangleMultiplication(Module):
    """Triangular multiplicative update using outgoing or incoming edges."""

    def __init__(
        self,
        config: PPMConfig,
        rng: np.random.Generator,
        mode: str = "outgoing",
        name: str = "triangle_multiplication",
    ) -> None:
        super().__init__(name)
        if mode not in ("outgoing", "incoming"):
            raise ValueError("mode must be 'outgoing' or 'incoming'")
        self.mode = mode
        self.chunk_size = config.triangle_chunk_size
        pair_dim = config.pair_dim
        hidden = config.triangle_hidden
        self.layer_norm_in = self.register_child("layer_norm_in", LayerNorm(pair_dim, "layer_norm_in"))
        self.linear_a_p = self.register_child("linear_a_p", Linear(pair_dim, hidden, rng, "linear_a_p"))
        self.linear_a_g = self.register_child(
            "linear_a_g", Linear(pair_dim, hidden, rng, "linear_a_g", init="gating")
        )
        self.linear_b_p = self.register_child("linear_b_p", Linear(pair_dim, hidden, rng, "linear_b_p"))
        self.linear_b_g = self.register_child(
            "linear_b_g", Linear(pair_dim, hidden, rng, "linear_b_g", init="gating")
        )
        self.layer_norm_out = self.register_child("layer_norm_out", LayerNorm(hidden, "layer_norm_out"))
        self.linear_o = self.register_child("linear_o", Linear(hidden, pair_dim, rng, "linear_o", init="final"))
        self.linear_g = self.register_child(
            "linear_g", Linear(pair_dim, pair_dim, rng, "linear_g", init="gating")
        )

    def _contract(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Third-axis contraction, tiled over ``triangle_chunk_size`` edges.

        One batched ``np.matmul`` per tile with the channel axis as the batch:
        outgoing sums ``a[i, k] * b[j, k]`` over ``k``, incoming sums
        ``a[k, i] * b[k, j]``.  Dense (``chunk_size is None``) is a single
        tile; the tiled path accumulates the per-tile products in ascending
        edge order.
        """
        if self.mode == "outgoing":
            lhs, rhs = a.transpose(2, 0, 1), b.transpose(2, 1, 0)   # (C, I, K), (C, K, J)
        else:
            lhs, rhs = a.transpose(2, 1, 0), b.transpose(2, 0, 1)   # (C, I, K), (C, K, J)
        if self.chunk_size is None:
            return np.matmul(lhs, rhs).transpose(1, 2, 0)
        combined = np.zeros((lhs.shape[1], rhs.shape[2], lhs.shape[0]), dtype=a.dtype)
        for ks in iter_chunks(lhs.shape[2], self.chunk_size):
            combined += np.matmul(lhs[:, :, ks], rhs[:, ks]).transpose(1, 2, 0)
        return combined

    def forward(self, pair: np.ndarray, ctx: ActivationContext = NULL_CONTEXT) -> np.ndarray:
        """Return the residual update for the pair representation (Ns, Ns, Hz)."""
        tag = f"{self.name}.{self.mode}"
        pair = ctx.process(f"{tag}.pre_ln", GROUP_A, pair)
        normalized = self.layer_norm_in(pair)
        normalized = ctx.process(f"{tag}.post_ln", GROUP_B, normalized)

        a = self.linear_a_p(normalized)
        a *= sigmoid(self.linear_a_g(normalized))
        b = self.linear_b_p(normalized)
        b *= sigmoid(self.linear_b_g(normalized))
        a = ctx.process(f"{tag}.proj_a", GROUP_C, a)
        b = ctx.process(f"{tag}.proj_b", GROUP_C, b)

        combined = self._contract(a, b)
        combined = combined / np.sqrt(a.shape[-2])
        combined = ctx.process(f"{tag}.matmul", GROUP_A, combined)

        normalized_out = self.layer_norm_out(combined)
        normalized_out = ctx.process(f"{tag}.matmul_post_ln", GROUP_B, normalized_out)
        projected = self.linear_o(normalized_out)
        projected = ctx.process(f"{tag}.proj_o", GROUP_C, projected)
        gate = sigmoid(self.linear_g(normalized))
        return projected * gate

    __call__ = forward


class TriangleAttention(Module):
    """Triangular self-attention around the starting or ending node."""

    def __init__(
        self,
        config: PPMConfig,
        rng: np.random.Generator,
        mode: str = "starting",
        name: str = "triangle_attention",
    ) -> None:
        super().__init__(name)
        if mode not in ("starting", "ending"):
            raise ValueError("mode must be 'starting' or 'ending'")
        self.mode = mode
        self.chunk_size = config.attn_chunk_size
        self.num_heads = config.num_heads
        self.head_dim = config.head_dim
        pair_dim = config.pair_dim
        width = config.attention_dim
        self.layer_norm = self.register_child("layer_norm", LayerNorm(pair_dim, "layer_norm"))
        self.linear_q = self.register_child("linear_q", Linear(pair_dim, width, rng, "linear_q", bias=False))
        self.linear_k = self.register_child("linear_k", Linear(pair_dim, width, rng, "linear_k", bias=False))
        self.linear_v = self.register_child("linear_v", Linear(pair_dim, width, rng, "linear_v", bias=False))
        self.linear_bias = self.register_child(
            "linear_bias", Linear(pair_dim, config.num_heads, rng, "linear_bias", bias=False)
        )
        self.linear_g = self.register_child(
            "linear_g", Linear(pair_dim, width, rng, "linear_g", init="gating")
        )
        self.linear_o = self.register_child("linear_o", Linear(width, pair_dim, rng, "linear_o", init="final"))

    def _split_heads(self, x: np.ndarray) -> np.ndarray:
        """(Ns, Ns, H*D) -> (Ns, H, Ns, D)"""
        n_i, n_j, _ = x.shape
        return x.reshape(n_i, n_j, self.num_heads, self.head_dim).transpose(0, 2, 1, 3)

    def forward(self, pair: np.ndarray, ctx: ActivationContext = NULL_CONTEXT) -> np.ndarray:
        """Return the residual update for the pair representation (Ns, Ns, Hz)."""
        tag = f"{self.name}.{self.mode}"
        if self.mode == "ending":
            pair = pair.transpose(1, 0, 2)

        pair = ctx.process(f"{tag}.pre_ln", GROUP_A, pair)
        normalized = self.layer_norm(pair)
        normalized = ctx.process(f"{tag}.post_ln", GROUP_B, normalized)

        q = self._split_heads(self.linear_q(normalized))
        k = self._split_heads(self.linear_k(normalized))
        v = self._split_heads(self.linear_v(normalized))
        q = ctx.process(f"{tag}.q", GROUP_C, q)
        k = ctx.process(f"{tag}.k", GROUP_C, k)
        v = ctx.process(f"{tag}.v", GROUP_C, v)

        bias = self.linear_bias(normalized)           # (Ns, Ns, H)
        bias = ctx.process(f"{tag}.bias", GROUP_C, bias)
        bias = bias.transpose(2, 0, 1)                 # (H, Ns, Ns)

        if self.chunk_size is None or context_observes_taps(ctx):
            # Dense, or a context that must see the normalized weights:
            # evaluate query blocks with the full key axis so each
            # `attention_weights` tap carries complete per-token vectors
            # (chunk-invariant transforms).
            attended = blockwise_attention(
                q, k, v, bias,
                scale_divisor=np.sqrt(self.head_dim),
                query_chunk=self.chunk_size,
                ctx=ctx,
                weights_tap=f"{tag}.attention_weights",
                weights_group=GROUP_C,
            )
        else:
            # No observer: stream both query and key tiles through the online
            # max/denominator softmax; no score tile larger than
            # (Ns, H, chunk, chunk) ever exists.
            attended = streaming_attention(
                q, k, v, bias=bias,
                scale=1.0 / np.sqrt(self.head_dim),
                query_chunk=self.chunk_size,
                key_chunk=self.chunk_size,
            )
        attended = attended.transpose(0, 2, 1, 3).reshape(pair.shape[0], pair.shape[1], -1)
        attended = ctx.process(f"{tag}.attended", GROUP_C, attended)

        gate = sigmoid(self.linear_g(normalized))
        output = self.linear_o(attended * gate)
        output = ctx.process(f"{tag}.proj_o", GROUP_C, output)

        if self.mode == "ending":
            output = output.transpose(1, 0, 2)
        return output

    __call__ = forward
