"""Protein Folding Block and folding trunk (Fig. 2b).

One folding block applies, in order:

Sequence Representation dataflow
    pair-biased sequence self-attention, sequence transition;
Pair Representation dataflow
    outer product mean (sequence -> pair), triangular multiplication
    (outgoing, incoming), triangular attention (starting, ending node),
    pair transition.

All updates are residual.  The Pair Representation dataflow carries the
structural signal and is where AAQ applies; every activation along it is
reported to the activation context with its Group A/B/C label.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .activation_tap import GROUP_A, ActivationContext, NULL_CONTEXT
from .attention import OuterProductMean, SequenceAttention
from .config import PPMConfig
from .modules import Module, Transition
from .triangle import TriangleAttention, TriangleMultiplication


class FoldingBlock(Module):
    """A single Protein Folding Block (the ESMFold folding-trunk block)."""

    def __init__(self, config: PPMConfig, rng: np.random.Generator, index: int = 0) -> None:
        super().__init__(f"block_{index:02d}")
        self.config = config
        self.index = index
        scale = config.residual_scale

        self.sequence_attention = self.register_child(
            "sequence_attention", SequenceAttention(config, rng, name="sequence_attention")
        )
        self.sequence_transition = self.register_child(
            "sequence_transition",
            Transition(
                config.seq_dim, config.transition_factor, rng,
                name="sequence_transition", dtype=config.dtype,
            ),
        )
        self.outer_product_mean = self.register_child(
            "outer_product_mean", OuterProductMean(config, rng, name="outer_product_mean")
        )
        self.triangle_mult_out = self.register_child(
            "triangle_mult_out",
            TriangleMultiplication(config, rng, mode="outgoing", name="triangle_mult"),
        )
        self.triangle_mult_in = self.register_child(
            "triangle_mult_in",
            TriangleMultiplication(config, rng, mode="incoming", name="triangle_mult"),
        )
        self.triangle_att_start = self.register_child(
            "triangle_att_start",
            TriangleAttention(config, rng, mode="starting", name="triangle_att"),
        )
        self.triangle_att_end = self.register_child(
            "triangle_att_end",
            TriangleAttention(config, rng, mode="ending", name="triangle_att"),
        )
        self.pair_transition = self.register_child(
            "pair_transition",
            Transition(
                config.pair_dim, config.transition_factor, rng,
                name="pair_transition", dtype=config.dtype,
            ),
        )
        self.residual_scale = scale

    def forward(
        self,
        sequence: np.ndarray,
        pair: np.ndarray,
        ctx: ActivationContext = NULL_CONTEXT,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Apply the block; returns the updated (sequence, pair) representations."""
        prefix = self.name
        scale = self.residual_scale

        # --- Sequence Representation dataflow -------------------------------
        sequence = sequence + scale * self.sequence_attention(sequence, pair, ctx)
        sequence = sequence + scale * self.sequence_transition(sequence)

        # --- Pair Representation dataflow ------------------------------------
        pair = pair + scale * self.outer_product_mean(sequence, ctx)
        pair = ctx.process(f"{prefix}.residual.outer_product", GROUP_A, pair)

        pair = pair + scale * self.triangle_mult_out(pair, ctx)
        pair = pair + scale * self.triangle_mult_in(pair, ctx)
        pair = pair + scale * self.triangle_att_start(pair, ctx)
        pair = pair + scale * self.triangle_att_end(pair, ctx)
        pair = pair + scale * self.pair_transition(pair)
        pair = ctx.process(f"{prefix}.residual.output", GROUP_A, pair)
        return sequence, pair

    __call__ = forward


@dataclass
class TrunkOutput:
    """Final representations produced by the folding trunk."""

    sequence_representation: np.ndarray
    pair_representation: np.ndarray


class FoldingTrunk(Module):
    """Stack of folding blocks applied iteratively (with optional recycling)."""

    def __init__(self, config: PPMConfig, rng: np.random.Generator, name: str = "folding_trunk") -> None:
        super().__init__(name)
        self.config = config
        self.blocks: List[FoldingBlock] = []
        for index in range(config.num_blocks):
            block = FoldingBlock(config, rng, index=index)
            self.blocks.append(self.register_child(block.name, block))

    def forward(
        self,
        sequence: np.ndarray,
        pair: np.ndarray,
        ctx: ActivationContext = NULL_CONTEXT,
    ) -> TrunkOutput:
        for block in self.blocks:
            sequence, pair = block(sequence, pair, ctx)
        return TrunkOutput(sequence_representation=sequence, pair_representation=pair)

    __call__ = forward
