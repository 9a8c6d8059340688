"""Packed memory layout for quantized tokens (Section 4.3, Fig. 7).

Quantized tokens are stored as: inlier values, then outlier values, then the
scaling factor, then outlier indices.  Multiple tokens are grouped into blocks
sized to the memory-channel width so one block read fills a whole burst.  The
Token Aligner of the accelerator decodes these blocks back into per-token
scratchpad lines.

A token's field sizes (``token_layout``) belong to the one memory model,
:mod:`repro.ppm.memory`; this module packs tokens of that size into
channel-width blocks.
:func:`pack_packed_tensor` serializes a
:class:`~repro.core.token_quant.PackedQuantizedTensor` in the Fig. 7 field
order and :func:`unpack_packed_tensor` restores it losslessly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..ppm.memory import token_layout
from .token_quant import PackedQuantizedTensor, TokenQuantConfig


@dataclass
class MemoryBlock:
    """A channel-width block holding several packed tokens."""

    token_indices: List[int]
    used_bytes: float
    capacity_bytes: float

    @property
    def utilization(self) -> float:
        return self.used_bytes / self.capacity_bytes if self.capacity_bytes else 0.0


@dataclass
class BlockedLayout:
    """Packing of a set of tokens into channel-width memory blocks."""

    blocks: List[MemoryBlock]
    token_bytes: float
    channel_bytes: float

    @property
    def total_bytes(self) -> float:
        return sum(block.capacity_bytes for block in self.blocks)

    @property
    def payload_bytes(self) -> float:
        return sum(block.used_bytes for block in self.blocks)

    @property
    def utilization(self) -> float:
        return self.payload_bytes / self.total_bytes if self.blocks else 0.0


def pack_tokens_into_blocks(
    num_tokens: int,
    config: TokenQuantConfig,
    hidden_dim: int,
    channel_bytes: int = 64,
) -> BlockedLayout:
    """Group ``num_tokens`` quantized tokens into channel-width blocks.

    Tokens of the same quantization scheme have identical packed size, so the
    packing is a simple greedy fill; the returned layout exposes the number of
    blocks (memory transactions) and the achieved bandwidth utilization.
    """
    if channel_bytes <= 0:
        raise ValueError("channel_bytes must be positive")
    per_token = token_layout(config, hidden_dim).total_bytes
    if per_token > channel_bytes:
        # A token spans multiple channel beats; blocks hold one token each,
        # rounded up to a whole number of beats.
        per_block, capacity = 1, int(np.ceil(per_token / channel_bytes)) * channel_bytes
    else:
        per_block, capacity = int(channel_bytes // per_token), channel_bytes
    blocks = []
    for start in range(0, num_tokens, per_block):
        indices = list(range(start, min(start + per_block, num_tokens)))
        blocks.append(MemoryBlock(indices, len(indices) * per_token, capacity))
    return BlockedLayout(blocks=blocks, token_bytes=per_token, channel_bytes=channel_bytes)


def pack_packed_tensor(packed: PackedQuantizedTensor) -> np.ndarray:
    """Fig. 7 serialization of a whole :class:`PackedQuantizedTensor`.

    Per token, in order: inliers, outliers, the two scaling factors, then the
    outlier indices, as one ``hstack`` over the columnar fields.  Values are
    stored one float64 per field element (sub-byte fields are padded up),
    which keeps the round trip exact.  The *size accounting* used by the
    experiments is the memory model's (:func:`repro.ppm.memory.token_layout`,
    which charges one scale per token), not this serializer's.
    """
    rows = np.hstack(
        [
            np.asarray(packed.inlier_values, dtype=np.float64),
            np.asarray(packed.outlier_values, dtype=np.float64),
            np.asarray(packed.scales, dtype=np.float64)[:, None],
            np.asarray(packed.outlier_scales, dtype=np.float64)[:, None],
            np.asarray(packed.outlier_indices, dtype=np.float64),
        ]
    )
    return rows.reshape(-1)


def unpack_packed_tensor(flat: np.ndarray, template: PackedQuantizedTensor) -> PackedQuantizedTensor:
    """Inverse of :func:`pack_packed_tensor` (layout and dtypes from ``template``).

    Every field comes back in the template's dtype: a float32 pack restores
    float32 values and scales (exactly, since float64 holds every float32).
    """
    num_tokens = template.num_tokens
    n_in = template.inlier_values.shape[-1]
    n_out = template.outlier_values.shape[-1]
    rows = np.asarray(flat, dtype=np.float64).reshape(num_tokens, n_in + n_out + 2 + n_out)
    return PackedQuantizedTensor(
        inlier_values=rows[:, :n_in].astype(template.inlier_values.dtype),
        inlier_indices=template.inlier_indices,
        outlier_values=rows[:, n_in:n_in + n_out].astype(template.outlier_values.dtype),
        outlier_indices=rows[:, n_in + n_out + 2:].astype(template.outlier_indices.dtype),
        scales=rows[:, n_in + n_out].astype(template.scales.dtype),
        outlier_scales=rows[:, n_in + n_out + 1].astype(template.outlier_scales.dtype),
        hidden_dim=template.hidden_dim,
        config=template.config,
    )


def blocked_layout_for(packed: PackedQuantizedTensor, channel_bytes: int = 64) -> BlockedLayout:
    """Channel-width block packing of a whole packed tensor (Fig. 7 blocks)."""
    return pack_tokens_into_blocks(
        packed.num_tokens, packed.config, packed.hidden_dim, channel_bytes=channel_bytes
    )
