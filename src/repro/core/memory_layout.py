"""Packed memory layout for quantized tokens (Section 4.3, Fig. 7).

Quantized tokens are stored as: inlier values, then outlier values, then the
scaling factor, then outlier indices.  Multiple tokens are grouped into blocks
sized to the memory-channel width so one block read fills a whole burst.  The
Token Aligner of the accelerator decodes these blocks back into per-token
scratchpad lines.

The layout object below computes exact byte offsets, block packing and
bandwidth utilization; the hardware simulator and the footprint models consume
these numbers.  :func:`pack_packed_tensor` serializes a
:class:`~repro.core.token_quant.PackedQuantizedTensor` in the Fig. 7 field
order and :func:`unpack_packed_tensor` restores it losslessly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .token_quant import (
    INDEX_BITS,
    SCALE_BITS,
    PackedQuantizedTensor,
    TokenQuantConfig,
)


@dataclass(frozen=True)
class TokenLayout:
    """Byte offsets of the fields of one packed token."""

    inlier_bytes: float
    outlier_bytes: float
    scale_bytes: float
    index_bytes: float

    @property
    def total_bytes(self) -> float:
        return self.inlier_bytes + self.outlier_bytes + self.scale_bytes + self.index_bytes

    def field_offsets(self) -> Tuple[float, float, float, float]:
        """Start offsets of (inliers, outliers, scale, indices) in bytes."""
        inlier_start = 0.0
        outlier_start = inlier_start + self.inlier_bytes
        scale_start = outlier_start + self.outlier_bytes
        index_start = scale_start + self.scale_bytes
        return inlier_start, outlier_start, scale_start, index_start


def token_layout(config: TokenQuantConfig, hidden_dim: int) -> TokenLayout:
    """Field sizes (bytes) of one token quantized under ``config``."""
    outliers = min(config.outlier_count, hidden_dim)
    inliers = hidden_dim - outliers
    return TokenLayout(
        inlier_bytes=inliers * config.inlier_bits / 8.0,
        outlier_bytes=outliers * config.outlier_bits / 8.0,
        scale_bytes=SCALE_BITS / 8.0,
        index_bytes=outliers * INDEX_BITS / 8.0,
    )


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
        return len(self.blocks) * self.channel_bytes

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
        beats = int(np.ceil(per_token / channel_bytes))
        blocks = [
            MemoryBlock(token_indices=[i], used_bytes=per_token, capacity_bytes=beats * channel_bytes)
            for i in range(num_tokens)
        ]
        return BlockedLayout(blocks=blocks, token_bytes=per_token, channel_bytes=channel_bytes)

    tokens_per_block = int(channel_bytes // per_token)
    blocks = []
    for start in range(0, num_tokens, tokens_per_block):
        indices = list(range(start, min(start + tokens_per_block, num_tokens)))
        blocks.append(
            MemoryBlock(
                token_indices=indices,
                used_bytes=len(indices) * per_token,
                capacity_bytes=channel_bytes,
            )
        )
    return BlockedLayout(blocks=blocks, token_bytes=per_token, channel_bytes=channel_bytes)


def pack_packed_tensor(packed: PackedQuantizedTensor) -> np.ndarray:
    """Fig. 7 serialization of a whole :class:`PackedQuantizedTensor`.

    Per token, in order: inliers, outliers, the two scaling factors, then the
    outlier indices, as one ``hstack`` over the columnar fields.  Values are
    stored one float64 per field element (sub-byte fields are padded up),
    which keeps the round trip exact; the *size accounting* used by the
    experiments relies on :func:`token_layout`, not on this serializer.
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
