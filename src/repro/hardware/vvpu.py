"""Versatile Vector Processing Unit: functional top-k and timing model (Section 5.3)."""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, log2
from typing import Optional, Tuple

import numpy as np

from .config import LightNobelConfig


def bitonic_stage_count(n: int) -> int:
    """Number of compare-exchange stages of a bitonic sorting network of size n."""
    if n <= 1:
        return 0
    k = ceil(log2(n))
    return k * (k + 1) // 2


def bitonic_topk(values: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray, int]:
    """Top-k selection via an explicit bitonic sorting network.

    Returns ``(top_values, top_indices, stages)`` where ``stages`` is the
    number of parallel compare-exchange stages executed — the quantity the
    latency model charges.  The network operates on the next power-of-two
    padded array, tracking indices exactly as the VVPU hardware does, so the
    result can be checked against ``np.argpartition`` in tests.
    """
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    n = values.size
    if k <= 0:
        return np.empty(0), np.empty(0, dtype=np.int64), 0
    k = min(k, n)
    size = 1 << ceil(log2(max(n, 1)))
    padded = np.full(size, -np.inf)
    padded[:n] = values
    indices = np.arange(size)

    stages = 0
    length = 2
    while length <= size:
        direction_block = length
        step = length // 2
        while step >= 1:
            partner = np.arange(size) ^ step
            ascending = (np.arange(size) & direction_block) == 0
            keep = np.where(
                (np.arange(size) < partner)
                & (((padded > padded[partner]) & ascending) | ((padded < padded[partner]) & ~ascending)),
                True,
                False,
            )
            swap_targets = np.nonzero(keep)[0]
            for i in swap_targets:
                j = partner[i]
                padded[i], padded[j] = padded[j], padded[i]
                indices[i], indices[j] = indices[j], indices[i]
            stages += 1
            step //= 2
        length *= 2

    order = np.argsort(padded)[::-1][:k]
    return padded[order], indices[order], stages


@dataclass(frozen=True)
class VVPUTimings:
    """Cycle counts for the vector operations the PPM needs, per token."""

    layer_norm_passes: int = 4
    softmax_passes: int = 5
    residual_passes: int = 1
    quantize_passes: int = 2      # scale + pack (LCN reorder overlaps)

    def topk_cycles(self, hidden_dim: int) -> int:
        return bitonic_stage_count(hidden_dim)


class VVPU:
    """Timing model for the pool of VVPUs."""

    def __init__(self, config: Optional[LightNobelConfig] = None) -> None:
        self.config = config or LightNobelConfig.paper()
        self.timings = VVPUTimings()

    def lanes(self, num_vvpus: Optional[int] = None) -> float:
        vvpus = self.config.num_vvpus if num_vvpus is None else num_vvpus
        return float(vvpus * self.config.simd_lanes_per_vvpu)
