"""The one memory model: a quantized token, the weights and each system's resident set.

* A token's stored size is the Fig. 7 layout of :func:`token_layout`.  It
  charges one scale per token, while ``PackedQuantizedTensor.pack`` keeps two
  (the inlier and the outlier grid's): at H = 128 the charge is 16 bits short,
  1.4% of AAQ's Group A token and 2.6% of Group B's.
* A system's peak is one sum of per-region terms with explicit copy counts,
  ``weights + (pair_copies * pair + 2 * seq + score)``, one :class:`ResidentSet`
  row per system.  :func:`fits`, the one fit formula, compares it with a
  capacity in GB.  The copy counts are declared, not measured against the
  numpy substrate.
* :func:`max_length` is the fit answer: ``fits(n)`` exactly when ``n <=
  max_length`` (0 when nothing fits), and every backend reports out-of-memory
  at ``n > max_length``.  One search over :func:`fits` finds it, memoized in
  :data:`repro._memo.CONFIG_MEMO` by ``(row, config, capacity_gb, aaq)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Tuple

from .._memo import CONFIG_MEMO
from .._search import largest_n
from .config import PPMConfig
from .workload import pair_activation_elements, score_matrix_elements, sequence_activation_elements

GB = 1e9

#: Precision of the per-token scaling factor in the packed layout (FP16).
SCALE_BITS = 16

#: Precision of each outlier index in the packed layout.
INDEX_BITS = 8

#: Trunk (folding blocks + structure module) parameter count at paper scale.
TRUNK_PARAMETERS = 690e6

#: FP16 bytes per element: GPU activations and every Sequence Representation.
FP16_BYTES = 2.0

#: Rows processed per chunk under the Chunk4-style low-memory attention.
CHUNK_ROWS = 4


@dataclass(frozen=True)
class TokenLayout:
    """Byte sizes of the fields of one packed token (Fig. 7 order)."""

    inlier_bytes: float
    outlier_bytes: float
    scale_bytes: float
    index_bytes: float

    @property
    def total_bytes(self) -> float:
        return self.inlier_bytes + self.outlier_bytes + self.scale_bytes + self.index_bytes

    def field_offsets(self) -> Tuple[float, float, float, float]:
        """Start offsets of (inliers, outliers, scale, indices) in bytes."""
        outlier_start = self.inlier_bytes
        scale_start = outlier_start + self.outlier_bytes
        return 0.0, outlier_start, scale_start, scale_start + self.scale_bytes


def token_layout(config, hidden_dim: int) -> TokenLayout:
    """Field sizes (bytes) of one token quantized under ``config`` (a ``TokenQuantConfig``)."""
    outliers = min(config.outlier_count, hidden_dim)
    return TokenLayout(
        inlier_bytes=(hidden_dim - outliers) * config.inlier_bits / 8.0,
        outlier_bytes=outliers * config.outlier_bits / 8.0,
        scale_bytes=SCALE_BITS / 8.0,
        index_bytes=outliers * INDEX_BITS / 8.0,
    )


def bytes_per_element(config: PPMConfig, aaq, group: Optional[str]) -> float:
    """Stored bytes per activation element of an AAQ group (``None``: unquantized)."""
    if group is None:
        return config.activation_bytes
    return aaq.bits_per_token(config.pair_dim, group) / config.pair_dim / 8.0


def weight_bytes(config: PPMConfig, include_language_model: bool = True) -> float:
    """Resident model weights: the trunk, plus ESM-2 when ``include_language_model``."""
    params = TRUNK_PARAMETERS + (config.language_model_params if include_language_model else 0.0)
    return params * config.weight_bytes


@dataclass(frozen=True)
class ResidentSet:
    """One system's row: ``score`` is ``score_copies`` FP16 score matrices with
    ``score_rows`` of their n rows live (all when ``None``); a ``quantized`` row
    stores pair copies at AAQ's average bytes per value."""

    name: str
    pair_copies: int
    score_copies: int = 0
    score_rows: Optional[int] = None
    quantized: bool = False
    language_model: bool = True


#: GPU, no chunking: input, residual, normalized and projected pair copies;
#: the scores and their softmax output are both live.
GPU_DENSE = ResidentSet("gpu_dense", pair_copies=6, score_copies=2)
#: GPU, Chunk4: CHUNK_ROWS rows of one score matrix, but redundant per-chunk
#: pair intermediates stay resident (Section 8.3).
GPU_CHUNKED = ResidentSet("gpu_chunked", pair_copies=18, score_copies=1, score_rows=CHUNK_ROWS)
#: LightNobel: token-wise MHA keeps the scores on chip and ESM-2 runs on the host.
LIGHTNOBEL_AAQ = ResidentSet("lightnobel_aaq", pair_copies=8, quantized=True, language_model=False)
#: LightNobel without token-wise MHA: the scores and their softmax output go
#: through HBM, both live, as on the dense GPU.
LIGHTNOBEL_AAQ_UNFUSED = replace(LIGHTNOBEL_AAQ, name="lightnobel_aaq_unfused", score_copies=2)


def activation_bytes(row: ResidentSet, config: PPMConfig, n: int, aaq=None) -> float:
    """``pair_copies * pair + 2 * seq + score`` at ``n`` residues; ``aaq`` sizes quantized pairs."""
    if row.quantized and aaq is None:
        raise ValueError(f"resident set {row.name!r} needs an AAQ config")
    pair_bytes = aaq.average_bits_per_value(config.pair_dim) / 8.0 if row.quantized else FP16_BYTES
    pair = pair_activation_elements(config, n) * pair_bytes
    seq = sequence_activation_elements(config, n) * FP16_BYTES
    scores = score_matrix_elements(config, n)
    rows_live = scores if row.score_rows is None else scores / n * row.score_rows
    score = row.score_copies * (rows_live * FP16_BYTES)
    return row.pair_copies * pair + 2 * seq + score


def peak_bytes(row: ResidentSet, config: PPMConfig, n: int, aaq=None) -> float:
    """Peak resident bytes of ``row`` at ``n`` residues: weights plus activations."""
    return weight_bytes(config, row.language_model) + activation_bytes(row, config, n, aaq)


def fits(row: ResidentSet, config: PPMConfig, n: int, capacity_gb: float, aaq=None) -> bool:
    """Whether ``row``'s resident set at ``n`` residues fits in ``capacity_gb``."""
    return peak_bytes(row, config, n, aaq) / GB <= capacity_gb


def max_length(row: ResidentSet, config: PPMConfig, capacity_gb: float, aaq=None) -> int:
    """Longest sequence that :func:`fits` (0 if none does), memoized per argument set."""
    if not math.isfinite(capacity_gb):
        raise ValueError(f"capacity must be finite, got {capacity_gb}")
    key = ("max_length", row, config, capacity_gb, aaq)
    return CONFIG_MEMO.get(key, largest_n, lambda n: fits(row, config, n, capacity_gb, aaq))
