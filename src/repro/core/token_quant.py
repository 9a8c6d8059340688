"""Token-wise quantization with dynamic top-k outlier handling (Section 4.1).

This is the baseline quantization underlying AAQ: every token (a vector along
the hidden dimension, e.g. a (1, 1, Hz) slice of the Pair Representation) is
quantized independently with

* a **dynamic scaling factor** computed at runtime from the token's inliers,
* **dynamic outlier handling**: the ``k`` largest-magnitude values of the
  token are carved out and stored separately at INT16 precision (the paper's
  top-k selection, implemented in hardware by the VVPU's bitonic sorter),
* **uniform symmetric quantization** of the remaining inliers at INT4/INT8.

The fold quantizes through :func:`fake_quantize_tokens`, which returns the
reconstruction without building the stored form.  The stored form is
:class:`PackedQuantizedTensor`, the Fig. 7 layout as one array per field,
which :mod:`repro.core.memory_layout` serializes.  Both pick outliers with
:func:`outlier_positions`, so they agree bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..ppm.memory import token_layout
from .quantization import (
    _scale_round,
    dequantize_values,
    fake_quantize_tokenwise,
    float_values,
    quantize_values,
    symmetric_scale,
)

#: Precision used for outlier values (paper: INT16 to minimize information loss).
OUTLIER_BITS = 16


@dataclass(frozen=True)
class TokenQuantConfig:
    """Quantization scheme applied to one token.

    Parameters mirror the knobs explored in the paper's design-space
    exploration (Fig. 11): inlier precision (4 or 8 bit) and the number of
    outliers handled per token (0 disables outlier handling).
    """

    inlier_bits: int = 8
    outlier_count: int = 4
    outlier_bits: int = OUTLIER_BITS

    def __post_init__(self) -> None:
        if self.inlier_bits not in (2, 3, 4, 6, 8, 16):
            raise ValueError(f"unsupported inlier precision: {self.inlier_bits}")
        if self.outlier_count < 0:
            raise ValueError("outlier_count must be non-negative")
        if self.outlier_bits not in (8, 16, 32):
            raise ValueError(f"unsupported outlier precision: {self.outlier_bits}")

    def bits_per_token(self, hidden_dim: int) -> float:
        """Storage cost of one quantized token in bits (the Fig. 7 layout of
        :func:`repro.ppm.memory.token_layout`)."""
        return 8 * token_layout(self, hidden_dim).total_bytes

    def bytes_per_token(self, hidden_dim: int) -> float:
        return self.bits_per_token(hidden_dim) / 8.0

    def compression_ratio(self, hidden_dim: int, baseline_bits: int = 16) -> float:
        """Size reduction versus an unquantized token at ``baseline_bits``."""
        return (hidden_dim * baseline_bits) / self.bits_per_token(hidden_dim)


def outlier_positions(magnitudes: np.ndarray, count: int) -> np.ndarray:
    """Unsorted positions of the ``count`` largest ``magnitudes`` along the last axis.

    The module's one top-k selection: :meth:`PackedQuantizedTensor.pack` and
    the tied rows of :func:`fake_quantize_tokens` both call it, so they agree
    on which of several equal magnitudes become outliers.  Rows are selected
    independently, so a subset of rows selects as it would in the full array.
    Requires ``0 < count <= magnitudes.shape[-1]``.
    """
    return np.argpartition(magnitudes, -count, axis=-1)[..., -count:]


@dataclass
class PackedQuantizedTensor:
    """A batch of quantized tokens in struct-of-arrays (columnar) layout.

    The per-token representation of Fig. 7 stored as one array per field:
    row ``i`` of every array describes token ``i``.  ``pack`` quantizes every
    token in one batched pass; ``unpack`` is its inverse, and equals
    :func:`fake_quantize_tokens` on the packed tokens.  All tokens share one
    :class:`TokenQuantConfig`, so the field shapes are rectangular:
    ``(num_tokens, hidden_dim - k)`` inliers and ``(num_tokens, k)`` outliers,
    where ``k = min(outlier_count, hidden_dim)``.
    """

    inlier_values: np.ndarray      # (T, H-k) signed integers on the inlier grid
    inlier_indices: np.ndarray     # (T, H-k) positions of inliers within each token
    outlier_values: np.ndarray     # (T, k) INT16-grid integers for outliers
    outlier_indices: np.ndarray    # (T, k) positions of outliers within each token
    scales: np.ndarray             # (T,) per-token scaling factors (inliers)
    outlier_scales: np.ndarray     # (T,) per-token scaling factors (outlier grid)
    hidden_dim: int
    config: TokenQuantConfig

    @classmethod
    def pack(cls, tokens: np.ndarray, config: TokenQuantConfig) -> "PackedQuantizedTensor":
        """Quantize a 2-D array of tokens (rows are tokens) in one batched pass.

        Each token's k largest magnitudes (:func:`outlier_positions`, stored in
        ascending position order) go on the outlier grid with their own scale;
        the rest go on the inlier grid, scaled by the largest inlier magnitude.
        float32 tokens are quantized in float32 (scales and grid values
        included); other non-float64 input is quantized as float64.
        """
        tokens = float_values(tokens)
        if tokens.ndim != 2:
            raise ValueError("tokens must be a 2-D array of shape (num_tokens, hidden_dim)")
        num_tokens, hidden_dim = tokens.shape
        count = min(config.outlier_count, hidden_dim)

        abs_values = np.abs(tokens)
        inlier_mask = np.ones_like(tokens, dtype=bool)
        if count > 0:
            outlier_indices = np.sort(outlier_positions(abs_values, count), axis=-1)
            np.put_along_axis(inlier_mask, outlier_indices, False, axis=-1)
        else:
            outlier_indices = np.empty((num_tokens, 0), dtype=np.int64)
        inlier_indices = np.nonzero(inlier_mask)[1].reshape(num_tokens, hidden_dim - count)

        inliers = np.take_along_axis(tokens, inlier_indices, axis=-1)
        outliers = np.take_along_axis(tokens, outlier_indices, axis=-1)

        inlier_max = np.abs(inliers).max(axis=-1) if inliers.shape[-1] else np.zeros(num_tokens)
        outlier_max = np.abs(outliers).max(axis=-1) if count else np.zeros(num_tokens)
        scales = np.asarray(symmetric_scale(inlier_max, config.inlier_bits, tokens.dtype))
        outlier_scales = np.asarray(symmetric_scale(outlier_max, config.outlier_bits, tokens.dtype))
        return cls(
            inlier_values=quantize_values(inliers, scales[:, None], config.inlier_bits),
            inlier_indices=inlier_indices,
            outlier_values=quantize_values(outliers, outlier_scales[:, None], config.outlier_bits),
            outlier_indices=outlier_indices,
            scales=scales,
            outlier_scales=outlier_scales,
            hidden_dim=hidden_dim,
            config=config,
        )

    def unpack(self) -> np.ndarray:
        """Reconstruct the full ``(num_tokens, hidden_dim)`` array (vectorized).

        The result has the dtype of the scales, i.e. of the packed tokens.
        """
        tokens = np.zeros((self.num_tokens, self.hidden_dim), dtype=self.scales.dtype)
        if self.inlier_indices.shape[-1]:
            np.put_along_axis(
                tokens,
                self.inlier_indices,
                dequantize_values(self.inlier_values, self.scales[:, None]),
                axis=-1,
            )
        if self.outlier_indices.shape[-1]:
            np.put_along_axis(
                tokens,
                self.outlier_indices,
                dequantize_values(self.outlier_values, self.outlier_scales[:, None]),
                axis=-1,
            )
        return tokens

    # ------------------------------------------------------------- accounting
    @property
    def num_tokens(self) -> int:
        return int(self.scales.shape[0])

    def __len__(self) -> int:
        return self.num_tokens

    def bits(self) -> float:
        """Total packed size of the batch in bits (Fig. 7 layout accounting)."""
        return self.num_tokens * self.config.bits_per_token(self.hidden_dim)


#: Values per row block of the outlier path: 128 KiB of float64 (64 KiB of
#: float32), so a block's partition, mask and scale buffers stay
#: cache-resident between passes.
_OUTLIER_BLOCK_VALUES = 1 << 14


def _element_scales(block: np.ndarray, count: int, config: TokenQuantConfig):
    """Each element's grid step in a block of tokens with ``0 < count < H`` outliers.

    One ``np.partition`` of ``|block|`` at column ``H-k-1`` yields, per row,
    the inlier maximum (that column) and the top-k magnitudes (the last k
    columns, whose minimum is the cut); an element takes the outlier step
    when ``|x| >= cut``.  Returns the steps and the *tied* rows, whose cut
    equals their inlier maximum: there ``|x| >= cut`` holds more than k
    positions, so :func:`_requantize_tied` redoes them.
    """
    hidden_dim = block.shape[-1]
    inlier_column = hidden_dim - count - 1
    magnitudes = np.abs(block)
    ranked = np.partition(magnitudes, inlier_column, axis=-1)
    inlier_max = ranked[:, inlier_column].copy()
    cut = ranked[:, inlier_column + 1].copy()
    outlier_max = cut.copy()
    for j in range(inlier_column + 2, hidden_dim):
        np.minimum(cut, ranked[:, j], out=cut)
        np.maximum(outlier_max, ranked[:, j], out=outlier_max)
    del ranked
    scales = np.where(
        magnitudes >= cut[:, None],
        symmetric_scale(outlier_max, config.outlier_bits, block.dtype)[:, None],
        symmetric_scale(inlier_max, config.inlier_bits, block.dtype)[:, None],
    )
    return scales, np.flatnonzero(cut == inlier_max)


def _requantize_tied(flat: np.ndarray, rows: np.ndarray, count: int, config: TokenQuantConfig,
                     out: np.ndarray) -> None:
    """Redo tied ``rows`` with the k outliers :func:`outlier_positions` picks.

    The same selection as the packed layout, so ties at the cut resolve to
    the positions the hardware stores.  Inlier and outlier maxima are taken
    over that selection; they equal the partition's values.
    """
    values = flat[rows]
    magnitudes = np.abs(values)
    is_outlier = np.zeros(values.shape, dtype=bool)
    np.put_along_axis(is_outlier, outlier_positions(magnitudes, count), True, axis=-1)
    inlier_max = np.where(is_outlier, 0.0, magnitudes).max(axis=-1, keepdims=True)
    outlier_max = magnitudes.max(axis=-1, keepdims=True)
    scales = np.where(
        is_outlier,
        symmetric_scale(outlier_max, config.outlier_bits, values.dtype),
        symmetric_scale(inlier_max, config.inlier_bits, values.dtype),
    )
    _scale_round(values, scales, values)
    out[rows] = values


def fake_quantize_tokens(values: np.ndarray, config: TokenQuantConfig) -> np.ndarray:
    """Vectorized token-wise fake quantization with top-k outlier handling.

    Equals ``PackedQuantizedTensor.pack(tokens, config).unpack()`` on the
    tokens of ``values`` (vectors along the last axis) byte for byte, without
    building the stored form, so it can be injected into the PPM forward pass
    cheaply.

    Every element is divided by its token's grid step (the inlier scale, or
    the outlier scale at the token's top-k positions), rounded and multiplied
    back in one pass into the returned buffer, in the input's float precision:
    float32 values give a float32 result with float32 steps, float64 values
    a float64 one, and integer or bool values are quantized as float64.
    Without outliers (``k == 0``, or ``k >= H`` where every value is an
    outlier) the step is one per token: this is
    :func:`~repro.core.quantization.fake_quantize_tokenwise` at the inlier
    (or outlier) precision, whose transient peak, the returned array
    included, is about 1x the bytes of the float input (1.09x at either
    precision for a (9216, 32) pair tensor, 1.38x for (9216, 8)).  With outliers
    (``0 < k < H``) the tokens go through in row blocks of about 16384
    values, each with its own top-k partition, outlier mask and per-element
    steps, so the peak is 1x plus a few block-sized buffers: 1.24x (float64)
    and 1.25x (float32) of the input's bytes for a (9216, 32) pair tensor,
    2.06x and 2.10x for (9216, 8), where one block is a fifth of the input.
    Tokens tied at the top-k cut are redone afterwards with the positions
    :func:`outlier_positions` picks, the selection the packed layout uses.
    For finite input the result equals the former gather, clip and scatter
    formulation bit for bit, at both precisions.  ``values`` is never written.
    """
    values = float_values(values)
    hidden_dim = values.shape[-1]
    count = min(config.outlier_count, hidden_dim)
    if not 0 < count < hidden_dim:
        return fake_quantize_tokenwise(values, config.outlier_bits if count else config.inlier_bits)

    flat = values.reshape(-1, hidden_dim)
    out = np.empty(flat.shape, dtype=flat.dtype)
    rows = max(_OUTLIER_BLOCK_VALUES // hidden_dim, 1)
    tied = []
    for start in range(0, flat.shape[0], rows):
        block = slice(start, start + rows)
        scales, block_tied = _element_scales(flat[block], count, config)
        _scale_round(flat[block], scales, out[block])
        if block_tied.size:
            tied.append(block_tied + start)
    if tied:
        _requantize_tied(flat, np.concatenate(tied), count, config, out)
    return out.reshape(values.shape)


def token_quantization_rmse(values: np.ndarray, config: TokenQuantConfig) -> float:
    """RMSE of the token-wise fake-quantization round trip."""
    reconstructed = fake_quantize_tokens(values, config)
    return float(np.sqrt(np.mean((np.asarray(values, dtype=np.float64) - reconstructed) ** 2)))
