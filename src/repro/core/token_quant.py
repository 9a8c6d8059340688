"""Token-wise quantization with dynamic top-k outlier handling (Section 4.1).

This is the baseline quantization underlying AAQ: every token (a vector along
the hidden dimension, e.g. a (1, 1, Hz) slice of the Pair Representation) is
quantized independently with

* a **dynamic scaling factor** computed at runtime from the token's inliers,
* **dynamic outlier handling**: the ``k`` largest-magnitude values of the
  token are carved out and stored separately at INT16 precision (the paper's
  top-k selection, implemented in hardware by the VVPU's bitonic sorter),
* **uniform symmetric quantization** of the remaining inliers at INT4/INT8.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .quantization import dequantize_values, float_values, quantize_values, symmetric_scale

#: Precision used for outlier values (paper: INT16 to minimize information loss).
OUTLIER_BITS = 16

#: Precision used for per-token scaling factors in the packed layout (FP16).
SCALE_BITS = 16

#: Precision used for each outlier index in the packed layout.
INDEX_BITS = 8


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
        """Storage cost of one quantized token in bits (Fig. 7 layout).

        inliers + outlier values + outlier indices + one scaling factor.
        """
        outliers = min(self.outlier_count, hidden_dim)
        inliers = hidden_dim - outliers
        return (
            inliers * self.inlier_bits
            + outliers * self.outlier_bits
            + outliers * INDEX_BITS
            + SCALE_BITS
        )

    def bytes_per_token(self, hidden_dim: int) -> float:
        return self.bits_per_token(hidden_dim) / 8.0

    def compression_ratio(self, hidden_dim: int, baseline_bits: int = 16) -> float:
        """Size reduction versus an unquantized token at ``baseline_bits``."""
        return (hidden_dim * baseline_bits) / self.bits_per_token(hidden_dim)


@dataclass
class QuantizedToken:
    """One token in the packed representation of Fig. 7."""

    inlier_values: np.ndarray      # signed integers on the inlier grid
    inlier_indices: np.ndarray     # positions of inliers within the token
    outlier_values: np.ndarray     # INT16-grid integers for outliers
    outlier_indices: np.ndarray    # positions of outliers within the token
    scale: float                   # per-token scaling factor (inliers)
    outlier_scale: float           # scaling factor for the outlier grid
    hidden_dim: int
    config: TokenQuantConfig

    def dequantize(self) -> np.ndarray:
        """Reconstruct the token vector."""
        token = np.zeros(self.hidden_dim, dtype=np.float64)
        token[self.inlier_indices] = dequantize_values(self.inlier_values, self.scale)
        if self.outlier_indices.size:
            token[self.outlier_indices] = dequantize_values(self.outlier_values, self.outlier_scale)
        return token

    def bits(self) -> float:
        return self.config.bits_per_token(self.hidden_dim)


def outlier_positions(magnitudes: np.ndarray, count: int) -> np.ndarray:
    """Unsorted positions of the ``count`` largest ``magnitudes`` along the last axis.

    The module's one top-k selection: :func:`select_outliers`,
    :meth:`PackedQuantizedTensor.pack` and the tied rows of
    :func:`fake_quantize_tokens` all call it, so they agree on which of
    several equal magnitudes become outliers.  Rows are selected
    independently, so a subset of rows selects as it would in the full array.
    Requires ``0 < count <= magnitudes.shape[-1]``.
    """
    return np.argpartition(magnitudes, -count, axis=-1)[..., -count:]


def select_outliers(token: np.ndarray, count: int) -> np.ndarray:
    """Indices of the ``count`` largest-magnitude values of ``token`` (top-k)."""
    if count <= 0:
        return np.empty(0, dtype=np.int64)
    count = min(count, token.size)
    return outlier_positions(np.abs(token), count)


@dataclass
class PackedQuantizedTensor:
    """A batch of quantized tokens in struct-of-arrays (columnar) layout.

    The per-token representation of Fig. 7 stored as one array per field:
    row ``i`` of every array describes token ``i``.  ``pack`` replaces the
    per-token Python loop of :func:`quantize_tokens` with batched array
    operations; ``unpack`` is the vectorized inverse.  All tokens share one
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

        Numerically identical to applying :func:`quantize_token` row by row:
        the same top-k selection, the same per-token scaling factors and the
        same integer grids, just computed with axis-wise array operations.
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

    # ---------------------------------------------------------- compatibility
    def token(self, index: int) -> QuantizedToken:
        """The ``index``-th token as a per-token :class:`QuantizedToken` view."""
        return QuantizedToken(
            inlier_values=self.inlier_values[index],
            inlier_indices=self.inlier_indices[index],
            outlier_values=self.outlier_values[index],
            outlier_indices=self.outlier_indices[index],
            scale=float(self.scales[index]),
            outlier_scale=float(self.outlier_scales[index]),
            hidden_dim=self.hidden_dim,
            config=self.config,
        )

    def to_tokens(self) -> List[QuantizedToken]:
        """Materialize the legacy list-of-tokens representation."""
        return [self.token(i) for i in range(self.num_tokens)]

    @classmethod
    def from_tokens(cls, tokens: List[QuantizedToken]) -> "PackedQuantizedTensor":
        """Build the columnar layout from per-token objects (inverse of ``to_tokens``)."""
        if not tokens:
            raise ValueError("from_tokens requires at least one token")
        first = tokens[0]
        return cls(
            inlier_values=np.stack([t.inlier_values for t in tokens]),
            inlier_indices=np.stack([t.inlier_indices for t in tokens]),
            outlier_values=np.stack([t.outlier_values for t in tokens]),
            outlier_indices=np.stack([t.outlier_indices for t in tokens]),
            scales=np.array([t.scale for t in tokens], dtype=np.float64),
            outlier_scales=np.array([t.outlier_scale for t in tokens], dtype=np.float64),
            hidden_dim=first.hidden_dim,
            config=first.config,
        )


def quantize_token(token: np.ndarray, config: TokenQuantConfig) -> QuantizedToken:
    """Quantize a single token vector with dynamic outlier handling.

    Computes in the token's float precision, like :meth:`PackedQuantizedTensor.pack`.
    """
    token = float_values(token).reshape(-1)
    hidden_dim = token.size
    outlier_indices = np.sort(select_outliers(token, config.outlier_count))
    mask = np.ones(hidden_dim, dtype=bool)
    mask[outlier_indices] = False
    inlier_indices = np.nonzero(mask)[0]

    inliers = token[inlier_indices]
    outliers = token[outlier_indices]

    inlier_max = np.max(np.abs(inliers)) if inliers.size else 0.0
    outlier_max = np.max(np.abs(outliers)) if outliers.size else 0.0
    inlier_scale = float(symmetric_scale(inlier_max, config.inlier_bits, token.dtype))
    outlier_scale = float(symmetric_scale(outlier_max, config.outlier_bits, token.dtype))
    return QuantizedToken(
        inlier_values=quantize_values(inliers, inlier_scale, config.inlier_bits),
        inlier_indices=inlier_indices,
        outlier_values=quantize_values(outliers, outlier_scale, config.outlier_bits),
        outlier_indices=outlier_indices,
        scale=inlier_scale,
        outlier_scale=outlier_scale,
        hidden_dim=hidden_dim,
        config=config,
    )


def quantize_tokens_packed(tokens: np.ndarray, config: TokenQuantConfig) -> PackedQuantizedTensor:
    """Quantize a 2-D array of tokens into the columnar packed layout."""
    return PackedQuantizedTensor.pack(tokens, config)


def quantize_tokens(tokens: np.ndarray, config: TokenQuantConfig) -> List[QuantizedToken]:
    """Quantize a 2-D array of tokens (rows are tokens).

    The quantization itself runs through the batched
    :meth:`PackedQuantizedTensor.pack`; only the returned per-token views are
    materialized as objects, for callers that want the legacy list API.
    """
    return PackedQuantizedTensor.pack(tokens, config).to_tokens()


def packed_fake_quantize_tokens(values: np.ndarray, config: TokenQuantConfig) -> np.ndarray:
    """Token-wise fake quantization through the packed pack/unpack round trip.

    Produces the same reconstruction as :func:`fake_quantize_tokens` but by
    exercising the exact storage path of the hardware (top-k split, per-token
    scales, integer grids, scatter-based reassembly), which is what the
    packed-layout parity tests and the packed AAQ contexts run.
    """
    values = float_values(values)
    original_shape = values.shape
    flat = values.reshape(-1, original_shape[-1])
    return PackedQuantizedTensor.pack(flat, config).unpack().reshape(original_shape)


def _abs_row_max(flat: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """``max |x|`` of every row of ``flat``, by the cheapest pass for its width.

    numpy reduces a narrow last axis slowly (one short inner loop per row), so
    rows up to 16 wide fold column by column; up to 256 wide take one ``abs``
    pass into ``scratch`` and reduce it; wider rows reduce ``max`` and
    ``min`` directly with no ``abs`` pass (faster from about 256 columns on,
    slower below).  ``max`` is exact, so all three equal
    ``np.abs(flat).max(-1)`` up to the sign of a zero maximum, which
    :func:`symmetric_scale` clamps to the same ``1e-12`` floor.
    """
    width = flat.shape[-1]
    if width <= 16:
        column = np.abs(flat[:, 0])
        row_max = column.copy()
        for j in range(1, width):
            np.abs(flat[:, j], out=column)
            np.maximum(row_max, column, out=row_max)
        return row_max
    if width < 256:
        return np.abs(flat, out=scratch).max(axis=-1)
    return np.maximum(flat.max(axis=-1), -flat.min(axis=-1))


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


def _scale_round(values: np.ndarray, scales: np.ndarray, out: np.ndarray) -> None:
    """``out = round(values / scales) * scales``, one element at a time.

    No clip: every ``|x| <= M`` and ``s = max(M, 1e-12) / qmax``, so
    ``|x / s|`` exceeds ``qmax`` by at most a few ulps and rounds to at most
    ``qmax``.
    """
    np.divide(values, scales, out=out)
    np.round(out, out=out)
    np.multiply(out, scales, out=out)


def fake_quantize_tokens(values: np.ndarray, config: TokenQuantConfig) -> np.ndarray:
    """Vectorized token-wise fake quantization with top-k outlier handling.

    Equivalent to ``quantize_token`` + ``dequantize`` applied to every token of
    ``values`` (tokens are vectors along the last axis), but implemented with
    array operations so it can be injected into the PPM forward pass cheaply.

    Every element is divided by its token's grid step (the inlier scale, or
    the outlier scale at the token's top-k positions), rounded and multiplied
    back in one pass into the returned buffer, in the input's float precision:
    float32 values give a float32 result with float32 steps, float64 values
    a float64 one, and integer or bool values are quantized as float64.
    Without outliers (``k == 0``, or ``k >= H`` where every value is an
    outlier) the step is one per token and the transient peak, the returned
    array included, is about 1x the bytes of the float input (1.09x float64,
    1.16x float32 for a (9216, 32) pair tensor).  With outliers
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
    original_shape = values.shape
    flat = values.reshape(-1, original_shape[-1])
    hidden_dim = flat.shape[-1]
    count = min(config.outlier_count, hidden_dim)

    out = np.empty(flat.shape, dtype=flat.dtype)
    if 0 < count < hidden_dim:
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
    else:
        bits = config.outlier_bits if count else config.inlier_bits
        _scale_round(flat, symmetric_scale(_abs_row_max(flat, out), bits, flat.dtype)[:, None], out)
    return out.reshape(original_shape)


def token_quantization_rmse(values: np.ndarray, config: TokenQuantConfig) -> float:
    """RMSE of the token-wise fake-quantization round trip."""
    reconstructed = fake_quantize_tokens(values, config)
    return float(np.sqrt(np.mean((np.asarray(values, dtype=np.float64) - reconstructed) ** 2)))
