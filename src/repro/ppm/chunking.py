"""Blockwise (chunked) execution kernels for the pair-representation stack.

Triangular attention is the activation-memory wall of the folding trunk: the
dense path materializes an (N, N, N, heads) score tensor, which caps the
sequence length the numeric substrate can execute.  The kernels here evaluate
the same mathematics in tiles:

* :func:`streaming_attention` — FlashAttention-style softmax attention over
  (query_chunk, key_chunk) tiles with a running max and denominator, so no
  array larger than one tile of scores ever exists.  Used whenever the active
  :class:`~repro.ppm.activation_tap.ActivationContext` is a no-op (the common
  case: accuracy runs without quantization, latency/shape tests, the memory
  benchmarks).
* :func:`blockwise_attention` — query-block attention that *does* materialize
  the normalized weights of one query block at a time and reports them
  through the activation context.  With ``query_chunk=None`` it is the dense
  path itself (one block), for triangular and sequence attention alike, so
  tap names and group labels never depend on the chunking, and each tap
  observes complete key-axis token vectors,
  so per-token transforms (AAQ fake-quantization, the packed pack/unpack
  round trip) are chunk-invariant: quantizing per block equals quantizing the
  dense tensor and slicing it.  Recording contexts are the one observable
  difference — they receive one ``attention_weights`` record per query block,
  and one ``outer_product_mean.outer`` record per row block of the outer
  product mean, instead of one per forward (just as every tap already records
  once per folding block), so statistics pipelines that average per record
  should run on the default dense configuration.
* :func:`iter_chunks` — the shared tiling iterator (ragged last chunk,
  ``chunk >= n`` and ``chunk is None`` degenerate to a single full slice),
  also used for the row blocks of
  :class:`~repro.ppm.attention.OuterProductMean`.

Both attention kernels are exact (not approximations): dense ≡ chunked is
asserted at the repo-wide 1e-9 parity bar across the module, block and model
levels in ``tests/test_chunked_attention.py``.
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np

from .activation_tap import GROUP_C, NULL_CONTEXT, ActivationContext
from .functional import inplace_target, softmax


def iter_chunks(total: int, chunk: Optional[int]) -> Iterator[slice]:
    """Yield ``slice`` objects tiling ``range(total)`` in ``chunk``-sized steps.

    ``chunk`` of ``None`` (or anything >= ``total``) yields one full slice; a
    ragged final chunk is yielded as-is.
    """
    if total <= 0:
        return
    if chunk is None or chunk >= total:
        yield slice(0, total)
        return
    for start in range(0, total, chunk):
        yield slice(start, min(start + chunk, total))


def context_observes_taps(ctx: ActivationContext) -> bool:
    """Whether ``ctx`` can observe or transform activations at tap points.

    The base :class:`ActivationContext` (and therefore ``NULL_CONTEXT``) is a
    structural no-op; any subclass that overrides :meth:`process` — recorders,
    quantizing contexts — is treated as observing.  The chunked attention path
    uses this to decide whether the per-block attention weights must be
    materialized for the ``attention_weights`` tap or can stay inside the
    streaming kernel.
    """
    return type(ctx).process is not ActivationContext.process


def streaming_attention(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    bias: Optional[np.ndarray] = None,
    scale: float = 1.0,
    query_chunk: Optional[int] = None,
    key_chunk: Optional[int] = None,
) -> np.ndarray:
    """Exact softmax attention evaluated in tiles with an online softmax.

    Computes ``softmax(scale * q @ k^T + bias, axis=-1) @ v`` over the last
    two axes without materializing the full (..., Q, K) score tensor: for each
    query block, key tiles stream through a running row-max ``m`` and
    denominator ``l`` (the classic max/denominator recurrence), rescaling the
    value accumulator as the max tightens.

    ``q`` is (..., Q, D), ``k``/``v`` are (..., K, D); ``bias`` must broadcast
    against (..., Q, K).  Leading batch axes are arbitrary (the triangular
    attention passes (N, H, ., .)).
    """
    num_queries = q.shape[-2]
    num_keys = k.shape[-2]
    batch_shape = q.shape[:-2]
    out = np.empty((*batch_shape, num_queries, v.shape[-1]), dtype=np.result_type(q, k, v))
    k_t = np.swapaxes(k, -1, -2)

    for qs in iter_chunks(num_queries, query_chunk):
        q_tile = q[..., qs, :]
        block = qs.stop - qs.start
        running_max = np.full((*batch_shape, block), -np.inf)
        denominator = np.zeros((*batch_shape, block))
        accumulator = np.zeros((*batch_shape, block, v.shape[-1]))
        for ks in iter_chunks(num_keys, key_chunk):
            scores = np.matmul(q_tile, k_t[..., ks]) * scale
            if bias is not None:
                scores = scores + bias[..., qs, ks]
            tile_max = np.maximum(running_max, scores.max(axis=-1))
            # exp(-inf - finite) == 0.0, so the first tile needs no special case.
            correction = np.exp(running_max - tile_max)
            probabilities = np.exp(scores - tile_max[..., None])
            denominator = denominator * correction + probabilities.sum(axis=-1)
            accumulator = accumulator * correction[..., None] + np.matmul(
                probabilities, v[..., ks, :]
            )
            running_max = tile_max
        out[..., qs, :] = accumulator / denominator[..., None]
    return out


def blockwise_attention(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    bias: np.ndarray,
    scale_divisor: float,
    query_chunk: Optional[int],
    ctx: ActivationContext = NULL_CONTEXT,
    weights_tap: Optional[str] = None,
    weights_group: str = GROUP_C,
) -> np.ndarray:
    """Query-block softmax attention that reports normalized weights per block.

    Computes ``softmax(q @ k^T / scale_divisor + bias, axis=-1) @ v`` over the
    last two axes with ``np.matmul``; ``q`` is (..., Q, D), ``k``/``v`` are
    (..., K, D) and ``bias`` broadcasts against (..., Q, K).  This is the one
    attention kernel of the pair and sequence stacks: triangular attention
    passes (N, H, N, D) with its ``attention_weights`` tap, sequence attention
    passes (H, Ns, D) with ``weights_tap=None`` (no tap).  ``query_chunk`` of
    ``None`` is the dense path, a single block.

    Each query block computes its scores with the *same matmul and
    ``/ scale_divisor`` division* as the dense path, and the key axis (the
    per-token axis of the tap) is always complete, which keeps token-wise
    transforms (AAQ fake-quantization, packed pack/unpack) chunk-invariant.
    The weights handed to the ``weights_tap`` are the corresponding rows of
    the dense weights tensor up to rounding: BLAS may pick a different kernel
    for a block's row count (one-row blocks, for instance), so a row is
    bit-identical to its dense counterpart for most block shapes but not all.
    """
    num_queries = q.shape[-2]
    attended = np.empty(v.shape[:-2] + (num_queries, v.shape[-1]), dtype=v.dtype)
    k_t = np.swapaxes(k, -1, -2)
    for qs in iter_chunks(num_queries, query_chunk):
        scores = np.matmul(q[..., qs, :], k_t)
        out = inplace_target(scores, scale_divisor, bias)
        scores = np.add(np.divide(scores, scale_divisor, out=out), bias[..., qs, :], out=out)
        weights = softmax(scores, axis=-1)
        if weights_tap is not None:
            weights = ctx.process(weights_tap, weights_group, weights)
        attended[..., qs, :] = np.matmul(weights, v)
    return attended
