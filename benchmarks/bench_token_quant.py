"""Perf: the per-element scale quantizer vs the gather/scatter reference.

``fake_quantize_tokens`` quantizes every AAQ tap of a fold, and is the
largest single cost of the ``fold-aaq`` workload.  Its reference,
``tests/reference_quant.py``, is the formulation it replaced: an
``argpartition`` top-k selection, gathers and scatters around it, a clip and
a last-axis ``abs().max()``.  This guard times both on the eight tap shapes
of one chunked 96-residue fold under the paper's AAQ configuration, each
weighted by its calls per fold, so a round's time is the quantizer's share
of one fold.

Tap inputs are seeded normals.  Groups A and B get tied rows (the k-th and
(k+1)-th largest magnitudes equal) on every 64th token, more often than a
real fold has them, so the guard also pays for the exact tie path.  Each
shape must be byte-equal to the reference before anything is timed.

The guard reads the median of paired per-fold ratios: each pair times one
round of each side back to back, alternating which goes first, so machine
drift cancels out of a pair and the median discards pairs a hiccup landed
in.  The figures land in ``BENCH_token_quant.json`` for EXPERIMENTS.md.
"""

import statistics
import time

import numpy as np
from conftest import emit_bench_json, print_table
from reference_quant import reference_fake_quantize_tokens

from repro.core import AAQConfig, fake_quantize_tokens
from repro.ppm.activation_tap import GROUP_A, GROUP_B, GROUP_C

#: (tap shape, AAQ group, calls per fold) for one 96-residue fold at
#: ``PPMConfig.small()`` with 32-wide attention and triangle chunks.
FOLD_TAPS = (
    ((32, 96, 1024), GROUP_C, 12),    # outer product mean, one row block
    ((96, 96, 32), GROUP_A, 32),      # pre-LayerNorm pair activations
    ((96, 96, 32), GROUP_B, 24),      # post-LayerNorm pair activations
    ((96, 2, 32, 96), GROUP_C, 24),   # attention weights, one query block
    ((96, 96, 32), GROUP_C, 32),      # post-linear pair intermediates
    ((96, 2, 96, 8), GROUP_C, 24),    # triangle attention q / k / v
    ((96, 96, 16), GROUP_C, 8),       # triangle attention gated output
    ((96, 96, 2), GROUP_C, 12),       # triangle attention pair bias
)

#: Every this-many-th token of a Group A/B tap is tied at the top-k cut.
TIE_EVERY = 64

#: Paired rounds; the guard reads the median pair ratio.
PAIRS = 21

#: CI floor on the median per-fold speedup.
MIN_SPEEDUP = 1.2


def tap_inputs(seed=0):
    """(values, config, calls) per fold tap, with tied tokens in Groups A/B."""
    rng = np.random.default_rng(seed)
    aaq = AAQConfig.paper_optimal()
    taps = []
    for shape, group, calls in FOLD_TAPS:
        config = aaq.config_for(group)
        values = rng.normal(size=shape)
        if config.outlier_count:
            flat = values.reshape(-1, shape[-1])
            k = config.outlier_count
            tied = flat[::TIE_EVERY]
            order = np.argsort(np.abs(tied), axis=-1)
            kth, next_down = order[:, -k], order[:, -k - 1]
            rows = np.arange(tied.shape[0])
            tied[rows, next_down] = -tied[rows, kth]
            flat[::TIE_EVERY] = tied
        taps.append((values, config, calls))
    return taps


def fold_seconds(quantize, taps):
    """Seconds one fold spends in ``quantize``: one call per tap, weighted."""
    total = 0.0
    for values, config, calls in taps:
        start = time.perf_counter()
        quantize(values, config)
        total += (time.perf_counter() - start) * calls
    return total


def test_quantizer_beats_reference_on_fold_taps():
    """CI guard: median of paired per-fold ratios >= 1.2x, outputs byte-equal."""
    taps = tap_inputs()
    for values, config, _ in taps:
        assert (
            fake_quantize_tokens(values, config).tobytes()
            == reference_fake_quantize_tokens(values, config).tobytes()
        )

    references, currents = [], []
    for pair in range(PAIRS):
        if pair % 2 == 0:
            references.append(fold_seconds(reference_fake_quantize_tokens, taps))
            currents.append(fold_seconds(fake_quantize_tokens, taps))
        else:
            currents.append(fold_seconds(fake_quantize_tokens, taps))
            references.append(fold_seconds(reference_fake_quantize_tokens, taps))
    ratios = [ref / cur for ref, cur in zip(references, currents)]
    speedup = statistics.median(ratios)
    quartiles = statistics.quantiles(ratios, n=4)

    rows = [("tap shape", "group", "calls", "reference", "current", "speedup")]
    per_tap = {}
    for (shape, group, calls), (values, config, _) in zip(FOLD_TAPS, taps):
        single = [(values, config, calls)]
        ref = min(fold_seconds(reference_fake_quantize_tokens, single) for _ in range(5))
        cur = min(fold_seconds(fake_quantize_tokens, single) for _ in range(5))
        key = f"{'x'.join(map(str, shape))}_{group}"
        per_tap[key] = {"calls": calls, "reference_ms": ref * 1e3, "current_ms": cur * 1e3}
        rows.append((shape, group, calls, f"{ref * 1e3:7.1f} ms", f"{cur * 1e3:7.1f} ms",
                     f"{ref / cur:4.2f}x"))
    rows.append(("per fold (median)", "", "", f"{statistics.median(references) * 1e3:7.1f} ms",
                 f"{statistics.median(currents) * 1e3:7.1f} ms", f"{speedup:4.2f}x"))
    print_table(f"fake_quantize_tokens on the fold's taps (ms per fold; {PAIRS} pairs)", rows)
    emit_bench_json(
        "token_quant",
        {
            "pairs": PAIRS,
            "speedup": speedup,
            "pair_ratio_quartiles": quartiles,
            "reference_fold_ms": statistics.median(references) * 1e3,
            "current_fold_ms": statistics.median(currents) * 1e3,
            "taps": per_tap,
        },
    )
    assert speedup >= MIN_SPEEDUP, (
        f"quantizer only {speedup:.2f}x faster than the reference on the fold's "
        f"taps (median of {PAIRS} paired ratios, quartiles {quartiles[0]:.2f}x / "
        f"{quartiles[2]:.2f}x); floor is {MIN_SPEEDUP}x"
    )
