"""Memory guards: chunked triangular attention vs the dense score tensor, and
the peaks of two chunked AAQ-quantized folds.

The dense TriangleAttention path materializes an (N, N, N, heads) score
tensor, which is the activation-memory wall motivating the paper.  This
benchmark measures *actual process peak RSS* (``VmHWM``) of one
triangular-attention forward, dense vs chunked, each in a fresh subprocess so
the high-water mark belongs to exactly one execution mode, and enforces three
guarantees in CI:

* at ``GUARD_LENGTH`` (where both modes can run) the chunked peak must be
  *materially* below the dense peak — a regression that quietly
  re-materializes the score tensor fails the build;
* at ``LONG_LENGTH`` — where the dense score tensor alone would exceed
  ``DENSE_BUDGET_MIB`` — the chunked path must complete inside that budget,
  i.e. chunking really unlocks lengths the dense path cannot reach;
* one LightNobel (AAQ) prediction of a ``FOLD_LENGTH``-residue protein at
  chunk ``CHUNK_SIZE``, in the default float32, stays under
  ``FOLD_BUDGET_MIB`` — a quantizer that materializes extra full-size copies
  of the activations, or a stray float64 promotion that doubles them, fails
  the build;
* the same chunked fold at ``LONG_FOLD_LENGTH`` stays under
  ``LONG_FOLD_BUDGET_MIB`` — an outer product mean that re-materializes its
  full (N, N, h*h) tensor, which grows 4x per doubling of N, fails the build.

Run with ``-s`` to see the measured table; EXPERIMENTS.md records the numbers.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.ppm import PPMConfig

#: Length where dense still fits on the CI runner (dense scores: 62.5 MiB,
#: peak ~300 MB with softmax transients) but the gap to chunked is wide.
GUARD_LENGTH = 160

#: Length whose dense float64 score tensor alone (500 MiB) exceeds the budget.
LONG_LENGTH = 320

#: Memory budget (MiB) the dense score tensor must break at LONG_LENGTH and
#: the chunked peak RSS must stay under.
DENSE_BUDGET_MIB = 448.0

CHUNK_SIZE = 32

#: Length of the AAQ fold guard (the ``fold-aaq`` benchmark's protein).
FOLD_LENGTH = 96

#: Peak RSS budget (MiB) of that fold.  In float32 it peaks at 57.0-57.3 MiB
#: (20 runs) with the outer product mean's block quantized in place, and at
#: ~68 MiB when the quantizer returns a second block; the float64 fold peaked
#: at ~99 MiB, building the full outer tensor at ~200 MiB, and the former
#: two-pass quantizer at ~435 MiB.
FOLD_BUDGET_MIB = 75.0

#: Length and peak RSS budget (MiB) of the long chunked AAQ fold guard:
#: 103.4-103.7 MiB in float32 (20 runs; triangle multiplication, not the
#: outer product mean, sets this peak), ~186 MiB in float64 (row-blocked
#: with one reused block buffer), ~673 MiB with the full float64 outer
#: tensor.
LONG_FOLD_LENGTH = 192
LONG_FOLD_BUDGET_MIB = 160.0

#: "Materially below": chunked peak RSS must be under this fraction of the
#: dense peak *and* at least this many MiB smaller.
GUARD_MAX_FRACTION = 0.6
GUARD_MIN_GAP_MIB = 64.0

#: The child reads VmHWM (the mm-level RSS high-water mark, reset by execve)
#: rather than ``ru_maxrss``: the latter is inherited from the parent across
#: fork+exec, so a large pytest parent would put a floor under every child
#: measurement and mask the dense/chunked gap.
_PRELUDE = """
import json, resource, sys, time
import numpy as np

def peak_mib():
    try:
        with open('/proc/self/status') as status:
            for line in status:
                if line.startswith('VmHWM:'):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

n, chunk = int(sys.argv[1]), int(sys.argv[2])
"""

_CHILD = _PRELUDE + """
from repro.ppm import PPMConfig, TriangleAttention

config = PPMConfig.small().with_dtype("float64")
if chunk:
    config = config.with_chunking(attn_chunk_size=chunk)
attention = TriangleAttention(config, np.random.default_rng(0), mode="starting")
pair = np.random.default_rng(1).normal(size=(n, n, config.pair_dim))
baseline_mib = peak_mib()
start = time.perf_counter()
update = attention(pair)
elapsed = time.perf_counter() - start
assert np.isfinite(update).all()
print(json.dumps({"peak_mib": peak_mib(), "baseline_mib": baseline_mib,
                  "seconds": elapsed}))
"""

_FOLD_CHILD = _PRELUDE + """
from repro.core import get_scheme
from repro.ppm import PPMConfig, ProteinStructureModel
from repro.ppm.quantized import QuantizedPPM
from repro.proteins import generate_protein

config = PPMConfig.small().with_chunking(attn_chunk_size=chunk, triangle_chunk_size=chunk)
quantized = QuantizedPPM(ProteinStructureModel(config, seed=0), get_scheme("LightNobel (AAQ)"))
protein = generate_protein(n, seed=1)
baseline_mib = peak_mib()
start = time.perf_counter()
coordinates = quantized.predict(protein).structure.coordinates
elapsed = time.perf_counter() - start
assert np.isfinite(coordinates).all()
print(json.dumps({"peak_mib": peak_mib(), "baseline_mib": baseline_mib,
                  "seconds": elapsed}))
"""


def measure(length: int, chunk: int, child: str = _CHILD) -> dict:
    """Run one forward in a fresh subprocess; return its peak-RSS report."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-c", child, str(length), str(chunk)],
        capture_output=True, text=True, env=env,
    )
    if result.returncode != 0:
        # Surface the child's traceback (e.g. a MemoryError on a constrained
        # runner) instead of a bare CalledProcessError with no diagnostic.
        raise AssertionError(
            f"measurement child (n={length}, chunk={chunk}) exited "
            f"{result.returncode}:\n{result.stderr}"
        )
    return json.loads(result.stdout.strip().splitlines()[-1])


def dense_score_tensor_mib(config: PPMConfig, length: int) -> float:
    """Size of the dense (N, N, N, heads) float64 score tensor in MiB."""
    return float(length) ** 3 * config.num_heads * 8 / (1024.0 * 1024.0)


def test_chunked_peak_rss_materially_below_dense():
    dense = measure(GUARD_LENGTH, 0)
    chunked = measure(GUARD_LENGTH, CHUNK_SIZE)
    rows = [
        ("mode", "peak RSS (MiB)", "wall clock (s)"),
        ("dense", f"{dense['peak_mib']:.0f}", f"{dense['seconds']:.2f}"),
        (f"chunked ({CHUNK_SIZE})", f"{chunked['peak_mib']:.0f}", f"{chunked['seconds']:.2f}"),
    ]
    print(f"\n=== Triangular attention at N={GUARD_LENGTH} (small config) ===")
    for row in rows:
        print("  " + " | ".join(str(item) for item in row))

    assert chunked["peak_mib"] < dense["peak_mib"] * GUARD_MAX_FRACTION, (
        f"chunked peak RSS {chunked['peak_mib']:.0f} MiB is not materially below "
        f"dense {dense['peak_mib']:.0f} MiB"
    )
    assert dense["peak_mib"] - chunked["peak_mib"] > GUARD_MIN_GAP_MIB


def test_chunked_runs_length_dense_cannot():
    config = PPMConfig.small()
    score_mib = dense_score_tensor_mib(config, LONG_LENGTH)
    assert score_mib > DENSE_BUDGET_MIB, (
        "LONG_LENGTH no longer breaks the budget; raise it to keep the guard honest"
    )
    chunked = measure(LONG_LENGTH, CHUNK_SIZE)
    print(
        f"\n=== N={LONG_LENGTH}: dense score tensor alone {score_mib:.0f} MiB "
        f"(budget {DENSE_BUDGET_MIB:.0f} MiB) ==="
    )
    print(
        f"  chunked ({CHUNK_SIZE}) peak RSS {chunked['peak_mib']:.0f} MiB, "
        f"{chunked['seconds']:.2f} s"
    )
    assert chunked["peak_mib"] < DENSE_BUDGET_MIB


@pytest.mark.parametrize(
    "length, budget_mib",
    [(FOLD_LENGTH, FOLD_BUDGET_MIB), (LONG_FOLD_LENGTH, LONG_FOLD_BUDGET_MIB)],
)
def test_aaq_fold_peak_rss_within_budget(length, budget_mib):
    fold = measure(length, CHUNK_SIZE, child=_FOLD_CHILD)
    print(
        f"\n=== LightNobel (AAQ) fold, N={length}, chunk {CHUNK_SIZE} (small config) ===\n"
        f"  peak RSS {fold['peak_mib']:.0f} MiB (budget {budget_mib:.0f} MiB), "
        f"{fold['seconds']:.2f} s"
    )
    assert fold["peak_mib"] <= budget_mib, (
        f"AAQ fold (N={length}) peak RSS {fold['peak_mib']:.0f} MiB exceeds {budget_mib:.0f} MiB"
    )
