"""Shared fixtures and helpers for the per-figure/table benchmark harness.

Every benchmark regenerates the data behind one table or figure of the paper
and prints the corresponding rows/series (run with ``pytest benchmarks/
--benchmark-only -s`` to see them).  Absolute numbers come from our simulated
substrate, so they are not expected to match the paper's testbed; the
assertions check the *shape* (orderings, crossovers, approximate factors) and
EXPERIMENTS.md records paper-vs-measured values.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

from repro.ppm import PPMConfig
from repro.proteins import build_all_catalogs

# The scalar pricing reference is test-only code; benchmarks time against it.
sys.path.append(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tests"))

try:
    import resource
except ImportError:  # non-POSIX platform: emit without RSS
    resource = None


def print_table(title: str, rows):
    """Print a small aligned table for a figure/table reproduction."""
    print(f"\n=== {title} ===")
    for row in rows:
        print("  " + " | ".join(str(item) for item in row))


def emit_bench_json(name: str, data: dict) -> str:
    """Write ``BENCH_<name>.json`` — machine-readable benchmark results.

    ``data`` holds the benchmark's own metrics (throughputs, speedups,
    wall-clock seconds); ``peak_rss_mb`` (max resident set of this process so
    far, via ``getrusage``) and the benchmark name are added alongside.  The
    output directory defaults to the working directory and can be redirected
    with ``$REPRO_BENCH_DIR`` (CI archives these files as artifacts).
    """
    payload = dict(data)
    payload["benchmark"] = name
    if resource is not None:
        # ru_maxrss is kilobytes on Linux, bytes on macOS.
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        payload["peak_rss_mb"] = rss / 1024.0 if os.uname().sysname != "Darwin" else rss / 1024.0**2
    out_dir = os.environ.get("REPRO_BENCH_DIR", ".")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"BENCH_{name}.json")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    print(f"\nbench json: {path}")
    return path


@pytest.fixture(scope="session")
def paper_config() -> PPMConfig:
    return PPMConfig.paper()


@pytest.fixture(scope="session")
def catalogs():
    """Synthetic dataset catalogues mirroring CAMEO/CASP14/CASP15/CASP16."""
    return build_all_catalogs(count=6, seed=0)


@pytest.fixture(scope="session")
def dataset_lengths(catalogs):
    """Representative sequence lengths per dataset (capped for simulation speed)."""
    lengths = {}
    for name, catalog in catalogs.items():
        values = sorted(catalog.lengths())
        # Use min / median / max to represent the dataset's length profile.
        lengths[name] = [values[0], values[len(values) // 2], values[-1]]
    return lengths
