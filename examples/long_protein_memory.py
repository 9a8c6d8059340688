"""Scenario: can a long protein (titin-scale fragments, multimers) be folded at all?

The paper's motivation is that Pair-Representation activations explode with
sequence length: a 2,034-residue protein already needs 144 GB — beyond any
single GPU — and CASP16 targets reach 6,879 residues.  This example walks the
memory wall: for a sweep of sequence lengths it reports the peak memory of the
ESMFold baseline (with and without chunking) and of LightNobel with AAQ, and
shows where each configuration stops fitting in an 80 GB device.

Usage:
    python examples/long_protein_memory.py
"""

from __future__ import annotations

from repro.analysis import lightnobel_peak_memory_gb, max_supported_length, peak_memory_comparison
from repro.gpu import GPUModel
from repro.ppm import PPMConfig

MEMORY_BUDGET_GB = 80.0
SEQUENCE_LENGTHS = [500, 1000, 1410, 2034, 3364, 5000, 6879, 9945]


def main() -> None:
    config = PPMConfig.paper()

    print(f"{'length':>8} | {'baseline (GB)':>14} | {'chunked (GB)':>13} | {'LightNobel (GB)':>16}")
    print("-" * 62)
    for length in SEQUENCE_LENGTHS:
        peaks = peak_memory_comparison(length, config)
        marks = {
            key: ("OOM" if value > MEMORY_BUDGET_GB else "ok")
            for key, value in peaks.items()
        }
        print(
            f"{length:>8} | {peaks['baseline_no_chunk']:>10.1f} {marks['baseline_no_chunk']:>3} |"
            f" {peaks['baseline_chunk']:>9.1f} {marks['baseline_chunk']:>3} |"
            f" {peaks['lightnobel']:>12.1f} {marks['lightnobel']:>3}"
        )

    print()
    print(f"Longest sequence within {MEMORY_BUDGET_GB:.0f} GB:")
    for label, chunked in (("no chunk", False), ("chunked ", True)):
        gpu = GPUModel("H100", ppm_config=config, chunked=chunked)
        print(f"  ESMFold baseline, {label} : {gpu.max_length} residues")
    print(f"  LightNobel with AAQ        : {max_supported_length(MEMORY_BUDGET_GB)} residues "
          f"(paper: 9,945)")
    print()
    print("Peak memory of LightNobel on the longest CASP16 target (6,879 aa): "
          f"{lightnobel_peak_memory_gb(6879):.1f} GB")


if __name__ == "__main__":
    main()
