"""Root-mean-square deviation metrics."""

from __future__ import annotations

import numpy as np

from .kabsch import kabsch


def rmsd(predicted: np.ndarray, reference: np.ndarray, superpose: bool = True) -> float:
    """RMSD between two coordinate sets of shape ``(N, 3)``.

    When ``superpose`` is True (the default) the optimal rigid-body alignment
    is applied first, which is the convention in structural biology.
    """
    predicted = np.asarray(predicted, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    if predicted.shape != reference.shape:
        raise ValueError("predicted and reference must have the same shape")
    if superpose:
        return kabsch(predicted, reference).rmsd
    diff = predicted - reference
    return float(np.sqrt(np.mean(np.sum(diff * diff, axis=1))))


def distance_rmse(predicted_distances: np.ndarray, reference_distances: np.ndarray) -> float:
    """RMSE between two pairwise-distance matrices (superposition-free)."""
    predicted_distances = np.asarray(predicted_distances, dtype=np.float64)
    reference_distances = np.asarray(reference_distances, dtype=np.float64)
    if predicted_distances.shape != reference_distances.shape:
        raise ValueError("distance matrices must have the same shape")
    diff = predicted_distances - reference_distances
    return float(np.sqrt(np.mean(diff * diff)))

