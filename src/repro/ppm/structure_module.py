"""Structure module: pair representation -> 3-D C-alpha coordinates.

The paper's structure module (AlphaFold2/ESMFold IPA) converts the final pair
representation into atomic coordinates.  Our substrate recovers coordinates
from the distance signal carried by the pair representation:

1. read the predicted pairwise distance matrix out of the reserved distogram
   channels (plus a learned correction head over all pair channels),
2. classical multidimensional scaling (MDS) of the distance matrix to obtain
   an initial embedding in 3-D,
3. a few rounds of stress-majorization refinement to improve local geometry.

Quantization error anywhere in the Pair Representation dataflow perturbs the
distance matrix and therefore degrades the predicted structure — the same
causal path the paper's accuracy experiments rely on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..proteins.sequence import ProteinSequence
from ..proteins.structure import ProteinStructure, distance_matrix_to_gram
from .activation_tap import ActivationContext, NULL_CONTEXT
from .config import PPMConfig
from .embedding import DISTANCE_SCALE, decode_prior_distances
from .modules import LayerNorm, Linear, Module


@dataclass
class StructurePrediction:
    """Output of the structure module."""

    structure: ProteinStructure
    predicted_distances: np.ndarray
    plddt_like_confidence: np.ndarray


def mds_embedding(distances: np.ndarray, dimensions: int = 3) -> np.ndarray:
    """Classical MDS embedding of a distance matrix into ``dimensions``-D."""
    gram = distance_matrix_to_gram(distances)
    eigenvalues, eigenvectors = np.linalg.eigh(gram)
    order = np.argsort(eigenvalues)[::-1][:dimensions]
    top_values = np.clip(eigenvalues[order], 0.0, None)
    return eigenvectors[:, order] * np.sqrt(top_values)[None, :]


def mean_torsion_sign(coordinates: np.ndarray) -> float:
    """Average sign of consecutive C-alpha pseudo-torsion angles.

    Distance information alone determines a structure only up to a mirror
    image; real PPM structure modules resolve the ambiguity through learned
    backbone frames.  Our substrate resolves it through backbone handedness:
    the synthetic generator builds helices with a fixed turn direction, so the
    mean sign of the CA(i)...CA(i+3) pseudo-torsion is consistently negative
    for correctly-handed structures and positive for their mirror images.
    """
    if coordinates.shape[0] < 4:
        return 0.0
    b1 = coordinates[1:-2] - coordinates[:-3]
    b2 = coordinates[2:-1] - coordinates[1:-2]
    b3 = coordinates[3:] - coordinates[2:-1]
    n1 = np.cross(b1, b2)
    n2 = np.cross(b2, b3)
    b2_unit = b2 / np.maximum(np.linalg.norm(b2, axis=1, keepdims=True), 1e-12)
    m1 = np.cross(n1, b2_unit)
    x = np.sum(n1 * n2, axis=1)
    y = np.sum(m1 * n2, axis=1)
    angles = np.arctan2(y, x)
    return float(np.mean(np.sign(angles)))


def resolve_chirality(coordinates: np.ndarray) -> np.ndarray:
    """Return the mirror image with the expected (negative) backbone handedness."""
    if mean_torsion_sign(coordinates) > 0:
        mirrored = coordinates.copy()
        mirrored[:, 2] = -mirrored[:, 2]
        return mirrored
    return coordinates


def stress_refinement(
    coordinates: np.ndarray,
    target_distances: np.ndarray,
    iterations: int = 20,
    neighbor_cutoff: float = 14.0,
    max_weighted_size: int = 1200,
) -> np.ndarray:
    """SMACOF stress majorization emphasizing short-range distances.

    Uses the Guttman transform ``X <- V^+ B(X) X``.  For proteins small enough
    to afford a pseudo-inverse of the weighted Laplacian ``V`` we weight pairs
    within ``neighbor_cutoff`` more strongly (local geometry matters most for
    TM-score); above ``max_weighted_size`` residues the uniform-weight closed
    form ``X <- B(X) X / n`` is used instead.
    """
    coords = coordinates.copy()
    n = coords.shape[0]
    if n < 3 or iterations <= 0:
        return coords

    use_weights = n <= max_weighted_size
    if use_weights:
        weights = (target_distances <= neighbor_cutoff).astype(np.float64) + 0.05
        np.fill_diagonal(weights, 0.0)
        laplacian = np.diag(weights.sum(axis=1)) - weights
        v_pinv = np.linalg.pinv(laplacian)
    else:
        weights = np.ones((n, n))
        np.fill_diagonal(weights, 0.0)
        v_pinv = None

    for _ in range(iterations):
        diff = coords[:, None, :] - coords[None, :, :]
        current = np.sqrt(np.sum(diff * diff, axis=-1))
        np.fill_diagonal(current, 1.0)
        ratio = np.where(current > 1e-9, target_distances / current, 0.0)
        b_matrix = -weights * ratio
        np.fill_diagonal(b_matrix, 0.0)
        np.fill_diagonal(b_matrix, -b_matrix.sum(axis=1))
        guttman = b_matrix @ coords
        if use_weights:
            coords = v_pinv @ guttman
        else:
            coords = guttman / n
        coords = coords - coords.mean(axis=0)
    return coords


class StructureModule(Module):
    """Distance readout + MDS + refinement producing the final structure."""

    def __init__(self, config: PPMConfig, rng: np.random.Generator, name: str = "structure_module") -> None:
        super().__init__(name)
        dtype = config.dtype
        self.config = config
        self.layer_norm = self.register_child(
            "layer_norm", LayerNorm(config.pair_dim, "layer_norm", dtype=dtype)
        )
        self.distance_head = self.register_child(
            "distance_head", Linear(config.pair_dim, 1, rng, "distance_head", init="final", dtype=dtype)
        )
        self.confidence_head = self.register_child(
            "confidence_head", Linear(config.pair_dim, 1, rng, "confidence_head", init="final", dtype=dtype)
        )
        self.prior_gain = 8.0
        self.refinement_iterations = 20

    def predict_distances(self, pair: np.ndarray) -> np.ndarray:
        """Predicted pairwise distance matrix from the pair representation.

        Read out in the pair's precision and returned as float64: the MDS
        eigendecomposition and the refinement always run in float64.
        """
        base = decode_prior_distances(pair, self.prior_gain)
        correction = self.distance_head(self.layer_norm(pair))[..., 0] * DISTANCE_SCALE * 0.01
        correction = 0.5 * (correction + correction.T)
        predicted = np.clip(base + correction, 0.0, None).astype(np.float64, copy=False)
        np.fill_diagonal(predicted, 0.0)
        return predicted

    def forward(
        self,
        sequence_representation: np.ndarray,
        pair: np.ndarray,
        sequence: ProteinSequence,
        ctx: ActivationContext = NULL_CONTEXT,
    ) -> StructurePrediction:
        """Predict the 3-D structure of ``sequence`` from trunk outputs."""
        del sequence_representation, ctx  # structure module is outside the AAQ dataflow
        distances = self.predict_distances(pair)
        coordinates = mds_embedding(distances, dimensions=3)
        coordinates = stress_refinement(
            coordinates, distances, iterations=self.refinement_iterations
        )
        coordinates = resolve_chirality(coordinates)
        confidence_logits = self.confidence_head(self.layer_norm(pair))[..., 0]
        confidence = 1.0 / (1.0 + np.exp(-confidence_logits.mean(axis=-1)))
        structure = ProteinStructure(sequence=sequence, coordinates=coordinates)
        return StructurePrediction(
            structure=structure,
            predicted_distances=distances,
            plddt_like_confidence=confidence,
        )

    __call__ = forward
