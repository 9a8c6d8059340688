"""Input embedding: sequence/pair initialization with a simulated language model.

The paper's baseline (ESMFold) uses the 3B-parameter ESM-2 protein language
model as the input embedding; AlphaFold2 uses an MSA database search.  Neither
is available offline, so this module builds the closest synthetic equivalent:

* The **sequence representation** is produced from a learned residue embedding
  plus sinusoidal positional features — the same shape and statistics as a
  language-model embedding.
* The **pair representation** is seeded with relative-position encodings and,
  crucially, a *structure prior*: a soft, noisy encoding of the target's
  pairwise distances written into a reserved slice of the pair channels.  A
  trained language model implicitly provides exactly this kind of structural
  signal; injecting it explicitly lets an untrained folding trunk produce
  predictions whose accuracy responds to activation-quantization error the
  same way a trained model's would (the error propagates through the same
  Pair-Representation dataflow and corrupts the same distance signal).

The amount of prior noise is configurable so experiments can position the
baseline TM-score in the regime the paper reports (≈0.5-0.8).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..proteins.sequence import ProteinSequence
from ..proteins.structure import ProteinStructure
from ..proteins.amino_acids import VOCABULARY_SIZE
from .activation_tap import ActivationContext, NULL_CONTEXT
from .config import PPMConfig
from .modules import Linear, Module

#: Distance scale (Angstrom) used to normalize the encoded distance signal.
DISTANCE_SCALE = 25.0


@dataclass
class EmbeddingOutput:
    """Initial sequence and pair representations for the folding trunk."""

    sequence_representation: np.ndarray  # (Ns, Hm)
    pair_representation: np.ndarray      # (Ns, Ns, Hz)


def sinusoidal_positions(length: int, dim: int, dtype: str = "float64") -> np.ndarray:
    """Transformer-style sinusoidal positional features of shape (length, dim).

    The angles are computed in float64 and stored in ``dtype``.
    """
    positions = np.arange(length)[:, None]
    frequencies = np.exp(-np.log(10000.0) * (np.arange(dim // 2) / max(1, dim // 2)))
    angles = positions * frequencies[None, :]
    features = np.zeros((length, dim), dtype=dtype)
    features[:, 0::2] = np.sin(angles)[:, : features[:, 0::2].shape[1]]
    features[:, 1::2] = np.cos(angles)[:, : features[:, 1::2].shape[1]]
    return features


def relative_position_encoding(
    length: int, num_bins: int = 32, dtype: str = "float64"
) -> np.ndarray:
    """Clipped relative-position one-hot features of shape (Ns, Ns, num_bins)."""
    offsets = np.arange(length)[:, None] - np.arange(length)[None, :]
    clipped = np.clip(offsets + num_bins // 2, 0, num_bins - 1)
    one_hot = np.zeros((length, length, num_bins), dtype=dtype)
    rows, cols = np.indices((length, length))
    one_hot[rows, cols, clipped] = 1.0
    return one_hot


class StructurePrior:
    """Noisy distance prior standing in for the trained language model's signal."""

    def __init__(self, noise_scale: float, seed: int = 0) -> None:
        self.noise_scale = noise_scale
        self.seed = seed

    def distances(self, structure: ProteinStructure) -> np.ndarray:
        """Noisy symmetric distance matrix derived from the true structure."""
        rng = np.random.default_rng(self.seed + len(structure))
        true = structure.distance_matrix()
        noise = rng.normal(scale=self.noise_scale, size=true.shape)
        noise = 0.5 * (noise + noise.T)
        noisy = np.clip(true + noise, 0.0, None)
        np.fill_diagonal(noisy, 0.0)
        return noisy


class InputEmbedding(Module):
    """Builds the initial sequence and pair representations.

    Both representations come out in ``config.dtype``, which is what sets
    the precision of the whole trunk downstream.
    """

    def __init__(self, config: PPMConfig, rng: np.random.Generator, name: str = "input_embedding") -> None:
        super().__init__(name)
        self.config = config
        dtype = config.dtype
        self.residue_embedding = self.register_parameter(
            "residue_embedding",
            rng.normal(scale=0.5, size=(VOCABULARY_SIZE, config.seq_dim)).astype(dtype),
        )
        self.position_scale = self.register_parameter("position_scale", np.array([0.3], dtype=dtype))
        rel_bins = min(32, config.pair_dim)
        self.relative_bins = rel_bins
        self.linear_relpos = self.register_child(
            "linear_relpos", Linear(rel_bins, config.pair_dim, rng, "linear_relpos", dtype=dtype)
        )
        self.prior_gain = self.register_parameter("prior_gain", np.array([8.0], dtype=dtype))

    def forward(
        self,
        sequence: ProteinSequence,
        prior_distances: Optional[np.ndarray] = None,
        ctx: ActivationContext = NULL_CONTEXT,
    ) -> EmbeddingOutput:
        """Embed ``sequence`` (with an optional distance prior) into trunk inputs."""
        del ctx  # input embedding activations are outside the AAQ target dataflow
        config = self.config
        length = len(sequence)
        tokens = sequence.encoded()
        seq_rep = self.residue_embedding[tokens] + self.position_scale * sinusoidal_positions(
            length, config.seq_dim, config.dtype
        )

        rel = relative_position_encoding(length, self.relative_bins, config.dtype)
        pair = self.linear_relpos(rel)

        if prior_distances is not None:
            pair = pair + self._encode_prior(prior_distances)
        return EmbeddingOutput(sequence_representation=seq_rep, pair_representation=pair)

    def _encode_prior(self, distances: np.ndarray) -> np.ndarray:
        """Write the distance prior into the reserved distogram channels.

        Channel 0 carries the normalized distance directly (this is the channel
        the structure module reads back); the remaining reserved channels carry
        a soft radial-basis encoding, mimicking the distogram patterns the
        paper observes in real PPM activations (Fig. 5).
        """
        config = self.config
        length = distances.shape[0]
        channels = np.zeros((length, length, config.pair_dim), dtype=config.dtype)
        normalized = distances / DISTANCE_SCALE
        gain = float(self.prior_gain[0])
        channels[:, :, 0] = gain * normalized
        n_rbf = config.distogram_channels - 1
        if n_rbf > 0:
            centers = np.linspace(0.0, 1.0, n_rbf)
            widths = max(centers[1] - centers[0], 1e-3) if n_rbf > 1 else 0.25
            rbf = np.exp(-((normalized[..., None] - centers) ** 2) / (2 * widths ** 2))
            channels[:, :, 1 : 1 + n_rbf] = gain * 0.25 * rbf
        return channels

    __call__ = forward


def decode_prior_distances(pair: np.ndarray, prior_gain: float) -> np.ndarray:
    """Recover the distance matrix encoded by :meth:`InputEmbedding._encode_prior`."""
    normalized = pair[:, :, 0] / prior_gain
    distances = np.clip(normalized, 0.0, None) * DISTANCE_SCALE
    symmetric = 0.5 * (distances + distances.T)
    np.fill_diagonal(symmetric, 0.0)
    return symmetric
