"""Token-wise Adaptive Activation Quantization (AAQ) — the paper's contribution.

AAQ combines the token-wise quantizer of :mod:`repro.core.token_quant` with a
per-group adaptation of precision and outlier handling (Section 4.2):

* Group A (pre-LayerNorm, residual stream): INT8 inliers + 4 outliers,
* Group B (post-LayerNorm):                 INT4 inliers + 4 outliers,
* Group C (remaining activations):          INT4 inliers, no outlier handling,

with weights left unquantized at 16-bit fixed point.  These defaults are the
optimum found by the paper's design-space exploration (Fig. 11); the
exploration itself is reproduced in :mod:`repro.analysis.dse`.

:class:`AAQQuantizer` applies a configuration through
:func:`~repro.core.token_quant.fake_quantize_tokens`, and
:func:`repro.core.schemes.lightnobel_aaq` wraps it as the scheme every model
run uses (the Fig. 11 sweep and Fig. 13 included).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Mapping, Optional

import numpy as np

from .._digest import config_digest as _config_digest
from ..ppm.activation_tap import GROUP_A, GROUP_B, GROUP_C, GROUPS, TransformingContext
from .token_quant import TokenQuantConfig, fake_quantize_tokens

#: Weight precision of LightNobel (16-bit fixed point, not quantized).
WEIGHT_BITS = 16


@dataclass(frozen=True)
class AAQConfig:
    """Per-group token-wise quantization configuration."""

    group_configs: Mapping[str, TokenQuantConfig] = field(
        default_factory=lambda: {
            GROUP_A: TokenQuantConfig(inlier_bits=8, outlier_count=4),
            GROUP_B: TokenQuantConfig(inlier_bits=4, outlier_count=4),
            GROUP_C: TokenQuantConfig(inlier_bits=4, outlier_count=0),
        }
    )
    weight_bits: int = WEIGHT_BITS

    def __post_init__(self) -> None:
        missing = [g for g in GROUPS if g not in self.group_configs]
        if missing:
            raise ValueError(f"AAQConfig is missing groups: {missing}")

    def __hash__(self) -> int:
        # The generated frozen-dataclass hash trips over the mapping field;
        # hash the key-sorted items instead, consistent with field equality
        # (equal mappings sort to equal item tuples).
        return hash((tuple(sorted(self.group_configs.items())), self.weight_bits))

    @classmethod
    def paper_optimal(cls) -> "AAQConfig":
        """The configuration selected by the paper's DSE (Fig. 11)."""
        return cls()

    @classmethod
    def uniform(cls, inlier_bits: int, outlier_count: int) -> "AAQConfig":
        """A non-adaptive configuration applying one scheme to every group.

        Used by the ablation study comparing adaptive against single-scheme
        token-wise quantization.
        """
        config = TokenQuantConfig(inlier_bits=inlier_bits, outlier_count=outlier_count)
        return cls(group_configs={g: config for g in GROUPS})

    def replace_group(self, group: str, config: TokenQuantConfig) -> "AAQConfig":
        """Copy of this configuration with one group's scheme replaced."""
        if group not in GROUPS:
            raise ValueError(f"unknown group {group!r}")
        updated = dict(self.group_configs)
        updated[group] = config
        return replace(self, group_configs=updated)

    def config_for(self, group: str) -> TokenQuantConfig:
        return self.group_configs[group]

    def config_digest(self) -> str:
        """Canonical hash of the per-group schemes (for digest-keyed caches)."""
        return _config_digest(self)

    # -------------------------------------------------------------- accounting
    def bits_per_token(self, hidden_dim: int, group: str) -> float:
        """Packed size (bits) of one quantized token of the given group."""
        return self.config_for(group).bits_per_token(hidden_dim)

    def average_bits_per_value(self, hidden_dim: int, group_weights: Optional[Dict[str, float]] = None) -> float:
        """Average storage bits per activation value across groups.

        ``group_weights`` gives the fraction of activation volume in each
        group; the default weighting reflects the pair dataflow where most
        activation volume is Group C (post-linear intermediates), a smaller
        share is Group B and the residual stream is Group A.
        """
        weights = group_weights or {GROUP_A: 0.25, GROUP_B: 0.25, GROUP_C: 0.5}
        total_weight = sum(weights.values())
        bits = 0.0
        for group, weight in weights.items():
            bits += weight * self.bits_per_token(hidden_dim, group) / hidden_dim
        return bits / total_weight


class AAQQuantizer:
    """Applies AAQ fake-quantization to activations, by group."""

    def __init__(self, config: Optional[AAQConfig] = None) -> None:
        self.config = config or AAQConfig.paper_optimal()

    def quantize(self, group: str, values: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Fake-quantize an activation tensor belonging to ``group`` (into ``out``, if given)."""
        return fake_quantize_tokens(values, self.config.config_for(group), out=out)

    def transform_for(self, group: str) -> Callable[..., np.ndarray]:
        """A callable ``f(values, out=None)`` suitable for :class:`TransformingContext`."""
        group_config = self.config.config_for(group)
        return lambda values, out=None: fake_quantize_tokens(values, group_config, out=out)

    def make_context(self, recorder=None) -> TransformingContext:
        """Build an activation context injecting AAQ at every tap point."""
        return TransformingContext(
            transforms={group: self.transform_for(group) for group in GROUPS},
            recorder=recorder,
        )
