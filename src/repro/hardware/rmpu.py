"""Reconfigurable Matrix Processing Unit: throughput model (Section 5.2)."""

from __future__ import annotations

from typing import Optional

from ..core.token_quant import TokenQuantConfig
from .config import LightNobelConfig
from .pe import PECluster


class RMPU:
    """Throughput model of one (or a pool of) RMPU(s)."""

    def __init__(self, config: Optional[LightNobelConfig] = None) -> None:
        self.config = config or LightNobelConfig.paper()
        self.cluster = PECluster()

    # ----------------------------------------------------------------- queries
    def units_per_cycle(self, num_rmpus: Optional[int] = None) -> float:
        """4-bit multiplier units available per cycle across ``num_rmpus``."""
        rmpus = self.config.num_rmpus if num_rmpus is None else num_rmpus
        return float(self.config.multiplier_units_per_rmpu * rmpus)

    def utilization_for(self, quant: TokenQuantConfig, hidden_dim: int, weight_bits: float = 16) -> float:
        """Engine utilization after DAL lane rounding for one token shape."""
        _, utilization = self.cluster.lanes_required(hidden_dim, quant, weight_bits)
        return utilization

    def config_hidden_dim(self) -> int:
        """Hidden dimension assumed for token-shaped dot products (paper: 128)."""
        return 128
