"""Reconfigurable Matrix Processing Unit: throughput model (Section 5.2)."""

from __future__ import annotations

from typing import Optional

from ..core.aaq import AAQConfig
from ..core.token_quant import TokenQuantConfig
from ..ppm.activation_tap import GROUP_C
from ..ppm.workload import Operator
from .config import LightNobelConfig
from .pe import PECluster, units_per_mac


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

    # ------------------------------------------------------------------ timing
    def operator_cycles(
        self,
        op: Operator,
        aaq: Optional[AAQConfig] = None,
        num_rmpus: Optional[int] = None,
        weight_bits: float = 16.0,
    ) -> float:
        """Compute cycles for one matmul operator under a quantization config.

        The cost is the total number of 4-bit multiplier units the operator
        needs (bit-decomposed MACs) divided by the units available per cycle,
        corrected by the DAL utilization for the operator's activation group.
        Unquantized execution (``aaq is None``) uses 16-bit activations.
        """
        if op.macs <= 0:
            return 0.0
        hidden_dim = self.config_hidden_dim()
        if aaq is None:
            quant = TokenQuantConfig(inlier_bits=16, outlier_count=0)
        else:
            group = op.output_group or GROUP_C
            quant = aaq.config_for(group)

        outliers = min(quant.outlier_count, hidden_dim)
        inlier_fraction = (hidden_dim - outliers) / hidden_dim
        average_units = (
            inlier_fraction * units_per_mac(quant.inlier_bits, weight_bits)
            + (1 - inlier_fraction) * units_per_mac(quant.outlier_bits, weight_bits)
        )
        total_units = op.macs * average_units
        utilization = self.utilization_for(quant, hidden_dim, weight_bits)
        units_per_cycle = self.units_per_cycle(num_rmpus) * utilization
        compute_cycles = total_units / units_per_cycle
        return compute_cycles + self.config.pipeline_fill_cycles

    def config_hidden_dim(self) -> int:
        """Hidden dimension assumed for token-shaped dot products (paper: 128)."""
        return 128
