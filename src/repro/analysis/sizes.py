"""Activation/weight size, peak memory, footprint and compute-cost models.

Covers Fig. 4 (activation vs weight size), Table 1 (per-scheme memory
footprint), Fig. 15 (peak memory requirement), and Fig. 16 (computational cost
and memory footprint versus sequence length).  Weights, resident sets, fits
and stored bytes per element are read off the one memory model,
:mod:`repro.ppm.memory`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

import numpy as np

from ..core.aaq import AAQConfig
from ..core.schemes import QuantizationScheme, all_schemes
from ..hardware.config import LightNobelConfig
from ..ppm import memory
from ..ppm.activation_tap import GROUP_C
from ..ppm.config import PPMConfig
from ..ppm.memory import GB, GPU_CHUNKED, GPU_DENSE, LIGHTNOBEL_AAQ
from ..ppm.op_table import OperatorTable, get_op_table
from ..ppm.workload import ENGINE_MATMUL, PHASE_PAIR, PHASE_SEQUENCE


# --------------------------------------------------------------------- Fig. 4
@dataclass(frozen=True)
class SizePoint:
    """One point of the Fig. 4 curve."""

    sequence_length: int
    weight_gb: float
    activation_gb: float

    @property
    def ratio(self) -> float:
        return self.activation_gb / self.weight_gb if self.weight_gb else 0.0


def weight_size_gb(config: Optional[PPMConfig] = None, include_language_model: bool = True) -> float:
    """Total PPM weight size in GB at FP16 (Fig. 4 horizontal line)."""
    config = config or PPMConfig.paper()
    return memory.weight_bytes(config, include_language_model) / GB


def peak_activation_size_gb(sequence_length: int, config: Optional[PPMConfig] = None) -> float:
    """Peak activation size of the unquantized PPM (Fig. 4 curve)."""
    config = config or PPMConfig.paper()
    return memory.activation_bytes(GPU_DENSE, config, sequence_length) / GB


def activation_weight_curve(
    sequence_lengths: Iterable[int], config: Optional[PPMConfig] = None
) -> List[SizePoint]:
    """Fig. 4: weight size and peak activation size across sequence lengths."""
    config = config or PPMConfig.paper()
    weights = weight_size_gb(config)
    return [
        SizePoint(n, weights, peak_activation_size_gb(n, config)) for n in sequence_lengths
    ]


# -------------------------------------------------------------------- Table 1
@dataclass(frozen=True)
class FootprintRow:
    """One row of Table 1."""

    scheme: str
    activation_grouping: str
    activation_precision: str
    weight_grouping: str
    weight_precision: str
    activation_gb: float
    weight_gb: float

    @property
    def total_gb(self) -> float:
        return self.activation_gb + self.weight_gb


def total_activation_traffic_gb(sequence_length: int, config: Optional[PPMConfig] = None) -> float:
    """Activation memory footprint of the Pair-dataflow (FP16 GB, Table 1).

    Table 1 reports the activation footprint of one folding block's worth of
    live tensors (activations are reused across the 48 blocks, and the
    attention score matrix is excluded because all compared schemes run with
    low-memory attention at this sequence length).
    """
    config = config or PPMConfig.paper()
    table = get_op_table(config.with_blocks(1), sequence_length)
    mask = (table.phase_mask(PHASE_PAIR) | table.phase_mask(PHASE_SEQUENCE)) & ~table.fusible
    elements = float(np.sum(table.output_elements[mask]))
    return elements * config.activation_bytes / GB


def footprint_table(
    sequence_length: int = 3364,
    config: Optional[PPMConfig] = None,
    schemes: Optional[Dict[str, QuantizationScheme]] = None,
) -> List[FootprintRow]:
    """Table 1: activation/weight/total memory footprint per scheme."""
    config = config or PPMConfig.paper()
    schemes = schemes or all_schemes()
    baseline_activation = total_activation_traffic_gb(sequence_length, config)
    baseline_weight = weight_size_gb(config)
    rows: List[FootprintRow] = []
    for name, scheme in schemes.items():
        activation = baseline_activation * scheme.effective_activation_bytes() / config.activation_bytes
        weight = baseline_weight * scheme.effective_weight_bytes() / config.weight_bytes
        desc = scheme.description
        rows.append(
            FootprintRow(
                scheme=name,
                activation_grouping=desc.activation_grouping,
                activation_precision=desc.activation_precision,
                weight_grouping=desc.weight_grouping,
                weight_precision=desc.weight_precision,
                activation_gb=activation,
                weight_gb=weight,
            )
        )
    return rows


# -------------------------------------------------------------------- Fig. 15
def lightnobel_peak_memory_gb(
    sequence_length: int,
    config: Optional[PPMConfig] = None,
    aaq: Optional[AAQConfig] = None,
) -> float:
    """Peak memory of LightNobel: quantized pair copies, no score matrix."""
    config = config or PPMConfig.paper()
    aaq = aaq or AAQConfig.paper_optimal()
    return memory.peak_bytes(LIGHTNOBEL_AAQ, config, sequence_length, aaq) / GB


def peak_memory_comparison(
    sequence_length: int, config: Optional[PPMConfig] = None
) -> Dict[str, float]:
    """Fig. 15: peak memory (GB) of baseline (±chunk) and LightNobel."""
    config = config or PPMConfig.paper()
    return {
        "baseline_no_chunk": memory.peak_bytes(GPU_DENSE, config, sequence_length) / GB,
        "baseline_chunk": memory.peak_bytes(GPU_CHUNKED, config, sequence_length) / GB,
        "lightnobel": lightnobel_peak_memory_gb(sequence_length, config),
    }


def max_supported_length(
    memory_budget_gb: Optional[float] = None, config: Optional[PPMConfig] = None
) -> int:
    """Longest sequence LightNobel fits in ``memory_budget_gb``, by default its HBM (Section 8.3)."""
    config = config or PPMConfig.paper()
    budget = LightNobelConfig.paper().hbm_capacity_gb if memory_budget_gb is None else memory_budget_gb
    return memory.max_length(LIGHTNOBEL_AAQ, config, budget, AAQConfig.paper_optimal())


# -------------------------------------------------------------------- Fig. 16
def int8_equivalent_cost(workload, aaq: Optional[AAQConfig]) -> float:
    """Computational cost in INT8-equivalent operations (Fig. 16a metric).

    Every MAC is weighted by the product of its operand precisions relative to
    INT8 (multiplication cost scales quadratically with precision); vector
    operations count at 16-bit cost.  ``aaq=None`` is the FP16 baseline.
    Accepts either a :class:`Workload` or an :class:`OperatorTable`.
    """
    table = workload if isinstance(workload, OperatorTable) else OperatorTable.from_workload(workload)
    hidden = table.config.pair_dim
    act_bits = np.full(len(table.groups), 16.0)
    if aaq is not None:  # the value fields of each group's stored token
        for code, group in enumerate(table.groups):
            layout = memory.token_layout(aaq.config_for(group or GROUP_C), hidden)
            act_bits[code] = (layout.inlier_bytes + layout.outlier_bytes) * 8 / hidden
    matmul = table.engine_mask(ENGINE_MATMUL) & (table.macs > 0)
    mac_cost = table.macs * (act_bits[table.group_codes] / 8.0) * (16.0 / 8.0)
    vector_cost = table.vector_ops * (16.0 / 8.0)
    return float(np.sum(np.where(matmul, mac_cost, vector_cost)))


def computational_cost_comparison(
    sequence_length: int, config: Optional[PPMConfig] = None
) -> Dict[str, float]:
    """Fig. 16a: INT8-equivalent computational cost, baseline vs LightNobel."""
    config = config or PPMConfig.paper()
    table = get_op_table(config, sequence_length)
    return {
        "baseline": int8_equivalent_cost(table, None),
        "lightnobel": int8_equivalent_cost(table, AAQConfig.paper_optimal()),
    }


def memory_footprint_comparison(
    sequence_length: int, config: Optional[PPMConfig] = None
) -> Dict[str, float]:
    """Fig. 16b: accumulated activation traffic (GB), baseline vs LightNobel."""
    config = config or PPMConfig.paper()
    table = get_op_table(config, sequence_length)
    aaq = AAQConfig.paper_optimal()
    # The baseline runs with low-memory attention at these lengths and
    # LightNobel's token-wise MHA keeps the score matrix on chip, so neither
    # side writes the fusible intermediates to memory.
    mask = (table.phase_mask(PHASE_PAIR) | table.phase_mask(PHASE_SEQUENCE)) & ~table.fusible
    bytes_per_element = np.array(
        [memory.bytes_per_element(config, aaq, group) for group in table.groups]
    )
    elements = np.where(mask, table.output_elements, 0.0)
    baseline = float(np.sum(elements * config.activation_bytes))
    lightnobel = float(np.sum(elements * bytes_per_element[table.group_codes]))
    return {"baseline": baseline / GB, "lightnobel": lightnobel / GB}
