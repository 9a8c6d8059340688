"""LightNobel accelerator simulator: RMPU, VVPU, memory, latency, area/power."""

from .accelerator import LightNobelAccelerator
from .area_power import AreaPowerModel, ComponentCost, GPU_ENVELOPES, efficiency_versus_gpu
from .config import LightNobelConfig
from .interconnect import ChipLinkSpec, CrossbarNetwork, ScratchpadSpec, TokenAligner, default_scratchpads
from .memory import HBMModel, MemoryTransaction
from .pe import (
    DynamicAccumulationLogic,
    PECluster,
    PELane,
    ProcessingElement,
    SUPPORTED_LANE_GROUPS,
    chunks_for_bits,
    units_per_mac,
)
from .rmpu import RMPU
from .validation import CrossValidationResult, cross_validate, rtl_reference_seconds
from .vvpu import VVPU, VVPUTimings, bitonic_stage_count, bitonic_topk

__all__ = [
    "AreaPowerModel",
    "ComponentCost",
    "CrossValidationResult",
    "ChipLinkSpec",
    "CrossbarNetwork",
    "DynamicAccumulationLogic",
    "GPU_ENVELOPES",
    "HBMModel",
    "LightNobelAccelerator",
    "LightNobelConfig",
    "MemoryTransaction",
    "PECluster",
    "PELane",
    "ProcessingElement",
    "RMPU",
    "SUPPORTED_LANE_GROUPS",
    "ScratchpadSpec",
    "TokenAligner",
    "VVPU",
    "VVPUTimings",
    "bitonic_stage_count",
    "bitonic_topk",
    "chunks_for_bits",
    "cross_validate",
    "default_scratchpads",
    "efficiency_versus_gpu",
    "rtl_reference_seconds",
    "units_per_mac",
]
