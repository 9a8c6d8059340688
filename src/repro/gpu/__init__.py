"""Analytical GPU baseline models (A100 / H100) for the PPM workload."""

from .end_to_end import EndToEndComparison, EndToEndResult, SYSTEM_PROFILES, SystemProfile
from .gpu_config import A100, GPUS, GPUSpec, H100, get_gpu
from .gpu_model import CHUNK_ROWS, GPUModel

__all__ = [
    "A100",
    "CHUNK_ROWS",
    "EndToEndComparison",
    "EndToEndResult",
    "GPUModel",
    "GPUS",
    "GPUSpec",
    "H100",
    "SYSTEM_PROFILES",
    "SystemProfile",
    "get_gpu",
]
