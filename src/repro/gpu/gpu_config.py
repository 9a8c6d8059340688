"""GPU hardware specifications used by the analytical baseline model."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from .._digest import config_digest as _config_digest


@dataclass(frozen=True)
class GPUSpec:
    """Envelope of one baseline GPU (datasheet values).

    ``compute_efficiency`` and ``bandwidth_efficiency`` are the achieved
    fractions of peak on the PPM's small-hidden-dimension kernels; the paper
    observes that the workload is memory-bound with low tensor-core
    utilization, which is why H100's 5x higher INT8 throughput barely helps.
    """

    name: str
    fp16_tflops: float
    int8_tops: float
    hbm_bandwidth_gbps: float
    memory_gb: float
    power_w: float
    area_mm2: float
    kernel_launch_us: float = 8.0
    compute_efficiency: float = 0.35
    bandwidth_efficiency: float = 0.75

    @property
    def effective_flops(self) -> float:
        return self.fp16_tflops * 1e12 * self.compute_efficiency

    @property
    def effective_bandwidth(self) -> float:
        return self.hbm_bandwidth_gbps * 1e9 * self.bandwidth_efficiency

    def config_digest(self) -> str:
        """Canonical hash of every field, shared by the memo and LRU keys."""
        return _config_digest(self)


A100 = GPUSpec(
    name="A100",
    fp16_tflops=312.0,
    int8_tops=624.0,
    hbm_bandwidth_gbps=2039.0,
    memory_gb=80.0,
    power_w=300.0,
    area_mm2=826.0,
    kernel_launch_us=3.0,
    compute_efficiency=0.32,
)

H100 = GPUSpec(
    name="H100",
    fp16_tflops=756.0,
    int8_tops=3026.0,
    hbm_bandwidth_gbps=2000.0,
    memory_gb=80.0,
    power_w=350.0,
    area_mm2=814.0,
    kernel_launch_us=2.5,
    compute_efficiency=0.35,
)

GPUS: Dict[str, GPUSpec] = {"A100": A100, "H100": H100}


def get_gpu(name: str) -> GPUSpec:
    try:
        return GPUS[name]
    except KeyError:
        raise ValueError(f"unknown GPU {name!r}; expected one of {sorted(GPUS)}") from None
