"""HBM2E memory-system model (the role Ramulator plays in the paper)."""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil
from typing import Optional

from .config import LightNobelConfig


@dataclass(frozen=True)
class MemoryTransaction:
    """One block transfer: requested payload and the bus bytes it occupies."""

    payload_bytes: float
    bus_bytes: float
    cycles: float

    @property
    def efficiency(self) -> float:
        return self.payload_bytes / self.bus_bytes if self.bus_bytes else 0.0


class HBMModel:
    """Bandwidth/burst-alignment model of the 5-stack HBM2E system."""

    def __init__(self, config: Optional[LightNobelConfig] = None) -> None:
        self.config = config or LightNobelConfig.paper()

    @property
    def bytes_per_cycle(self) -> float:
        return self.config.bytes_per_cycle

    def transaction(self, payload_bytes: float) -> MemoryTransaction:
        """Burst-align a payload and report the cycles it occupies on the bus."""
        if payload_bytes < 0:
            raise ValueError("payload_bytes must be non-negative")
        if payload_bytes == 0:
            return MemoryTransaction(0.0, 0.0, 0.0)
        burst = self.config.burst_bytes
        bus_bytes = ceil(payload_bytes / burst) * burst
        return MemoryTransaction(
            payload_bytes=payload_bytes,
            bus_bytes=bus_bytes,
            cycles=bus_bytes / self.bytes_per_cycle,
        )

    def transfer_cycles(self, payload_bytes: float) -> float:
        """Cycles needed to move ``payload_bytes`` through the HBM interface."""
        return self.transaction(payload_bytes).cycles
