"""Token Aligner, scratchpads and crossbar networks (Section 5.1, Fig. 8)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..core.memory_layout import BlockedLayout
from .config import LightNobelConfig


@dataclass(frozen=True)
class ScratchpadSpec:
    """A simple capacity/bandwidth model of one on-chip scratchpad."""

    name: str
    capacity_kb: int
    line_bytes: int = 64

    @property
    def capacity_bytes(self) -> int:
        return self.capacity_kb * 1024

    def fits(self, bytes_needed: float) -> bool:
        return bytes_needed <= self.capacity_bytes


class TokenAligner:
    """Decodes packed token blocks into token-wise scratchpad lines (Section 5.1)."""

    def __init__(self, config: Optional[LightNobelConfig] = None) -> None:
        self.config = config or LightNobelConfig.paper()

    def realign_cycles(self, layout: BlockedLayout) -> float:
        """One block is decoded per cycle; double buffering hides memory latency."""
        return float(len(layout.blocks))

    def scratchpad_lines(self, layout: BlockedLayout) -> int:
        """Scratchpad lines after realignment (one line per token)."""
        return sum(len(block.token_indices) for block in layout.blocks)


class CrossbarNetwork:
    """Swizzle-switch crossbar: port-contention model for GCN/LCN transfers."""

    def __init__(self, ports: int, port_bytes_per_cycle: int = 32) -> None:
        if ports <= 0 or port_bytes_per_cycle <= 0:
            raise ValueError("ports and port width must be positive")
        self.ports = ports
        self.port_bytes_per_cycle = port_bytes_per_cycle

    def transfer_cycles(self, total_bytes: float, active_ports: Optional[int] = None) -> float:
        """Cycles to move ``total_bytes`` spread across ``active_ports`` ports."""
        ports = self.ports if active_ports is None else min(active_ports, self.ports)
        if ports <= 0:
            raise ValueError("active_ports must be positive")
        per_port = total_bytes / ports
        return per_port / self.port_bytes_per_cycle


@dataclass(frozen=True)
class ChipLinkSpec:
    """Chip-to-chip interconnect of a multi-chip package or node (frozen, picklable).

    Reuses the :class:`CrossbarNetwork` contention model at package scale: a
    fleet node exposes one crossbar port per chip, each moving
    ``port_bytes_per_cycle`` at ``clock_hz``.  ``hop_latency_seconds`` is the
    fixed per-synchronization latency (link + protocol), paid once per
    collective regardless of payload.  ``syncs_per_block`` is how many
    all-gathers of the pair representation one folding block needs when its
    rows/columns are sharded across chips (row-wise and column-wise attention
    each resynchronize once).
    """

    port_bytes_per_cycle: int = 64
    clock_hz: float = 1.0e9
    hop_latency_seconds: float = 2.0e-6
    syncs_per_block: int = 2

    def network(self, chips: int) -> CrossbarNetwork:
        """The package crossbar for a ``chips``-wide node."""
        return CrossbarNetwork(ports=chips, port_bytes_per_cycle=self.port_bytes_per_cycle)

    def allgather_seconds(self, total_bytes: float, chips: int) -> float:
        """Time to all-gather ``total_bytes`` sharded across ``chips`` chips.

        Each chip contributes a ``1/chips`` shard and must receive the other
        ``chips - 1`` shards through its own port, all ports active in
        parallel — aggregate traffic ``total_bytes * (chips - 1)`` spread
        over ``chips`` ports, so per-chip receive time *grows* toward
        ``total_bytes / port_bandwidth`` as the fan-out widens.  Every
        collective pays the fixed hop latency once.
        """
        if chips <= 1:
            return 0.0
        aggregate = total_bytes * (chips - 1)
        cycles = self.network(chips).transfer_cycles(aggregate)
        return cycles / self.clock_hz + self.hop_latency_seconds


def default_scratchpads(config: Optional[LightNobelConfig] = None) -> dict:
    """The four scratchpads of Fig. 8 with the paper's capacities."""
    config = config or LightNobelConfig.paper()
    return {
        "token_0": ScratchpadSpec("token_0", config.token_scratchpad_kb),
        "token_1": ScratchpadSpec("token_1", config.token_scratchpad_kb),
        "weight": ScratchpadSpec("weight", config.weight_scratchpad_kb),
        "output": ScratchpadSpec("output", config.output_scratchpad_kb),
    }
