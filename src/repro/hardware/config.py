"""LightNobel accelerator configuration (Section 5, Section 7.2)."""

from __future__ import annotations

from dataclasses import dataclass, replace

from .._digest import config_digest as _config_digest


@dataclass(frozen=True)
class LightNobelConfig:
    """Hardware parameters of the LightNobel accelerator.

    Defaults follow the paper's final design point: 32 RMPUs with 4 VVPUs per
    RMPU (128 VVPUs total), 1 GHz clock, 80 GB of HBM2E across 5 stacks with a
    2 TB/s aggregate bandwidth (matched to the A100/H100 baselines).
    """

    num_rmpus: int = 32
    vvpus_per_rmpu: int = 4
    clock_ghz: float = 1.0

    # RMPU microarchitecture (Fig. 9)
    pe_clusters_per_rmpu: int = 4
    pe_lanes_per_cluster: int = 20
    pes_per_lane: int = 8
    multipliers_per_pe: int = 16      # minimal 4-bit computation units
    chunk_bits: int = 4               # minimum precision chunk handled by the RDA

    # VVPU microarchitecture (Fig. 10)
    simd_lanes_per_vvpu: int = 128
    vvpu_operand_bits: int = 16

    # Memory system
    hbm_stacks: int = 5
    hbm_capacity_gb: float = 80.0
    hbm_bandwidth_gbps: float = 2000.0   # 2 TB/s, matching the GPU baselines
    #: Achieved fraction of peak bandwidth on token-granular block reads
    #: (row activation and channel imbalance overheads from the Ramulator-style
    #: memory simulation).
    hbm_efficiency: float = 0.6
    memory_channel_bytes: int = 64
    burst_bytes: int = 32

    # On-chip scratchpads (Table 2)
    token_scratchpad_kb: int = 128
    weight_scratchpad_kb: int = 64
    output_scratchpad_kb: int = 128

    # Pipeline bookkeeping
    pipeline_fill_cycles: int = 32
    #: Per-operator scheduling overhead (controller dispatch, scratchpad swap,
    #: crossbar reconfiguration) visible between pipeline stages.
    per_op_overhead_cycles: int = 1500

    def __post_init__(self) -> None:
        if self.num_rmpus <= 0 or self.vvpus_per_rmpu <= 0:
            raise ValueError("RMPU and VVPU counts must be positive")
        if self.clock_ghz <= 0 or self.hbm_bandwidth_gbps <= 0:
            raise ValueError("clock and bandwidth must be positive")

    @classmethod
    def paper(cls) -> "LightNobelConfig":
        """The design point evaluated in the paper (32 RMPUs, 4 VVPUs each)."""
        return cls()

    def with_rmpus(self, num_rmpus: int) -> "LightNobelConfig":
        return replace(self, num_rmpus=num_rmpus)

    def with_vvpus_per_rmpu(self, vvpus_per_rmpu: int) -> "LightNobelConfig":
        return replace(self, vvpus_per_rmpu=vvpus_per_rmpu)

    # ------------------------------------------------------------------ derived
    @property
    def num_vvpus(self) -> int:
        return self.num_rmpus * self.vvpus_per_rmpu

    @property
    def pes_per_rmpu(self) -> int:
        return self.pe_clusters_per_rmpu * self.pe_lanes_per_cluster * self.pes_per_lane

    @property
    def multiplier_units_per_rmpu(self) -> int:
        """4-bit multiplier units available per RMPU per cycle."""
        return self.pes_per_rmpu * self.multipliers_per_pe

    @property
    def total_multiplier_units(self) -> int:
        return self.multiplier_units_per_rmpu * self.num_rmpus

    @property
    def cycles_per_second(self) -> float:
        return self.clock_ghz * 1e9

    @property
    def bytes_per_cycle(self) -> float:
        """HBM bytes deliverable per clock cycle (after achieved efficiency)."""
        return self.hbm_bandwidth_gbps * 1e9 * self.hbm_efficiency / self.cycles_per_second

    def int8_tops(self) -> float:
        """Peak INT8-equivalent TOPS (2 ops per MAC, 8 units per INT8 MAC)."""
        macs_per_cycle = self.total_multiplier_units / 8.0
        return 2.0 * macs_per_cycle * self.cycles_per_second / 1e12

    def config_digest(self) -> str:
        """Canonical hash of every field, shared by the memo and LRU keys."""
        return _config_digest(self)
