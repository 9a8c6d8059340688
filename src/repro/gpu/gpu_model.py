"""Analytical A100/H100 performance and memory model for the PPM baseline.

The paper's GPU measurements (Nsight Systems on real hardware) show two
regimes: without chunking, the Pair-Representation kernels are memory-bound
and peak memory explodes with the attention score matrix; with chunking
(OpenFold-style low-memory attention, the ``Chunk4`` option), peak memory
drops but kernel-launch overhead and reduced tensor-core utilization inflate
latency.  This model captures both regimes per operator of the shared
:mod:`repro.ppm.workload` graph:

* per-op latency = max(compute time, memory time) + kernel launches,
* chunked execution splits pair-phase kernels along the first sequence axis,
  multiplying kernel count, adding intermediate-tensor re-reads and lowering
  tensor-core efficiency,
* peak memory is :mod:`repro.ppm.memory`'s ``GPU_DENSE``/``GPU_CHUNKED``
  resident set (score matrices dominate without chunking).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..ppm import memory
from ..ppm.config import PPMConfig
from ..ppm.labels import ENGINE_MATMUL, PHASE_PAIR, PHASE_SEQUENCE
from ..ppm.memory import CHUNK_ROWS, FP16_BYTES, GPU_CHUNKED, GPU_DENSE
from ..ppm.op_table import OperatorTable, StackedOperatorTable, get_stacked_table
from .gpu_config import GPUSpec, get_gpu

#: Tensor-core efficiency multiplier when kernels are chunked into small tiles.
CHUNK_COMPUTE_PENALTY = 0.55

#: Extra activation traffic factor from re-reading chunked intermediates.
CHUNK_TRAFFIC_FACTOR = 1.4


def _resident_set(chunked: bool) -> memory.ResidentSet:
    """The memory model's row for the GPU baseline with or without chunking."""
    return GPU_CHUNKED if chunked else GPU_DENSE


@dataclass
class GPULatencyReport:
    """Latency breakdown of one PPM inference on a GPU."""

    gpu: str
    sequence_length: int
    chunked: bool
    total_seconds: float
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    subphase_seconds: Dict[str, float] = field(default_factory=dict)
    kernel_count: float = 0.0
    out_of_memory: bool = False

    def folding_block_seconds(self) -> float:
        return self.phase_seconds.get(PHASE_PAIR, 0.0) + self.phase_seconds.get(PHASE_SEQUENCE, 0.0)


class GPUModel:
    """Roofline + kernel-overhead model of ESMFold inference on one GPU."""

    def __init__(
        self,
        gpu: GPUSpec | str = "H100",
        ppm_config: Optional[PPMConfig] = None,
    ) -> None:
        self.gpu = get_gpu(gpu) if isinstance(gpu, str) else gpu
        self.ppm_config = ppm_config or PPMConfig.paper()

    # ------------------------------------------------------------------ timing
    def _operator_columns(self, stack, chunked: bool) -> Tuple[np.ndarray, np.ndarray]:
        """(seconds, kernels) arrays over the stack's representative rows.

        The roofline runs over ``stack.representatives()`` only.  Purely
        elementwise, and a representative's inputs are its rows' inputs, so
        value ``i`` is what each row it stands for would get, in any mix.
        """
        table = stack.representatives()
        eff = self.gpu.effective_flops
        is_matmul = table.engine_mask(ENGINE_MATMUL)
        chunk_applies = table.phase_mask(PHASE_PAIR) & chunked

        flops = table.flops
        matmul_eff = np.where(chunk_applies, eff * CHUNK_COMPUTE_PENALTY, eff)
        compute_time = np.where(is_matmul, flops / matmul_eff, flops / (eff * 0.1))

        traffic = (
            table.input_elements + table.output_elements
        ) * FP16_BYTES + table.weight_elements * FP16_BYTES
        traffic = np.where(chunk_applies, traffic * CHUNK_TRAFFIC_FACTOR, traffic)
        memory_time = traffic / self.gpu.effective_bandwidth

        tokens = np.maximum(1.0, table.output_elements / max(self.ppm_config.pair_dim, 1))
        kernels = np.where(chunk_applies, np.maximum(1.0, tokens ** 0.5 / CHUNK_ROWS), 1.0)
        seconds = np.maximum(compute_time, memory_time) + kernels * (
            self.gpu.kernel_launch_us * 1e-6
        )
        return seconds, kernels

    def simulate_stack(
        self, stack: StackedOperatorTable, chunked: bool = False
    ) -> List[GPULatencyReport]:
        """One roofline pass over a whole length mix; one report per segment.

        Elementwise arithmetic runs once over the stack's representative
        rows, and :meth:`StackedOperatorTable.segment_sums` reduces seconds
        and kernels per segment (totals, phases and subphases), each
        representative weighted by the rows it stands for.  No full-row
        column is read, and a length's report is the same in any mix, a
        one-segment stack included.
        """
        totals, (phase_dicts, subphase_dicts) = stack.segment_sums(
            np.vstack(self._operator_columns(stack, chunked)), "phase", "subphase"
        )
        limit = self.max_sequence_length(chunked)
        reports = []
        for table, total_seconds, kernel_count, phases, subphases in zip(
            stack.tables, *totals.tolist(), phase_dicts, subphase_dicts
        ):
            n = table.sequence_length
            reports.append(
                GPULatencyReport(
                    gpu=self.gpu.name,
                    sequence_length=n,
                    chunked=chunked,
                    total_seconds=total_seconds,
                    phase_seconds=phases,
                    subphase_seconds={sub: s for sub, s in subphases.items() if sub},
                    kernel_count=kernel_count,
                    out_of_memory=n > limit,
                )
            )
        return reports

    def simulate_stack_totals(
        self, stack: StackedOperatorTable, chunked: bool = False
    ) -> List[float]:
        """Per-segment ``total_seconds`` only — no report materialization.

        The totals come from the same :meth:`StackedOperatorTable.segment_sums`
        reduction :meth:`simulate_stack` uses, so each float is identical to
        the full-report path; memory feasibility is the caller's concern (see
        :meth:`max_sequence_length`).
        """
        seconds, _ = self._operator_columns(stack, chunked)
        return stack.segment_sums(seconds)[0][0].tolist()

    def simulate_table(self, table: OperatorTable, chunked: bool = False) -> GPULatencyReport:
        """Price one operator table as a one-segment stack."""
        return self.simulate_stack(StackedOperatorTable.from_tables([table]), chunked=chunked)[0]

    def simulate(self, sequence_length: int, chunked: bool = False) -> GPULatencyReport:
        """Simulate one inference at ``sequence_length`` residues."""
        return self.simulate_stack(
            get_stacked_table(self.ppm_config, [sequence_length]), chunked=chunked
        )[0]

    # ------------------------------------------------------------------ memory
    def peak_activation_bytes(self, sequence_length: int, chunked: bool = False) -> float:
        """Peak resident activation memory of the Pair-Representation dataflow."""
        return memory.activation_bytes(_resident_set(chunked), self.ppm_config, sequence_length)

    def peak_memory_bytes(self, sequence_length: int, chunked: bool = False) -> float:
        return memory.peak_bytes(_resident_set(chunked), self.ppm_config, sequence_length)

    def fits_in_memory(self, sequence_length: int, chunked: bool = False) -> bool:
        return sequence_length <= self.max_sequence_length(chunked)

    def max_sequence_length(self, chunked: bool = False) -> int:
        """Longest sequence that fits in GPU memory (0 if none does)."""
        return memory.max_length(_resident_set(chunked), self.ppm_config, self.gpu.memory_gb)
