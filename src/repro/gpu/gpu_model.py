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
  resident set (score matrices dominate without chunking); peak bytes are
  read from that module directly.

One :class:`GPUModel` is one GPU run with or without chunking, fixed at
construction, and is itself a :class:`~repro.sim.backend.LatencyBackend`: it
has a ``name`` (``"h100"``, ``"a100-chunk"`` ...), a ``max_length`` and a
``config_digest``, and it prices straight into
:class:`~repro.report.SimReport` (the kernel count in ``details``).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from .._memo import memoized_digest
from ..ppm import memory
from ..ppm.config import PPMConfig
from ..ppm.labels import ENGINE_MATMUL, PHASE_PAIR
from ..ppm.memory import CHUNK_ROWS, FP16_BYTES, GPU_CHUNKED, GPU_DENSE
from ..ppm.op_table import OperatorTable, StackedOperatorTable, get_stacked_table
from ..report import SimReport
from .gpu_config import GPUSpec, get_gpu

#: Tensor-core efficiency multiplier when kernels are chunked into small tiles.
CHUNK_COMPUTE_PENALTY = 0.55

#: Extra activation traffic factor from re-reading chunked intermediates.
CHUNK_TRAFFIC_FACTOR = 1.4


class GPUModel:
    """Roofline + kernel-overhead model of ESMFold inference on one GPU; a latency backend."""

    def __init__(
        self,
        gpu: GPUSpec | str = "H100",
        ppm_config: Optional[PPMConfig] = None,
        chunked: bool = False,
        name: Optional[str] = None,
    ) -> None:
        self.gpu = get_gpu(gpu) if isinstance(gpu, str) else gpu
        self.ppm_config = ppm_config or PPMConfig.paper()
        self.chunked = chunked
        self.name = name or self.gpu.name.lower() + ("-chunk" if chunked else "")

    @property
    def max_length(self) -> int:
        """Longest sequence the GPU's memory holds (0 if none does)."""
        row = GPU_CHUNKED if self.chunked else GPU_DENSE
        return memory.max_length(row, self.ppm_config, self.gpu.memory_gb)

    def config_digest(self) -> str:
        """Stable hash of everything that affects this model's numbers."""
        # The kind string predates the engines pricing reports themselves;
        # it stays because tests/test_backends.py pins the digests (and the
        # derived backend names built from them).
        return memoized_digest(
            "GPUBackend", {"gpu": self.gpu, "ppm": self.ppm_config, "chunked": self.chunked}
        )

    # ------------------------------------------------------------------ timing
    def _operator_columns(self, stack) -> Tuple[np.ndarray, np.ndarray]:
        """(seconds, kernels) arrays over the stack's representative rows.

        The roofline runs over ``stack.representatives()`` only.  Purely
        elementwise, and a representative's inputs are its rows' inputs, so
        value ``i`` is what each row it stands for would get, in any mix.
        """
        table = stack.representatives()
        eff = self.gpu.effective_flops
        is_matmul = table.engine_mask(ENGINE_MATMUL)
        chunk_applies = table.phase_mask(PHASE_PAIR) & self.chunked

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

    def simulate_stack(self, stack: StackedOperatorTable) -> List[SimReport]:
        """One roofline pass over a whole length mix; one report per segment.

        Elementwise arithmetic runs once over the stack's representative
        rows, and :meth:`StackedOperatorTable.segment_sums` reduces seconds
        and kernels per segment (totals, phases and subphases), each
        representative weighted by the rows it stands for.  No full-row
        column is read, and a length's report is the same in any mix, a
        one-segment stack included.  A length is out of memory when it
        exceeds :attr:`max_length`.
        """
        totals, (phase_dicts, subphase_dicts) = stack.segment_sums(
            np.vstack(self._operator_columns(stack)), "phase", "subphase"
        )
        max_length = self.max_length
        return [
            SimReport(
                backend=self.name,
                sequence_length=n,
                total_seconds=total_seconds,
                phase_seconds=phases,
                subphase_seconds={sub: s for sub, s in subphases.items() if sub},
                out_of_memory=n > max_length,
                details={"kernel_count": kernel_count},
            )
            for n, total_seconds, kernel_count, phases, subphases in zip(
                stack.lengths, *totals.tolist(), phase_dicts, subphase_dicts
            )
        ]

    # Kept only because perfbench wraps it by name; nothing in src/ calls it.
    def simulate_stack_totals(self, stack: StackedOperatorTable) -> List[Tuple[float, bool]]:
        """Per-segment ``(total_seconds, out_of_memory)`` of :meth:`simulate_stack`."""
        return [(r.total_seconds, r.out_of_memory) for r in self.simulate_stack(stack)]

    def simulate_table(self, table: OperatorTable) -> SimReport:
        """Price one operator table as a one-segment stack."""
        return self.simulate_stack(StackedOperatorTable.from_tables([table]))[0]

    def simulate(self, sequence_length: int) -> SimReport:
        """Simulate one inference at ``sequence_length`` residues."""
        return self.simulate_stack(get_stacked_table(self.ppm_config, [sequence_length]))[0]
