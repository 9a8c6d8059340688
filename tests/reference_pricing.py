"""Per-operator scalar pricing: the independent oracle for the columnar engines.

The engines (:class:`~repro.hardware.LightNobelAccelerator` and
:class:`~repro.gpu.GPUModel`) price whole stacked operator tables with
vectorized column expressions.  The functions here price the same operator
graph one :class:`~repro.ppm.workload.Operator` at a time, composing the
per-engine rules (:func:`rmpu_operator_cycles`, :func:`vvpu_operator_cycles`,
:func:`vvpu_quantization_cycles`, ``HBMModel.transfer_cycles``) in plain
Python.  Parity tests and the columnar-vs-scalar perf guard compare
the engines against them; agreement is within float rounding (1e-9 relative),
not bitwise, because the loops accumulate in operator order.

:class:`OperatorLatency` is one operator's engine cycles.  The oracle builds
them operator by operator (:func:`simulate_operators`), and
:func:`operator_latencies` gathers the accelerator's per-representative
engine cycles of a table to the same per-operator form through its row map.
The workload oracles return the engines' own report type,
:class:`~repro.report.SimReport`, with the same ``details``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.aaq import AAQConfig
from repro.core.token_quant import TokenQuantConfig
from repro.gpu.gpu_model import (
    CHUNK_COMPUTE_PENALTY,
    CHUNK_ROWS,
    CHUNK_TRAFFIC_FACTOR,
    FP16_BYTES,
    GPUModel,
)
from repro.hardware import RMPU, VVPU, LightNobelAccelerator
from repro.hardware.pe import units_per_mac
from repro.ppm.activation_tap import GROUP_C
from repro.ppm.op_table import StackedOperatorTable
from repro.ppm.workload import ENGINE_MATMUL, PHASE_PAIR, Operator, Workload
from repro.report import SimReport


@dataclass
class OperatorLatency:
    """Latency contributions of one operator (in cycles)."""

    name: str
    phase: str
    subphase: str
    rmpu_cycles: float
    vvpu_cycles: float
    memory_cycles: float

    @property
    def stage_cycles(self) -> float:
        """Pipeline-stage latency: the slowest engine bounds the stage."""
        return max(self.rmpu_cycles, self.vvpu_cycles, self.memory_cycles)

    @property
    def bottleneck(self) -> str:
        values = {
            "rmpu": self.rmpu_cycles,
            "vvpu": self.vvpu_cycles,
            "memory": self.memory_cycles,
        }
        return max(values, key=values.get)


def operator_latencies(
    accelerator: LightNobelAccelerator, stack: StackedOperatorTable, segment: int = 0
) -> List[OperatorLatency]:
    """Per-operator latencies of one segment of ``stack`` from the columnar engines.

    The engines price the whole stack, one value per representative row; the
    segment's slice of them is gathered to its table's rows, in row order,
    through the table's ``rep_index``.
    """
    table = stack.tables[segment]
    cycles = np.vstack(accelerator._engine_cycles(stack)[:3])[:, stack.rep_segments[segment]]
    rmpu, vvpu, memory = np.take(cycles, table.rep_index, axis=1)
    return [
        OperatorLatency(
            name=name,
            phase=table.phases[p],
            subphase=table.subphases[s],
            rmpu_cycles=float(r),
            vvpu_cycles=float(v),
            memory_cycles=float(m),
        )
        for name, p, s, r, v, m in zip(
            table.names, table.phase_codes, table.subphase_codes, rmpu, vvpu, memory
        )
    ]


# ---------------------------------------------------------------- engines
def rmpu_operator_cycles(
    rmpu: RMPU,
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
    hidden_dim = rmpu.config_hidden_dim()
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
    utilization = rmpu.utilization_for(quant, hidden_dim, weight_bits)
    units_per_cycle = rmpu.units_per_cycle(num_rmpus) * utilization
    compute_cycles = total_units / units_per_cycle
    return compute_cycles + rmpu.config.pipeline_fill_cycles


def vvpu_operator_cycles(vvpu: VVPU, op: Operator, num_vvpus: Optional[int] = None) -> float:
    """Cycles to execute one vector operator across the VVPU pool."""
    if op.vector_ops <= 0:
        return 0.0
    return op.vector_ops / vvpu.lanes(num_vvpus) + vvpu.config.pipeline_fill_cycles


def vvpu_quantization_cycles(
    vvpu: VVPU,
    tokens: float,
    hidden_dim: int,
    outlier_count: int,
    num_vvpus: Optional[int] = None,
) -> float:
    """Cycles to runtime-quantize ``tokens`` tokens (top-k + scale + pack).

    Each VVPU quantizes one token at a time: the bitonic network provides
    the top-k outliers and the running maximum, then the SIMD lanes scale
    and the LCN/SSU pack the token (Section 5.3, "Runtime Quantization").
    Tokens are distributed across the VVPU pool.
    """
    vvpus = vvpu.config.num_vvpus if num_vvpus is None else num_vvpus
    per_token = vvpu.timings.quantize_passes
    if outlier_count > 0:
        per_token += vvpu.timings.topk_cycles(hidden_dim)
    else:
        per_token += 1  # max-only search for the scaling factor
    return tokens * per_token / max(1, vvpus)


# ---------------------------------------------------------------- accelerator
def operator_dram_bytes(accelerator: LightNobelAccelerator, op: Operator) -> float:
    """DRAM traffic of one operator under AAQ and token-wise MHA."""
    if op.fusible and accelerator.tokenwise_mha:
        return 0.0
    bytes_per_element = accelerator.activation_bytes_per_element
    in_bytes = op.input_elements * bytes_per_element(op.output_group or GROUP_C)
    out_bytes = op.output_elements * bytes_per_element(op.output_group)
    weight_bytes = op.weight_elements * 2.0  # 16-bit weights, streamed once
    return in_bytes + out_bytes + weight_bytes


def simulate_operator(accelerator: LightNobelAccelerator, op: Operator) -> OperatorLatency:
    """Engine cycles of one operator on the accelerator."""
    ppm = accelerator.ppm_config
    quantize_output = op.output_group is not None and not (
        op.fusible and accelerator.tokenwise_mha
    )
    rmpu_cycles = 0.0
    vvpu_cycles = 0.0
    if op.engine == ENGINE_MATMUL:
        rmpu_cycles = rmpu_operator_cycles(accelerator.rmpu, op, aaq=accelerator.aaq_config)
    else:
        vvpu_cycles = vvpu_operator_cycles(accelerator.vvpu, op)
    if quantize_output:
        tokens = op.output_elements / ppm.pair_dim
        group_config = accelerator.aaq_config.config_for(op.output_group)
        vvpu_cycles += vvpu_quantization_cycles(
            accelerator.vvpu, tokens, ppm.pair_dim, group_config.outlier_count
        )
    memory_cycles = accelerator.hbm.transfer_cycles(operator_dram_bytes(accelerator, op))
    return OperatorLatency(
        name=op.name,
        phase=op.phase,
        subphase=op.subphase,
        rmpu_cycles=rmpu_cycles,
        vvpu_cycles=vvpu_cycles,
        memory_cycles=memory_cycles,
    )


def simulate_operators(
    accelerator: LightNobelAccelerator, workload: Workload
) -> List[OperatorLatency]:
    """Engine cycles of every operator of ``workload``, in operator order."""
    return [simulate_operator(accelerator, op) for op in workload.operators]


def simulate_accelerator_workload(
    accelerator: LightNobelAccelerator, workload: Workload
) -> SimReport:
    """One Python iteration per operator, in cycles; the report is in seconds."""
    hw = accelerator.hw_config
    latencies = simulate_operators(accelerator, workload)
    phase_cycles: Dict[str, float] = {}
    subphase_cycles: Dict[str, float] = {}
    total = 0.0
    dram_bytes = 0.0
    for op, latency in zip(workload.operators, latencies):
        stage = latency.stage_cycles + hw.per_op_overhead_cycles
        total += stage
        phase_cycles[op.phase] = phase_cycles.get(op.phase, 0.0) + stage
        if op.subphase:
            subphase_cycles[op.subphase] = subphase_cycles.get(op.subphase, 0.0) + stage
        dram_bytes += operator_dram_bytes(accelerator, op)
    total += hw.pipeline_fill_cycles
    clock = hw.cycles_per_second
    n = workload.sequence_length
    return SimReport(
        backend=accelerator.name,
        sequence_length=n,
        total_seconds=total / clock,
        phase_seconds={phase: c / clock for phase, c in phase_cycles.items()},
        subphase_seconds={sub: c / clock for sub, c in subphase_cycles.items()},
        out_of_memory=n > accelerator.max_length,
        details={"total_cycles": total, "dram_bytes": dram_bytes},
    )


def bottleneck_share(latencies: Sequence[OperatorLatency]) -> Dict[str, float]:
    """Fraction of stage latency bound by each engine, operator by operator."""
    totals: Dict[str, float] = {"rmpu": 0.0, "vvpu": 0.0, "memory": 0.0}
    for op in latencies:
        totals[op.bottleneck] += op.stage_cycles
    total = sum(totals.values()) or 1.0
    return {k: v / total for k, v in totals.items()}


# ------------------------------------------------------------------------ GPU
def operator_seconds(model: GPUModel, op: Operator) -> Tuple[float, float]:
    """(seconds, kernel count) of one operator on the GPU roofline."""
    gpu = model.gpu
    compute_eff = gpu.effective_flops
    chunk_applies = model.chunked and op.phase == PHASE_PAIR
    if chunk_applies:
        compute_eff *= CHUNK_COMPUTE_PENALTY

    flops = op.flops
    if op.engine == ENGINE_MATMUL:
        compute_time = flops / compute_eff
    else:
        compute_time = flops / (gpu.effective_flops * 0.1)

    traffic = (
        op.input_elements + op.output_elements
    ) * FP16_BYTES + op.weight_elements * FP16_BYTES
    if chunk_applies:
        traffic *= CHUNK_TRAFFIC_FACTOR
    memory_time = traffic / gpu.effective_bandwidth

    if chunk_applies:
        # Chunked pair kernels launch one kernel per CHUNK_ROWS rows of the
        # (Ns, Ns, Hz) pair tensor, i.e. roughly Ns / CHUNK_ROWS kernels.
        tokens = max(1.0, op.output_elements / max(model.ppm_config.pair_dim, 1))
        kernels = max(1.0, tokens ** 0.5 / CHUNK_ROWS)
    else:
        kernels = 1.0
    launch_time = kernels * gpu.kernel_launch_us * 1e-6
    return max(compute_time, memory_time) + launch_time, kernels


def simulate_gpu_workload(model: GPUModel, workload: Workload) -> SimReport:
    """One Python iteration per operator on the GPU roofline."""
    phase_seconds: Dict[str, float] = {}
    subphase_seconds: Dict[str, float] = {}
    total = 0.0
    kernels = 0.0
    for op in workload.operators:
        seconds, op_kernels = operator_seconds(model, op)
        total += seconds
        kernels += op_kernels
        phase_seconds[op.phase] = phase_seconds.get(op.phase, 0.0) + seconds
        if op.subphase:
            subphase_seconds[op.subphase] = subphase_seconds.get(op.subphase, 0.0) + seconds
    return SimReport(
        backend=model.name,
        sequence_length=workload.sequence_length,
        total_seconds=total,
        phase_seconds=phase_seconds,
        subphase_seconds=subphase_seconds,
        out_of_memory=workload.sequence_length > model.max_length,
        details={"kernel_count": kernels},
    )
