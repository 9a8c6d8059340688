"""LightNobel accelerator: cycle-level latency simulation (Section 6).

The simulator consumes the operator tables of :mod:`repro.ppm.op_table` and an
AAQ configuration, and models the three pipelined engines of the accelerator:

* RMPU — bit-decomposed matrix throughput with DAL utilization,
* VVPU — vector operations plus runtime quantization (top-k, scaling, packing),
* HBM  — burst-aligned activation traffic at the quantized sizes.

Per the paper, the overall latency of each pipeline stage is the longest of
the engine delays for that stage; the end-to-end latency is their sum.  The
token-wise MHA optimization (Section 5.4) keeps the attention score matrix on
chip, which removes both its DRAM traffic and its quantization cost.

Pricing is columnar and has one path:
:meth:`LightNobelAccelerator.simulate_stack` evaluates every engine latency as
a vectorized expression over the representative rows of a
:class:`~repro.ppm.op_table.StackedOperatorTable` (its row map) and reduces
them, weighted by how many rows each stands for, to one report per length.
A single length or table is priced as a one-segment stack.  The per-operator
scalar reference the parity tests and perf benchmarks compare against lives
in ``tests/reference_pricing.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .._memo import CONFIG_MEMO
from ..core.aaq import AAQConfig
from ..ppm.activation_tap import GROUP_C
from ..ppm.config import PPMConfig
from ..ppm.labels import ENGINE_MATMUL, PHASE_PAIR, PHASE_SEQUENCE
from ..ppm.memory import bytes_per_element
from ..ppm.op_table import OperatorTable, StackedOperatorTable, get_stacked_table
from .config import LightNobelConfig
from .memory import HBMModel
from .pe import units_per_mac
from .rmpu import RMPU
from .vvpu import VVPU


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


@dataclass
class _LatencyColumns:
    """Columnar per-operator latencies backing a lazily-built object list.

    The engine cycles are held per representative row of the segment's table,
    with ``counts``, the rows each stands for; ``rep_index`` (the table's row
    map) gathers them to per-operator rows only when a caller reads them.
    """

    names: Sequence[str]
    phase_codes: np.ndarray
    phases: Tuple[str, ...]
    subphase_codes: np.ndarray
    subphases: Tuple[str, ...]
    rmpu_cycles: np.ndarray
    vvpu_cycles: np.ndarray
    memory_cycles: np.ndarray
    counts: np.ndarray
    rep_index: np.ndarray

    def engines(self) -> np.ndarray:
        """``(3, representatives)`` rmpu/vvpu/memory cycles."""
        return np.vstack([self.rmpu_cycles, self.vvpu_cycles, self.memory_cycles])

    def materialize(self) -> List[OperatorLatency]:
        rmpu, vvpu, memory = np.take(self.engines(), self.rep_index, axis=1)
        return [
            OperatorLatency(
                name=name,
                phase=self.phases[p],
                subphase=self.subphases[s],
                rmpu_cycles=float(r),
                vvpu_cycles=float(v),
                memory_cycles=float(m),
            )
            for name, p, s, r, v, m in zip(
                self.names,
                self.phase_codes,
                self.subphase_codes,
                rmpu,
                vvpu,
                memory,
            )
        ]


@dataclass
class LatencyReport:
    """Result of simulating one PPM inference on LightNobel."""

    sequence_length: int
    total_cycles: float
    total_seconds: float
    phase_cycles: Dict[str, float] = field(default_factory=dict)
    subphase_cycles: Dict[str, float] = field(default_factory=dict)
    dram_bytes: float = 0.0
    _latencies: Optional[List[OperatorLatency]] = None
    _columns: Optional[_LatencyColumns] = None

    @property
    def operator_latencies(self) -> List[OperatorLatency]:
        """Per-operator latencies, materialized from the columns on first use."""
        if self._latencies is None:
            self._latencies = self._columns.materialize()
        return self._latencies

    def phase_seconds(self, clock_hz: float) -> Dict[str, float]:
        return {phase: cycles / clock_hz for phase, cycles in self.phase_cycles.items()}

    def bottleneck_share(self) -> Dict[str, float]:
        """Fraction of stage latency bound by each engine."""
        columns = self._columns
        stacked = columns.engines()
        # Each representative's stage, weighted by its rows, to its winner.
        sums = np.bincount(
            stacked.argmax(axis=0), weights=columns.counts * stacked.max(axis=0), minlength=3
        )
        total = float(sums.sum()) or 1.0
        return {
            "rmpu": float(sums[0]) / total,
            "vvpu": float(sums[1]) / total,
            "memory": float(sums[2]) / total,
        }


class LightNobelAccelerator:
    """Latency simulator for the LightNobel accelerator."""

    def __init__(
        self,
        hw_config: Optional[LightNobelConfig] = None,
        ppm_config: Optional[PPMConfig] = None,
        aaq_config: Optional[AAQConfig] = None,
        tokenwise_mha: bool = True,
    ) -> None:
        self.hw_config = hw_config or LightNobelConfig.paper()
        self.ppm_config = ppm_config or PPMConfig.paper()
        self.aaq_config = aaq_config or AAQConfig.paper_optimal()
        self.tokenwise_mha = tokenwise_mha
        self.rmpu = RMPU(self.hw_config)
        self.vvpu = VVPU(self.hw_config)
        self.hbm = HBMModel(self.hw_config)

    # ------------------------------------------------------------------ sizing
    def activation_bytes_per_element(self, group: Optional[str]) -> float:
        """Stored bytes per activation element for a given AAQ group."""
        return bytes_per_element(self.ppm_config, self.aaq_config, group)

    # --------------------------------------------------- per-group constants
    @cached_property
    def _group_params(self) -> Dict[Tuple[Optional[str], ...], Dict[str, np.ndarray]]:
        """Group vocabulary -> :meth:`_group_parameters`, one dict per config value.

        Shared through :data:`repro._memo.CONFIG_MEMO` by every accelerator
        with equal hardware, PPM and AAQ configs (all frozen), so a fresh
        accelerator reuses the constants an equal one built.
        """
        key = ("group_parameters", self.hw_config, self.ppm_config, self.aaq_config)
        return CONFIG_MEMO.get(key, dict)

    def _group_parameters(
        self, groups: Tuple[Optional[str], ...]
    ) -> Dict[str, np.ndarray]:
        """Per-group scalars of the engine models, indexed by table group code.

        The accelerator's one pricing rule: with :meth:`_engine_cycles` it is
        the only place the engine arithmetic is written in the library.  The
        per-operator scalar oracle in ``tests/reference_pricing.py`` restates
        it one operator at a time, and the parity tests hold the two equal.
        Built once per group vocabulary and config value in the process; the
        arrays are read-only.
        """
        params = self._group_params.get(groups)
        if params is None:
            params = self._group_params[groups] = self._build_group_parameters(groups)
        return params

    def _build_group_parameters(
        self, groups: Tuple[Optional[str], ...]
    ) -> Dict[str, np.ndarray]:
        rmpu_hidden = self.rmpu.config_hidden_dim()
        quant_hidden = self.ppm_config.pair_dim
        units_base = self.rmpu.units_per_cycle()
        count = len(groups)
        avg_units = np.zeros(count)
        rmpu_denominator = np.ones(count)
        quant_cycles_per_token = np.zeros(count)
        bytes_out = np.zeros(count)
        bytes_in = np.zeros(count)
        quantized = np.zeros(count, dtype=bool)
        for code, group in enumerate(groups):
            effective = group or GROUP_C
            quant = self.aaq_config.config_for(effective)
            outliers = min(quant.outlier_count, rmpu_hidden)
            inlier_fraction = (rmpu_hidden - outliers) / rmpu_hidden
            avg_units[code] = (
                inlier_fraction * units_per_mac(quant.inlier_bits, 16.0)
                + (1 - inlier_fraction) * units_per_mac(quant.outlier_bits, 16.0)
            )
            utilization = self.rmpu.utilization_for(quant, rmpu_hidden, 16.0)
            rmpu_denominator[code] = units_base * utilization

            per_token = self.vvpu.timings.quantize_passes
            if quant.outlier_count > 0:
                per_token += self.vvpu.timings.topk_cycles(quant_hidden)
            else:
                per_token += 1
            quant_cycles_per_token[code] = per_token

            bytes_out[code] = self.activation_bytes_per_element(group)
            bytes_in[code] = self.activation_bytes_per_element(effective)
            quantized[code] = group is not None
        params = {
            "avg_units": avg_units,
            "rmpu_denominator": rmpu_denominator,
            "quant_cycles_per_token": quant_cycles_per_token,
            "bytes_out": bytes_out,
            "bytes_in": bytes_in,
            "quantized": quantized,
        }
        for array in params.values():
            array.setflags(write=False)
        return params

    # -------------------------------------------------------------- simulation
    def _engine_cycles(self, stack) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(rmpu, vvpu, memory, dram) arrays over the stack's representative rows.

        The arithmetic runs over ``stack.representatives()`` only (85 of 3,234
        rows per paper-config length).  Every expression is elementwise and a
        representative's inputs are its rows' inputs, so value ``i`` is what
        each row it stands for would get, in any mix.
        """
        table = stack.representatives()
        params = self._group_parameters(table.groups)
        g = table.group_codes
        fill = float(self.hw_config.pipeline_fill_cycles)

        # RMPU: bit-decomposed matmul throughput under the group's AAQ scheme.
        is_matmul = table.engine_mask(ENGINE_MATMUL)
        rmpu_cycles = np.where(
            is_matmul & (table.macs > 0),
            (table.macs * params["avg_units"][g]) / params["rmpu_denominator"][g] + fill,
            0.0,
        )

        # VVPU: vector operators plus runtime quantization of quantized outputs.
        vvpu_cycles = np.where(
            ~is_matmul & (table.vector_ops > 0),
            table.vector_ops / self.vvpu.lanes() + fill,
            0.0,
        )
        on_chip = table.fusible & self.tokenwise_mha
        quantize_output = params["quantized"][g] & ~on_chip
        tokens = table.output_elements / self.ppm_config.pair_dim
        vvpus = max(1, self.hw_config.num_vvpus)
        vvpu_cycles = vvpu_cycles + np.where(
            quantize_output, tokens * params["quant_cycles_per_token"][g] / vvpus, 0.0
        )

        # HBM: burst-aligned traffic at the quantized activation sizes.
        dram = np.where(
            on_chip,
            0.0,
            table.input_elements * params["bytes_in"][g]
            + table.output_elements * params["bytes_out"][g]
            + table.weight_elements * 2.0,
        )
        burst = self.hw_config.burst_bytes
        memory_cycles = np.where(
            dram > 0, np.ceil(dram / burst) * burst / self.hbm.bytes_per_cycle, 0.0
        )
        return rmpu_cycles, vvpu_cycles, memory_cycles, dram

    def simulate_stack(self, stack: StackedOperatorTable) -> List[LatencyReport]:
        """One vectorized pass over a whole length mix; one report per segment.

        The engine arithmetic and the stage maximum run once over the stack's
        representative rows, and :meth:`StackedOperatorTable.segment_sums`
        reduces stage and DRAM bytes per segment (totals, phases and
        subphases), each representative weighted by the rows it stands for.
        No full-row column is read.  A length's report is the same in any
        mix, a one-segment stack included (asserted by
        ``tests/test_stacked_table.py``).  Per-operator engine cycles stay per
        representative until a report's ``operator_latencies`` reads them.
        """
        rmpu, vvpu, memory, dram = self._engine_cycles(stack)
        stage = (
            np.maximum(np.maximum(rmpu, vvpu), memory)
            + self.hw_config.per_op_overhead_cycles
        )
        totals, (phase_dicts, subphase_dicts) = stack.segment_sums(
            np.vstack([stage, dram]), "phase", "subphase"
        )
        counts = stack.representatives().counts
        reports = []
        for table, reps, stage_sum, dram_sum, phases, subphases in zip(
            stack.tables, stack.rep_segments, *totals.tolist(), phase_dicts, subphase_dicts
        ):
            total = stage_sum + self.hw_config.pipeline_fill_cycles
            reports.append(
                LatencyReport(
                    sequence_length=table.sequence_length,
                    total_cycles=total,
                    total_seconds=total / self.hw_config.cycles_per_second,
                    phase_cycles=phases,
                    subphase_cycles={sub: c for sub, c in subphases.items() if sub},
                    dram_bytes=dram_sum,
                    _columns=_LatencyColumns(
                        names=table.names,
                        phase_codes=table.phase_codes,
                        phases=table.phases,
                        subphase_codes=table.subphase_codes,
                        subphases=table.subphases,
                        rmpu_cycles=rmpu[reps],
                        vvpu_cycles=vvpu[reps],
                        memory_cycles=memory[reps],
                        counts=counts[reps],
                        rep_index=table.rep_index,
                    ),
                )
            )
        return reports

    def simulate_stack_totals(self, stack: StackedOperatorTable) -> List[float]:
        """Per-segment ``total_seconds`` only — no report materialization.

        Totals-only consumers (the planner's service-time prefetch prices
        thousands of lengths and reads nothing but the scalar) skip the
        per-segment ``LatencyReport`` assembly entirely.  The stage totals
        come from the same :meth:`StackedOperatorTable.segment_sums`
        reduction :meth:`simulate_stack` uses, so the floats are identical to
        the full-report path.
        """
        rmpu, vvpu, memory, _ = self._engine_cycles(stack)
        # Same max/max/add chain as the report paths, fused in place (the
        # intermediates are private here, and in-place ufuncs produce the
        # identical floats).
        stage = np.maximum(rmpu, vvpu)
        np.maximum(stage, memory, out=stage)
        stage += self.hw_config.per_op_overhead_cycles
        totals, _ = stack.segment_sums(stage)
        # Elementwise add/divide on float64 matches the per-report scalar
        # arithmetic bit for bit.
        return (
            (totals[0] + self.hw_config.pipeline_fill_cycles)
            / self.hw_config.cycles_per_second
        ).tolist()

    def simulate_table(self, table: OperatorTable) -> LatencyReport:
        """Price one operator table as a one-segment stack."""
        return self.simulate_stack(StackedOperatorTable.from_tables([table]))[0]

    def simulate(self, sequence_length: int, include_recycles: bool = False) -> LatencyReport:
        """Simulate one inference at ``sequence_length`` residues."""
        return self.simulate_stack(
            get_stacked_table(
                self.ppm_config, [sequence_length], include_recycles=include_recycles
            )
        )[0]

    # ------------------------------------------------------------- convenience
    def folding_block_seconds(self, sequence_length: int) -> float:
        """Latency of the Protein Folding Block phases only (Fig. 14b-d metric)."""
        report = self.simulate(sequence_length)
        cycles = report.phase_cycles.get(PHASE_PAIR, 0.0) + report.phase_cycles.get(PHASE_SEQUENCE, 0.0)
        return cycles / self.hw_config.cycles_per_second
