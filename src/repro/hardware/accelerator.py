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

:class:`LightNobelAccelerator` is itself a
:class:`~repro.sim.backend.LatencyBackend`: it has a ``name``, a
``max_length`` and a ``config_digest``, and it prices straight into
:class:`~repro.report.SimReport` (seconds per phase and subphase; the total
cycles and DRAM bytes in ``details``).  Pricing is columnar and has one path:
:meth:`LightNobelAccelerator.simulate_stack` evaluates every engine latency as
a vectorized expression over the representative rows of a
:class:`~repro.ppm.op_table.StackedOperatorTable` (its row map) and reduces
them, weighted by how many rows each stands for, to one report per length.
A single length or table is priced as a one-segment stack.  The per-operator
scalar reference the parity tests and perf benchmarks compare against lives
in ``tests/reference_pricing.py``.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, List, Optional, Tuple

import numpy as np

from .._memo import CONFIG_MEMO, memoized_digest
from ..core.aaq import AAQConfig
from ..ppm import memory
from ..ppm.activation_tap import GROUP_C
from ..ppm.config import PPMConfig
from ..ppm.labels import ENGINE_MATMUL
from ..ppm.op_table import OperatorTable, StackedOperatorTable, get_stacked_table
from ..report import SimReport
from .config import LightNobelConfig
from .memory import HBMModel
from .pe import units_per_mac
from .rmpu import RMPU
from .vvpu import VVPU


class LightNobelAccelerator:
    """Latency simulator for the LightNobel accelerator; a latency backend."""

    def __init__(
        self,
        hw_config: Optional[LightNobelConfig] = None,
        ppm_config: Optional[PPMConfig] = None,
        aaq_config: Optional[AAQConfig] = None,
        tokenwise_mha: bool = True,
        name: Optional[str] = None,
    ) -> None:
        self.hw_config = hw_config or LightNobelConfig.paper()
        self.ppm_config = ppm_config or PPMConfig.paper()
        self.aaq_config = aaq_config or AAQConfig.paper_optimal()
        self.tokenwise_mha = tokenwise_mha
        self.name = name or "lightnobel"
        self.rmpu = RMPU(self.hw_config)
        self.vvpu = VVPU(self.hw_config)
        self.hbm = HBMModel(self.hw_config)

    # ------------------------------------------------------------------ sizing
    def activation_bytes_per_element(self, group: Optional[str]) -> float:
        """Stored bytes per activation element for a given AAQ group."""
        return memory.bytes_per_element(self.ppm_config, self.aaq_config, group)

    @property
    def max_length(self) -> int:
        """Longest sequence the accelerator's HBM holds: ``LIGHTNOBEL_AAQ``, or
        ``LIGHTNOBEL_AAQ_UNFUSED`` when the scores leave the chip."""
        row = memory.LIGHTNOBEL_AAQ if self.tokenwise_mha else memory.LIGHTNOBEL_AAQ_UNFUSED
        return memory.max_length(
            row, self.ppm_config, self.hw_config.hbm_capacity_gb, self.aaq_config
        )

    def config_digest(self) -> str:
        """Stable hash of everything that affects this accelerator's numbers."""
        # The kind string predates the engines pricing reports themselves;
        # it stays so no memo or disk-cache key moves.
        return memoized_digest(
            "AcceleratorBackend",
            {
                "hw": self.hw_config,
                "ppm": self.ppm_config,
                "aaq": self.aaq_config,
                "tokenwise_mha": self.tokenwise_mha,
            },
        )

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

    def simulate_stack(self, stack: StackedOperatorTable) -> List[SimReport]:
        """One vectorized pass over a whole length mix; one report per segment.

        The engine arithmetic and the stage maximum run once over the stack's
        representative rows, and :meth:`StackedOperatorTable.segment_sums`
        reduces stage and DRAM bytes per segment (totals, phases and
        subphases), each representative weighted by the rows it stands for.
        No full-row column is read.  A length's report is the same in any
        mix, a one-segment stack included (asserted by
        ``tests/test_stacked_table.py``), and it is out of memory when the
        length exceeds :attr:`max_length`.
        """
        rmpu, vvpu, hbm, dram = self._engine_cycles(stack)
        stage = (
            np.maximum(np.maximum(rmpu, vvpu), hbm) + self.hw_config.per_op_overhead_cycles
        )
        totals, (phase_dicts, subphase_dicts) = stack.segment_sums(
            np.vstack([stage, dram]), "phase", "subphase"
        )
        clock = self.hw_config.cycles_per_second
        max_length = self.max_length
        reports = []
        for n, stage_sum, dram_sum, phases, subphases in zip(
            stack.lengths, *totals.tolist(), phase_dicts, subphase_dicts
        ):
            total = stage_sum + self.hw_config.pipeline_fill_cycles
            reports.append(
                SimReport(
                    backend=self.name,
                    sequence_length=n,
                    total_seconds=total / clock,
                    phase_seconds={phase: c / clock for phase, c in phases.items()},
                    subphase_seconds={sub: c / clock for sub, c in subphases.items() if sub},
                    out_of_memory=n > max_length,
                    details={"total_cycles": total, "dram_bytes": dram_sum},
                )
            )
        return reports

    def simulate_stack_totals(self, stack: StackedOperatorTable) -> List[Tuple[float, bool]]:
        """Per-segment ``(total_seconds, out_of_memory)`` — no report materialization.

        Totals-only consumers (the planner's service-time prefetch prices
        thousands of lengths and reads nothing but the scalar) skip the
        per-segment report assembly entirely.  The stage totals come from the
        same :meth:`StackedOperatorTable.segment_sums` reduction
        :meth:`simulate_stack` uses, so the floats are identical to the
        full-report path.
        """
        rmpu, vvpu, hbm, _ = self._engine_cycles(stack)
        # Same max/max/add chain as the report paths, fused in place (the
        # intermediates are private here, and in-place ufuncs produce the
        # identical floats).
        stage = np.maximum(rmpu, vvpu)
        np.maximum(stage, hbm, out=stage)
        stage += self.hw_config.per_op_overhead_cycles
        totals, _ = stack.segment_sums(stage)
        # Elementwise add/divide on float64 matches the per-report scalar
        # arithmetic bit for bit.
        seconds = (
            (totals[0] + self.hw_config.pipeline_fill_cycles)
            / self.hw_config.cycles_per_second
        ).tolist()
        max_length = self.max_length
        return [(s, n > max_length) for s, n in zip(seconds, stack.lengths)]

    def simulate_table(self, table: OperatorTable) -> SimReport:
        """Price one operator table as a one-segment stack."""
        return self.simulate_stack(StackedOperatorTable.from_tables([table]))[0]

    def simulate(self, sequence_length: int, include_recycles: bool = False) -> SimReport:
        """Simulate one inference at ``sequence_length`` residues."""
        return self.simulate_stack(
            get_stacked_table(
                self.ppm_config, [sequence_length], include_recycles=include_recycles
            )
        )[0]

    def bottleneck_share(self, sequence_length: int) -> Dict[str, float]:
        """Fraction of stage latency bound by each engine at ``sequence_length``."""
        stack = get_stacked_table(self.ppm_config, [sequence_length])
        engines = np.vstack(self._engine_cycles(stack)[:3])
        # Each representative's stage, weighted by its rows, to its winner.
        sums = np.bincount(
            engines.argmax(axis=0),
            weights=stack.representatives().counts * engines.max(axis=0),
            minlength=3,
        )
        total = float(sums.sum()) or 1.0
        return {
            "rmpu": float(sums[0]) / total,
            "vvpu": float(sums[1]) / total,
            "memory": float(sums[2]) / total,
        }
