"""Cross-validation of the Python simulator against an RTL-style reference.

Section 6 of the paper validates the Python cycle-accurate simulator against
RTL simulation and reports per-dataset discrepancies of 1.81-4.63% (3.30% on
average), attributed to per-stage tail latency that shrinks as sequence length
grows.  We reproduce that methodology: the "RTL reference" model re-simulates
every operator with the per-stage effects the fast analytical model ignores
(pipeline drain, scratchpad swap gaps and crossbar arbitration per stage), and
the cross-validation reports the relative discrepancy between the two.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional

from ..ppm.config import PPMConfig
from ..ppm.op_table import get_stacked_table
from ..report import SimReport
from .accelerator import LightNobelAccelerator
from .config import LightNobelConfig

#: Extra cycles per pipeline stage that RTL exposes but the analytical model
#: hides: pipeline drain, double-buffer swap and crossbar arbitration.
RTL_STAGE_OVERHEAD_CYCLES = 96.0


@dataclass(frozen=True)
class CrossValidationResult:
    """Discrepancy between the analytical simulator and the RTL reference."""

    dataset: str
    simulator_seconds: float
    rtl_seconds: float

    @property
    def discrepancy(self) -> float:
        return abs(self.rtl_seconds - self.simulator_seconds) / self.rtl_seconds


def rtl_reference_seconds(
    accelerator: LightNobelAccelerator, sequence_length: int
) -> float:
    """Latency of the RTL-style reference model for one sequence length."""
    return _rtl_seconds(accelerator, accelerator.simulate(sequence_length))


def _rtl_seconds(accelerator: LightNobelAccelerator, report: SimReport) -> float:
    """``report`` plus the RTL overhead of each of its pipeline stages (operator rows)."""
    stage_count = len(get_stacked_table(accelerator.ppm_config, [report.sequence_length]))
    extra_cycles = stage_count * RTL_STAGE_OVERHEAD_CYCLES
    total_cycles = report.details["total_cycles"]
    return (total_cycles + extra_cycles) / accelerator.hw_config.cycles_per_second


def cross_validate(
    dataset_lengths: Dict[str, Iterable[int]],
    hw_config: Optional[LightNobelConfig] = None,
    ppm_config: Optional[PPMConfig] = None,
) -> Dict[str, CrossValidationResult]:
    """Simulator-vs-RTL discrepancy per dataset (Section 6 cross-validation)."""
    accelerator = LightNobelAccelerator(hw_config=hw_config, ppm_config=ppm_config)
    results: Dict[str, CrossValidationResult] = {}
    for dataset, lengths in dataset_lengths.items():
        lengths = list(lengths)
        if not lengths:
            continue
        sim_total = rtl_total = 0.0
        for report in map(accelerator.simulate, lengths):
            sim_total += report.total_seconds
            rtl_total += _rtl_seconds(accelerator, report)
        results[dataset] = CrossValidationResult(
            dataset=dataset,
            simulator_seconds=sim_total / len(lengths),
            rtl_seconds=rtl_total / len(lengths),
        )
    return results
