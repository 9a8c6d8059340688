"""Latency breakdown (Fig. 3) and hardware performance comparison (Fig. 14b-d).

Both figures are thin views over the unified simulation layer: a
:class:`~repro.sim.session.SimulationSession` resolves the backends, owns the
cached operator tables and memoizes one report per (backend, length) pair, so
one dataset sweep never simulates the same point twice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, TYPE_CHECKING

from ..hardware.config import LightNobelConfig
from ..ppm.config import PPMConfig
from ..ppm.labels import (
    PHASE_PAIR,
    PHASE_SEQUENCE,
    SUBPHASE_TRI_ATT,
)
from ..sim import AcceleratorVariant, BatchResult, SimulationSession, session_for

if TYPE_CHECKING:  # service routing is optional; avoid an import at runtime
    from ..serving.service import LatencyService


@dataclass
class LatencyBreakdown:
    """Fig. 3: share of end-to-end latency per phase/sub-phase."""

    sequence_length: int
    phase_fractions: Dict[str, float]
    subphase_fractions: Dict[str, float]

    @property
    def folding_block_fraction(self) -> float:
        return self.phase_fractions.get(PHASE_PAIR, 0.0) + self.phase_fractions.get(PHASE_SEQUENCE, 0.0)

    @property
    def pair_dataflow_fraction(self) -> float:
        return self.phase_fractions.get(PHASE_PAIR, 0.0)

    @property
    def triangular_attention_fraction(self) -> float:
        return self.subphase_fractions.get(SUBPHASE_TRI_ATT, 0.0)


def latency_breakdown(
    sequence_length: int,
    gpu: str = "H100",
    config: Optional[PPMConfig] = None,
    session: Optional[SimulationSession] = None,
    service: Optional["LatencyService"] = None,
) -> LatencyBreakdown:
    """End-to-end GPU latency breakdown for one protein (Fig. 3 methodology).

    With ``service=`` the report is fetched through a shared
    :class:`~repro.serving.service.LatencyService` (coalescing with any other
    concurrent caller) instead of the session's direct path.
    """
    if service is not None:
        if session is not None and session is not service.session:
            raise ValueError("pass either session or service, not both")
        session_for(config, service.session)  # validates config match
        report = service.query(gpu.lower(), sequence_length)
    else:
        session = session_for(config, session)
        report = session.simulate(sequence_length, backend=gpu.lower())
    total = report.total_seconds or 1.0
    phase_fractions = {phase: seconds / total for phase, seconds in report.phase_seconds.items()}
    subphase_fractions = {sub: seconds / total for sub, seconds in report.subphase_seconds.items()}
    return LatencyBreakdown(
        sequence_length=sequence_length,
        phase_fractions=phase_fractions,
        subphase_fractions=subphase_fractions,
    )


@dataclass
class HardwareComparison:
    """Fig. 14(b-d): folding-block latency of GPUs (±chunk) vs LightNobel."""

    dataset: str
    lightnobel_seconds: float
    gpu_seconds: Dict[str, float]  # e.g. "A100 (chunk)" -> seconds
    out_of_memory: Dict[str, bool]

    def normalized(self) -> Dict[str, float]:
        """Latencies normalized to LightNobel (the Fig. 14 y-axis)."""
        reference = self.lightnobel_seconds or 1.0
        result = {"LightNobel": 1.0}
        for name, seconds in self.gpu_seconds.items():
            result[name] = seconds / reference
        return result


def compare_hardware_on_lengths(
    dataset: str,
    sequence_lengths: Iterable[int],
    config: Optional[PPMConfig] = None,
    hw_config: Optional[LightNobelConfig] = None,
    gpus: Iterable[str] = ("A100", "H100"),
    exclude_oom: bool = False,
    only_oom_without_chunk: bool = False,
    session: Optional[SimulationSession] = None,
    service: Optional["LatencyService"] = None,
) -> HardwareComparison:
    """Average folding-block latency over a dataset's sequence lengths.

    ``exclude_oom`` drops proteins that do not fit on the GPU without the
    chunk option (the Fig. 14c protocol); ``only_oom_without_chunk`` keeps only
    those proteins (the Fig. 14d protocol).  All latencies come from one
    :class:`~repro.sim.session.SimulationSession` batch, so each distinct
    length builds its operator table exactly once for all backends — or, with
    ``service=``, from one shared :class:`~repro.serving.service.LatencyService`
    batch (same numbers, coalesced with concurrent callers).
    """
    if service is not None:
        if session is not None and session is not service.session:
            raise ValueError("pass either session or service, not both")
        session = session_for(config, service.session)
    else:
        session = session_for(config, session)
    lengths = [int(n) for n in sequence_lengths]
    if not lengths:
        raise ValueError("sequence_lengths must be non-empty")

    reference_gpu = (
        service.register_backend("h100") if service is not None else session.backend("h100")
    )
    limit = reference_gpu.max_length  # the H100 without chunking
    if exclude_oom:
        lengths = [n for n in lengths if n <= limit]
    if only_oom_without_chunk:
        lengths = [n for n in lengths if n > limit]
    if not lengths:
        raise ValueError("no proteins remain after the OOM filter")

    if hw_config is not None:
        # Name the custom design point by its digest so two different
        # hw_configs sharing a session never collide in the report memo.
        variant = AcceleratorVariant(
            hw_config=hw_config, name=f"lightnobel-{hw_config.config_digest()}"
        )
        accelerator = (
            service.register_backend(variant)
            if service is not None
            else session.add_backend(variant)
        )
        accelerator_name = accelerator.name
    else:
        accelerator_name = "lightnobel"

    gpu_labels: Dict[str, str] = {}  # display label -> backend name
    for gpu_name in gpus:
        gpu_labels[f"{gpu_name} (chunk)"] = f"{gpu_name.lower()}-chunk"
        gpu_labels[f"{gpu_name} (no chunk)"] = gpu_name.lower()

    names = [accelerator_name, *gpu_labels.values()]
    if service is not None:
        pairs = [(name, n) for n in dict.fromkeys(lengths) for name in names]
        reports = service.query_batch(pairs)
        batch = BatchResult(lengths=lengths, backends=names)
        for (name, n), report in zip(pairs, reports):
            batch.reports[(name, n)] = report
    else:
        batch = session.simulate_batch(lengths, backends=names)
    lightnobel = batch.mean_folding_seconds(accelerator_name)
    gpu_seconds = {
        label: batch.mean_folding_seconds(name) for label, name in gpu_labels.items()
    }
    oom = {label: batch.any_out_of_memory(name) for label, name in gpu_labels.items()}
    return HardwareComparison(
        dataset=dataset,
        lightnobel_seconds=lightnobel,
        gpu_seconds=gpu_seconds,
        out_of_memory=oom,
    )


def average_speedup(comparison: HardwareComparison) -> Dict[str, float]:
    """LightNobel speedup over each GPU configuration."""
    return {
        name: seconds / (comparison.lightnobel_seconds or 1.0)
        for name, seconds in comparison.gpu_seconds.items()
    }
