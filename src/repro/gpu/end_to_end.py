"""End-to-end PPM system comparison (Fig. 14a).

The paper compares LightNobel against eight complete PPM systems.  Only
ESMFold's dataflow is rebuilt in this repository; the other systems differ in
their *input embedding* strategy (MSA database search vs. protein language
model), folding-trunk optimizations and quantization, which the paper itself
characterizes at the phase level (Section 8.2).  We therefore model each
system as phase-level multipliers applied to the shared ESMFold-on-H100
baseline phases, with LightNobel's folding-block time coming from the
accelerator simulator.  The multipliers encode each system's published
behaviour (e.g. AlphaFold2/AlphaFold3's database search dominates input
embedding; MEFold/PTQ4Protein add dequantization overhead to the trunk).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, TYPE_CHECKING

from ..ppm.config import PPMConfig
from ..ppm.labels import PHASE_INPUT_EMBEDDING, PHASE_PAIR, PHASE_SEQUENCE, PHASE_STRUCTURE
from ..hardware.accelerator import LightNobelAccelerator
from .gpu_model import GPUModel

if TYPE_CHECKING:  # imported lazily at runtime to avoid a package cycle
    from ..serving.service import LatencyService
    from ..sim.session import SimulationSession


@dataclass(frozen=True)
class SystemProfile:
    """Phase-level behaviour of one end-to-end PPM system.

    Multipliers scale the corresponding ESMFold-on-H100 phase latency; a
    multiplier of 1.0 means "same as the ESMFold baseline".  MSA-based systems
    additionally pay ``input_embedding_fixed_seconds`` of database search,
    which is sequence-length-insensitive and dominates their end-to-end time.
    """

    name: str
    input_embedding_factor: float
    folding_factor: float
    structure_factor: float
    input_embedding_fixed_seconds: float = 0.0
    uses_language_model: bool = True


#: Profiles of the systems in Fig. 14(a).  Database-search systems pay a large
#: fixed input-embedding cost; quantized-on-GPU systems pay trunk overhead for
#: runtime (de)quantization; FastFold/ColabFold accelerate parts of the stack.
SYSTEM_PROFILES: Dict[str, SystemProfile] = {
    "ESMFold (Baseline)": SystemProfile("ESMFold (Baseline)", 1.0, 1.0, 1.0),
    "AlphaFold2": SystemProfile(
        "AlphaFold2", 1.0, 1.35, 1.2, input_embedding_fixed_seconds=600.0, uses_language_model=False
    ),
    "AlphaFold3": SystemProfile(
        "AlphaFold3", 1.0, 1.25, 1.3, input_embedding_fixed_seconds=300.0, uses_language_model=False
    ),
    "FastFold": SystemProfile(
        "FastFold", 1.0, 0.95, 1.0, input_embedding_fixed_seconds=170.0, uses_language_model=False
    ),
    "ColabFold": SystemProfile(
        "ColabFold", 1.0, 1.0, 1.0, input_embedding_fixed_seconds=28.0, uses_language_model=False
    ),
    "PTQ4Protein": SystemProfile("PTQ4Protein", 1.0, 1.25, 1.0),
    "MEFold": SystemProfile("MEFold", 1.0, 2.9, 1.0),
    "LightNobel": SystemProfile("LightNobel", 1.0, 0.0, 1.0),  # folding comes from the simulator
}


@dataclass
class EndToEndResult:
    """End-to-end latency of one system on one protein."""

    system: str
    sequence_length: int
    input_embedding_seconds: float
    folding_seconds: float
    structure_seconds: float

    @property
    def total_seconds(self) -> float:
        return self.input_embedding_seconds + self.folding_seconds + self.structure_seconds


class EndToEndComparison:
    """Builds the Fig. 14(a) comparison across PPM systems."""

    def __init__(
        self,
        ppm_config: Optional[PPMConfig] = None,
        gpu: str = "H100",
        accelerator: Optional[LightNobelAccelerator] = None,
        session: Optional["SimulationSession"] = None,
        service: Optional["LatencyService"] = None,
    ) -> None:
        # Imported here, not at module top: repro.sim resolves backends via
        # this package, so a module-level import would be circular.
        from ..sim.session import session_for

        if service is not None:
            if session is not None and session is not service.session:
                raise ValueError("pass either session or service, not both")
            session = service.session
        self._service = service
        self.session = session_for(ppm_config, session)
        self.ppm_config = self.session.ppm_config
        self.gpu_model = self._register(gpu.lower())
        self.accelerator = accelerator or LightNobelAccelerator(ppm_config=self.ppm_config)
        # Registered under a digest-derived name so a custom accelerator in a
        # shared session never hijacks the plain "lightnobel" binding; the
        # caller's object keeps its own name.
        self._accelerator_name = f"lightnobel-{self.accelerator.config_digest()}"
        self._register(self.accelerator, name=self._accelerator_name)

    def _register(self, spec, name: Optional[str] = None):
        if self._service is not None:
            return self._service.register_backend(spec, name=name)
        if name is None and isinstance(spec, str):
            return self.session.backend(spec)
        return self.session.add_backend(spec, name=name)

    def _simulate(self, sequence_length: int, backend_name: str):
        """One report, via the shared service when configured, else the session."""
        if self._service is not None:
            return self._service.query(backend_name, sequence_length)
        return self.session.simulate(sequence_length, backend=backend_name)

    def baseline_phases(self, sequence_length: int) -> Dict[str, float]:
        """ESMFold-on-GPU phase seconds, simulated once per (gpu, length).

        Routed through the session memo, so :meth:`compare` evaluating eight
        system profiles at one length costs one GPU simulation, not eight.
        """
        report = self._simulate(sequence_length, self.gpu_model.name)
        folding = report.phase_seconds.get(PHASE_PAIR, 0.0) + report.phase_seconds.get(PHASE_SEQUENCE, 0.0)
        return {
            "input_embedding": report.phase_seconds.get(PHASE_INPUT_EMBEDDING, 0.0),
            "folding": folding,
            "structure": report.phase_seconds.get(PHASE_STRUCTURE, 0.0),
        }

    def evaluate_system(self, system: str, sequence_length: int) -> EndToEndResult:
        profile = SYSTEM_PROFILES[system]
        phases = self.baseline_phases(sequence_length)
        folding = phases["folding"] * profile.folding_factor
        if system == "LightNobel":
            folding = self._simulate(
                sequence_length, self._accelerator_name
            ).folding_block_seconds
        return EndToEndResult(
            system=system,
            sequence_length=sequence_length,
            input_embedding_seconds=(
                phases["input_embedding"] * profile.input_embedding_factor
                + profile.input_embedding_fixed_seconds
            ),
            folding_seconds=folding,
            structure_seconds=phases["structure"] * profile.structure_factor,
        )

    def compare(self, sequence_lengths: Iterable[int]) -> Dict[str, float]:
        """Average end-to-end latency per system over the given proteins."""
        lengths = list(sequence_lengths)
        totals: Dict[str, float] = {}
        for system in SYSTEM_PROFILES:
            values = [self.evaluate_system(system, n).total_seconds for n in lengths]
            totals[system] = sum(values) / len(values) if values else 0.0
        return totals

    def normalized_to_lightnobel(self, sequence_lengths: Iterable[int]) -> Dict[str, float]:
        """Fig. 14(a): latency of every system normalized to LightNobel."""
        totals = self.compare(sequence_lengths)
        reference = totals.get("LightNobel", 1.0) or 1.0
        return {system: value / reference for system, value in totals.items()}
