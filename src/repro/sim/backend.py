"""Latency backends: one protocol over every simulator that produces seconds.

The accelerator model (:class:`~repro.hardware.accelerator.LightNobelAccelerator`)
and the GPU roofline (:class:`~repro.gpu.gpu_model.GPUModel`) report in
different shapes (cycles vs seconds, different phase accessors).  This module
gives them a single face:

* :class:`SimReport` — the common result shape (seconds, per-phase seconds,
  OOM flag, backend-specific details),
* :class:`LatencyBackend` — the protocol every backend implements: two
  pricing methods over a :class:`~repro.ppm.op_table.StackedOperatorTable`
  (``simulate_stack`` for per-segment reports, ``simulate_stack_totals`` for
  the scalars alone) plus a stable ``config_digest`` for cache keys.  A
  single length is a one-segment stack, so there is one pricing path per
  backend,
* :class:`AcceleratorBackend` / :class:`GPUBackend` — adapters over the two
  existing simulators,
* a registry (:func:`register_backend` / :func:`create_backend`) so a new
  backend — a chunked-GPU variant, a future multi-chip configuration — is one
  class (or one frozen spec) away from every sweep in the repo.

Backends are resolved from *specs*: a registered name (``"lightnobel"``,
``"h100"``, ``"a100-chunk"`` …), a :class:`~repro.hardware.config.LightNobelConfig`,
a :class:`~repro.gpu.gpu_config.GPUSpec`, a frozen :class:`AcceleratorVariant` /
:class:`GPUVariant`, or an already-built backend.  Specs are plain frozen
dataclasses, so they hash, digest and pickle by value (memo, coalescing and
disk-cache keys).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Protocol,
    Tuple,
    runtime_checkable,
)

from .._digest import stable_digest
from .._memo import CONFIG_MEMO
from ..core.aaq import AAQConfig
from ..gpu.gpu_config import GPUSpec, GPUS, get_gpu
from ..gpu.gpu_model import GPUModel
from ..hardware.accelerator import LightNobelAccelerator
from ..hardware.config import LightNobelConfig
from ..ppm import memory
from ..ppm.config import PPMConfig
from ..ppm.labels import PHASE_PAIR, PHASE_SEQUENCE
from ..ppm.op_table import StackedOperatorTable


@dataclass(frozen=True)
class SimReport:
    """Backend-independent latency report for one (backend, length) point."""

    backend: str
    sequence_length: int
    total_seconds: float
    phase_seconds: Mapping[str, float] = field(default_factory=dict)
    subphase_seconds: Mapping[str, float] = field(default_factory=dict)
    out_of_memory: bool = False
    #: Backend-specific scalars (cycles, DRAM bytes, kernel counts, ...).
    details: Mapping[str, float] = field(default_factory=dict)

    @property
    def folding_block_seconds(self) -> float:
        """Latency of the Protein Folding Block phases (the Fig. 14b-d metric)."""
        return self.phase_seconds.get(PHASE_PAIR, 0.0) + self.phase_seconds.get(
            PHASE_SEQUENCE, 0.0
        )

    # A report never changes once built (the session memo hands the same
    # object to every caller), so a layer that encodes it keeps what it
    # derives from the fields in the ``_derived`` dict of the instance's
    # ``__dict__`` (the wire codec keeps the report's JSON there).  The dict
    # holds nothing that depends on ``backend``; it plays no part in ``==``
    # or ``repr`` and is left out of pickles (disk-cache entries).
    def relabeled(self, backend: str) -> "SimReport":
        """This report under another backend name, sharing its derived values."""
        derived = self.__dict__.setdefault("_derived", {})
        report = replace(self, backend=backend)
        report.__dict__["_derived"] = derived
        return report

    def __getstate__(self) -> Dict[str, Any]:
        state = dict(self.__dict__)
        state.pop("_derived", None)
        return state


@runtime_checkable
class LatencyBackend(Protocol):
    """Anything that prices a :class:`StackedOperatorTable` into seconds.

    Both methods evaluate a whole length mix in one pass and return one
    entry per segment, in ``stack.lengths`` order.  A single length is a
    one-segment stack.  ``simulate_stack_totals`` must equal the
    ``(total_seconds, out_of_memory)`` of ``simulate_stack`` exactly.  A
    length is out of memory, on GPUs and the accelerator alike, when it
    exceeds the backend's :func:`repro.ppm.memory.max_length`.
    """

    name: str
    ppm_config: PPMConfig

    def simulate_stack(self, stack: StackedOperatorTable) -> List[SimReport]:
        """One report per segment."""
        ...

    def simulate_stack_totals(
        self, stack: StackedOperatorTable
    ) -> List[Tuple[float, bool]]:
        """Per-segment ``(total_seconds, out_of_memory)`` without reports."""
        ...

    def config_digest(self) -> str:
        """Stable hash of everything that affects this backend's numbers."""
        ...


def _memoized_digest(kind: str, payload: Dict) -> str:
    """``stable_digest(kind, payload)`` memoized by value: fresh sessions digest
    the same few configs, and the digest is the largest cost of building one."""
    key = ("config_digest", kind, tuple(sorted(payload.items())))
    return CONFIG_MEMO.get(key, stable_digest, kind, payload)


def _out_of_memory(stack: StackedOperatorTable, max_length: int) -> List[bool]:
    """Per segment, whether its length exceeds the backend's ``max_length``."""
    return [n > max_length for n in stack.lengths]


class AcceleratorBackend:
    """Adapter exposing :class:`LightNobelAccelerator` as a :class:`LatencyBackend`."""

    def __init__(
        self,
        ppm_config: Optional[PPMConfig] = None,
        hw_config: Optional[LightNobelConfig] = None,
        aaq_config: Optional[AAQConfig] = None,
        tokenwise_mha: bool = True,
        name: Optional[str] = None,
        simulator: Optional[LightNobelAccelerator] = None,
    ) -> None:
        if simulator is None:
            simulator = LightNobelAccelerator(
                hw_config=hw_config,
                ppm_config=ppm_config,
                aaq_config=aaq_config,
                tokenwise_mha=tokenwise_mha,
            )
        self.simulator = simulator
        self.ppm_config = simulator.ppm_config
        self.name = name or "lightnobel"

    @property
    def max_length(self) -> int:
        """Longest sequence the accelerator's HBM holds: ``LIGHTNOBEL_AAQ``, or
        ``LIGHTNOBEL_AAQ_UNFUSED`` when the scores leave the chip."""
        sim = self.simulator
        row = memory.LIGHTNOBEL_AAQ if sim.tokenwise_mha else memory.LIGHTNOBEL_AAQ_UNFUSED
        return memory.max_length(row, sim.ppm_config, sim.hw_config.hbm_capacity_gb, sim.aaq_config)

    def _to_sim_report(self, report, out_of_memory: bool) -> SimReport:
        clock = self.simulator.hw_config.cycles_per_second
        return SimReport(
            backend=self.name,
            sequence_length=report.sequence_length,
            total_seconds=report.total_seconds,
            phase_seconds=report.phase_seconds(clock),
            subphase_seconds={
                sub: cycles / clock for sub, cycles in report.subphase_cycles.items()
            },
            out_of_memory=out_of_memory,
            details={
                "total_cycles": report.total_cycles,
                "dram_bytes": report.dram_bytes,
            },
        )

    def simulate_stack(self, stack: StackedOperatorTable) -> List[SimReport]:
        """One vectorized engine pass over a length mix; reports per segment."""
        reports = self.simulator.simulate_stack(stack)
        return list(map(self._to_sim_report, reports, _out_of_memory(stack, self.max_length)))

    def simulate_stack_totals(
        self, stack: StackedOperatorTable
    ) -> List[Tuple[float, bool]]:
        """Per-segment ``(total_seconds, out_of_memory)`` without reports."""
        totals = self.simulator.simulate_stack_totals(stack)
        return list(zip(totals, _out_of_memory(stack, self.max_length)))

    def config_digest(self) -> str:
        return _memoized_digest(
            type(self).__name__,
            {
                "hw": self.simulator.hw_config,
                "ppm": self.simulator.ppm_config,
                "aaq": self.simulator.aaq_config,
                "tokenwise_mha": self.simulator.tokenwise_mha,
            },
        )


class GPUBackend:
    """Adapter exposing :class:`GPUModel` (± chunking) as a :class:`LatencyBackend`."""

    def __init__(
        self,
        gpu: GPUSpec | str = "H100",
        chunked: bool = False,
        ppm_config: Optional[PPMConfig] = None,
        name: Optional[str] = None,
    ) -> None:
        self.model = GPUModel(gpu, ppm_config=ppm_config)
        self.chunked = chunked
        self.ppm_config = self.model.ppm_config
        default = self.model.gpu.name.lower() + ("-chunk" if chunked else "")
        self.name = name or default

    @property
    def max_length(self) -> int:
        """Longest sequence the GPU's memory holds."""
        return self.model.max_sequence_length(self.chunked)

    def _to_sim_report(self, report, out_of_memory: bool) -> SimReport:
        # The GPULatencyReport is built fresh per call and discarded here, so
        # its phase/subphase dicts can be adopted without a defensive copy.
        return SimReport(
            backend=self.name,
            sequence_length=report.sequence_length,
            total_seconds=report.total_seconds,
            phase_seconds=report.phase_seconds,
            subphase_seconds=report.subphase_seconds,
            out_of_memory=out_of_memory,
            details={"kernel_count": report.kernel_count},
        )

    def simulate_stack(self, stack: StackedOperatorTable) -> List[SimReport]:
        """One vectorized roofline pass over a length mix; reports per segment."""
        reports = self.model.simulate_stack(stack, chunked=self.chunked)
        return list(map(self._to_sim_report, reports, _out_of_memory(stack, self.max_length)))

    def simulate_stack_totals(
        self, stack: StackedOperatorTable
    ) -> List[Tuple[float, bool]]:
        """Per-segment ``(total_seconds, out_of_memory)`` without reports."""
        totals = self.model.simulate_stack_totals(stack, chunked=self.chunked)
        return list(zip(totals, _out_of_memory(stack, self.max_length)))

    def config_digest(self) -> str:
        return _memoized_digest(
            type(self).__name__,
            {
                "gpu": self.model.gpu,
                "ppm": self.model.ppm_config,
                "chunked": self.chunked,
            },
        )


# ------------------------------------------------------------ declarative specs
@dataclass(frozen=True)
class AcceleratorVariant:
    """Frozen, hashable spec for an accelerator backend."""

    hw_config: Optional[LightNobelConfig] = None
    aaq_config: Optional[AAQConfig] = None
    tokenwise_mha: bool = True
    name: Optional[str] = None

    def build(self, ppm_config: Optional[PPMConfig] = None) -> AcceleratorBackend:
        return AcceleratorBackend(
            ppm_config=ppm_config,
            hw_config=self.hw_config,
            aaq_config=self.aaq_config,
            tokenwise_mha=self.tokenwise_mha,
            name=self.name,
        )


@dataclass(frozen=True)
class GPUVariant:
    """Frozen, hashable spec for a GPU backend."""

    gpu: str = "H100"
    chunked: bool = False
    name: Optional[str] = None

    def build(self, ppm_config: Optional[PPMConfig] = None) -> GPUBackend:
        return GPUBackend(
            gpu=self.gpu, chunked=self.chunked, ppm_config=ppm_config, name=self.name
        )


# --------------------------------------------------------------------- registry
BackendFactory = Callable[[Optional[PPMConfig]], LatencyBackend]

_REGISTRY: Dict[str, BackendFactory] = {}


def register_backend(name: str, factory: BackendFactory) -> None:
    """Register a named backend factory (``factory(ppm_config) -> backend``)."""
    _REGISTRY[name.lower()] = factory


def available_backends() -> Tuple[str, ...]:
    """Names resolvable by :func:`create_backend` (sorted)."""
    return tuple(sorted(_REGISTRY))


def _register_defaults() -> None:
    register_backend("lightnobel", lambda ppm: AcceleratorBackend(ppm_config=ppm))
    for gpu_name in GPUS:
        for chunked in (False, True):
            spec = GPUVariant(gpu=gpu_name, chunked=chunked)
            name = gpu_name.lower() + ("-chunk" if chunked else "")
            register_backend(name, spec.build)


_register_defaults()


def create_backend(spec, ppm_config: Optional[PPMConfig] = None) -> LatencyBackend:
    """Resolve a backend spec into a ready :class:`LatencyBackend`.

    Accepts a registered name (case-insensitive; unknown names falling back to
    ``get_gpu`` so plain GPU names always work, with an optional ``-chunk``
    suffix), a :class:`LightNobelConfig`, a :class:`GPUSpec`, a frozen
    :class:`AcceleratorVariant`/:class:`GPUVariant`, or an existing backend
    instance (returned unchanged).
    """
    if isinstance(spec, (AcceleratorVariant, GPUVariant)):
        return spec.build(ppm_config)
    # Any frozen variant-style spec with a build(ppm_config) factory resolves
    # the same way (e.g. repro.cluster.fleet.MultiChipVariant) — new backend
    # families do not need to be enumerated here.
    build = getattr(spec, "build", None)
    if callable(build) and not isinstance(spec, type) and not hasattr(spec, "simulate_stack"):
        return build(ppm_config)
    if isinstance(spec, LightNobelConfig):
        return AcceleratorBackend(ppm_config=ppm_config, hw_config=spec)
    if isinstance(spec, GPUSpec):
        return GPUBackend(gpu=spec, ppm_config=ppm_config)
    if isinstance(spec, str):
        key = spec.lower()
        factory = _REGISTRY.get(key)
        if factory is not None:
            return factory(ppm_config)
        chunked = key.endswith("-chunk")
        gpu_name = key[: -len("-chunk")] if chunked else key
        try:
            gpu = get_gpu(gpu_name.upper())
        except ValueError:
            raise ValueError(
                f"unknown backend {spec!r}; expected one of {available_backends()}"
            ) from None
        return GPUBackend(gpu=gpu, chunked=chunked, ppm_config=ppm_config)
    if hasattr(spec, "simulate_stack") and hasattr(spec, "config_digest"):
        return spec
    if isinstance(spec, LightNobelAccelerator):
        return AcceleratorBackend(simulator=spec)
    if isinstance(spec, GPUModel):
        return GPUBackend(gpu=spec.gpu, ppm_config=spec.ppm_config)
    raise TypeError(f"cannot build a latency backend from {type(spec).__name__!r}")
