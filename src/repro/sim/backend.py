"""Latency backends: one protocol over every simulator that produces seconds.

The two engines are the backends.  The accelerator model
(:class:`~repro.hardware.accelerator.LightNobelAccelerator`) and the GPU
roofline (:class:`~repro.gpu.gpu_model.GPUModel`, with or without chunking)
each take their ``name`` at construction, know their ``max_length`` and
``config_digest``, and price a stack straight into one
:class:`~repro.report.SimReport` per segment.  This module holds:

* :class:`SimReport` — re-exported from :mod:`repro.report`, the one report
  type (seconds, per-phase seconds, OOM flag, backend-specific details),
* :class:`LatencyBackend` — the protocol every backend implements: two
  pricing methods over a :class:`~repro.ppm.op_table.StackedOperatorTable`
  (``simulate_stack`` for per-segment reports, ``simulate_stack_totals`` for
  the scalars alone) plus a stable ``config_digest`` for cache keys.  A
  single length is a one-segment stack, so there is one pricing path per
  backend,
* :func:`create_backend` — resolves a spec into a backend.

Backends are resolved from *specs*: a name (``"lightnobel"`` or
``<gpu>[-chunk]``: ``"h100"``, ``"a100-chunk"`` …), a
:class:`~repro.hardware.config.LightNobelConfig`, a
:class:`~repro.gpu.gpu_config.GPUSpec`, a frozen :class:`AcceleratorVariant` /
:class:`GPUVariant` (or any frozen spec with a ``build(ppm_config)``, such as
:class:`~repro.cluster.fleet.MultiChipVariant`), or an already-built backend.
Specs are plain frozen dataclasses, so they hash, digest and pickle by value
(memo, coalescing and disk-cache keys).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Protocol, Tuple, runtime_checkable

from ..core.aaq import AAQConfig
from ..gpu.gpu_config import GPUSpec, GPUS, get_gpu
from ..gpu.gpu_model import GPUModel
from ..hardware.accelerator import LightNobelAccelerator
from ..hardware.config import LightNobelConfig
from ..ppm.config import PPMConfig
from ..ppm.op_table import StackedOperatorTable
from ..report import SimReport


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


# ------------------------------------------------------------ declarative specs
@dataclass(frozen=True)
class AcceleratorVariant:
    """Frozen, hashable spec for an accelerator backend."""

    hw_config: Optional[LightNobelConfig] = None
    aaq_config: Optional[AAQConfig] = None
    tokenwise_mha: bool = True
    name: Optional[str] = None

    def build(self, ppm_config: Optional[PPMConfig] = None) -> LightNobelAccelerator:
        return LightNobelAccelerator(
            hw_config=self.hw_config,
            ppm_config=ppm_config,
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

    def build(self, ppm_config: Optional[PPMConfig] = None) -> GPUModel:
        return GPUModel(self.gpu, ppm_config=ppm_config, chunked=self.chunked, name=self.name)


# ------------------------------------------------------------------ resolution
def available_backends() -> Tuple[str, ...]:
    """Names resolvable by :func:`create_backend` (sorted)."""
    gpus = [gpu.lower() + suffix for gpu in GPUS for suffix in ("", "-chunk")]
    return tuple(sorted(["lightnobel", *gpus]))


def create_backend(spec, ppm_config: Optional[PPMConfig] = None) -> LatencyBackend:
    """Resolve a backend spec into a ready :class:`LatencyBackend`.

    Accepts a name (case-insensitive: ``"lightnobel"``, or any GPU of
    :data:`~repro.gpu.gpu_config.GPUS` with an optional ``-chunk`` suffix), a
    :class:`LightNobelConfig`, a :class:`GPUSpec`, a frozen spec with a
    ``build(ppm_config)`` factory (:class:`AcceleratorVariant`,
    :class:`GPUVariant`, ``repro.cluster.fleet.MultiChipVariant`` …), or an
    existing backend instance (returned unchanged).
    """
    if isinstance(spec, str):
        key = spec.lower()
        if key == "lightnobel":
            return LightNobelAccelerator(ppm_config=ppm_config)
        chunked = key.endswith("-chunk")
        gpu_name = key[: -len("-chunk")] if chunked else key
        try:
            gpu = get_gpu(gpu_name.upper())
        except ValueError:
            raise ValueError(
                f"unknown backend {spec!r}; expected one of {available_backends()}"
            ) from None
        return GPUModel(gpu, ppm_config=ppm_config, chunked=chunked)
    if isinstance(spec, LightNobelConfig):
        return LightNobelAccelerator(hw_config=spec, ppm_config=ppm_config)
    if isinstance(spec, GPUSpec):
        return GPUModel(spec, ppm_config=ppm_config)
    if hasattr(spec, "simulate_stack") and hasattr(spec, "config_digest"):
        return spec
    # Any frozen variant-style spec with a build(ppm_config) factory resolves
    # the same way, so new backend families need no entry here.
    build = getattr(spec, "build", None)
    if callable(build) and not isinstance(spec, type):
        return build(ppm_config)
    raise TypeError(f"cannot build a latency backend from {type(spec).__name__!r}")
