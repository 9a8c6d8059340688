"""The one latency report: a (backend, length) point in seconds.

:class:`SimReport` is what every pricing engine returns — the LightNobel
accelerator, the GPU roofline and the multi-chip node alike — and what the
session memo, the service and the wire codec hand around.  It lives outside
:mod:`repro.sim` so the engines can build it without importing the session
layer that resolves them; every site imports it from here.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, Mapping

from .ppm.labels import PHASE_PAIR, PHASE_SEQUENCE


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
    # or ``repr`` and is left out of pickles, which only ``copy`` and process
    # pools still make.
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
