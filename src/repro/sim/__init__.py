"""Unified simulation-backend layer: sessions, batches, the report memo.

Every latency number in the repository — the accelerator model, the GPU
rooflines, the Fig. 12–16 figure loops — flows through this package.  The
two engines are the backends: each implements the
:class:`LatencyBackend` protocol itself and prices straight into the one
report type, :class:`~repro.report.SimReport`.  The package resolves specs
into engines and owns the report memo that makes repeated sweeps cheap: a
session's in-memory memo is the one cache of reports, and nothing here reads
or writes a file.

Usage
-----
Session + batch (one cached stacked operator table per distinct-length set,
all backends evaluated columnar-style)::

    from repro.sim import SimulationSession

    session = SimulationSession()                      # PPMConfig.paper()
    report = session.simulate(1410, backend="lightnobel")
    batch = session.simulate_batch(
        [300, 800, 1410], backends=["lightnobel", "h100", "h100-chunk"]
    )
    batch.mean_folding_seconds("h100-chunk")           # Fig. 14b-d metric

Design-space grids (one stacked pass per config over every length)::

    from repro.hardware import LightNobelConfig

    grid = [LightNobelConfig(num_rmpus=r) for r in (8, 16, 32)]
    batch = SimulationSession(backends=()).simulate_batch([200, 400], backends=grid)
    [batch.totals(name) for name in batch.backends]    # aligned with grid

Backends are resolved from specs — names (``"lightnobel"``, ``"a100"``,
``"h100"``, ``"a100-chunk"``, ``"h100-chunk"``), frozen config dataclasses,
:class:`AcceleratorVariant`/:class:`GPUVariant` or any frozen spec with a
``build(ppm_config)`` — and an engine instance
(``LightNobelAccelerator(...)``, ``GPUModel("H100", chunked=True)``) is a
backend as it stands.
"""

from .backend import (
    AcceleratorVariant,
    GPUVariant,
    LatencyBackend,
    available_backends,
    create_backend,
)
from .session import BatchResult, DEFAULT_BACKENDS, SimulationSession, session_for

__all__ = [
    "AcceleratorVariant",
    "BatchResult",
    "DEFAULT_BACKENDS",
    "GPUVariant",
    "LatencyBackend",
    "SimulationSession",
    "available_backends",
    "create_backend",
    "session_for",
]
