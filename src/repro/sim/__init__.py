"""Unified simulation-backend layer: sessions, batches, disk cache.

Every latency number in the repository — the accelerator model, the GPU
rooflines, the Fig. 12–16 figure loops — flows through this package.  It
abstracts the two simulators behind one protocol and owns the caches that
make repeated sweeps cheap.

Usage
-----
Session + batch (one cached operator table per distinct length, all backends
evaluated columnar-style)::

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

Disk cache (cross-process reuse of tables and reports; version-stamped, safe
to delete)::

    session = SimulationSession(cache_dir="/tmp/repro-sim")
    # or: export REPRO_SIM_CACHE_DIR=/tmp/repro-sim

Backends are resolved from specs — registered names (``"lightnobel"``,
``"a100"``, ``"h100"``, ``"a100-chunk"``, ``"h100-chunk"``), frozen config
dataclasses, or :class:`AcceleratorVariant`/:class:`GPUVariant` — and new
backends are one :func:`register_backend` call away.
"""

from .backend import (
    AcceleratorBackend,
    AcceleratorVariant,
    GPUBackend,
    GPUVariant,
    LatencyBackend,
    SimReport,
    available_backends,
    create_backend,
    register_backend,
)
from .cache import CACHE_DIR_ENV, CACHE_SCHEMA_VERSION, DiskCache, default_cache_dir
from .session import BatchResult, DEFAULT_BACKENDS, SimulationSession, session_for

__all__ = [
    "AcceleratorBackend",
    "AcceleratorVariant",
    "BatchResult",
    "CACHE_DIR_ENV",
    "CACHE_SCHEMA_VERSION",
    "DEFAULT_BACKENDS",
    "DiskCache",
    "GPUBackend",
    "GPUVariant",
    "LatencyBackend",
    "SimReport",
    "SimulationSession",
    "available_backends",
    "create_backend",
    "default_cache_dir",
    "register_backend",
    "session_for",
]
