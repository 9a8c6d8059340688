"""Sharded design-space sweeps over (backend spec, sequence length) points.

The Fig. 11/12 DSE loops evaluate hundreds of independent (config, length)
points.  Since PR 1 the columnar engine made each point cheap enough that
Python-level fan-out overhead dominates, so :func:`sweep` shards points
across a ``concurrent.futures`` process pool — falling back to a serial loop
whenever a pool is unavailable (restricted environments, pickling failures)
or not asked for (``workers=None``).  Both paths evaluate the identical
per-group function (one stacked pass per backend spec), so pool and serial
results match exactly.

A point's backend spec is anything :func:`repro.sim.backend.create_backend`
accepts *and* pickles cleanly: a registered name, a frozen config dataclass,
or an :class:`~repro.sim.backend.AcceleratorVariant`/:class:`~repro.sim.backend.GPUVariant`.
Workers rebuild the backend from the spec, so no simulator state crosses the
process boundary; each worker's process-wide LRU table cache (and, when
``REPRO_SIM_CACHE_DIR`` is set, the shared disk cache) amortizes the graph
builds within its shard.
"""

from __future__ import annotations

import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from ..ppm.config import PPMConfig
from ..ppm.op_table import StackedOperatorTable
from .backend import SimReport, create_backend
from .session import SimulationSession

#: Environment variable supplying a default worker count for :func:`sweep`.
WORKERS_ENV = "REPRO_SIM_WORKERS"


@dataclass(frozen=True)
class SweepPoint:
    """One independent simulation point of a design-space sweep.

    Results come back aligned with the input point order, so callers label
    points by position (or by the spec itself).
    """

    backend: Any
    sequence_length: int


PointLike = Union[SweepPoint, Tuple[Any, int]]


def _as_point(point: PointLike) -> SweepPoint:
    if isinstance(point, SweepPoint):
        return point
    spec, length = point
    return SweepPoint(backend=spec, sequence_length=int(length))


#: Per-process table sessions, one per (PPM config, recycles) pair; these give
#: pool workers the disk-cache path (``REPRO_SIM_CACHE_DIR``) automatically.
#: Bounded FIFO so a long-lived parent process sweeping many configs does not
#: pin tables forever (the op_table LRU already covers in-process reuse).
_WORKER_SESSIONS: Dict[Tuple[str, bool], SimulationSession] = {}
_WORKER_SESSION_LIMIT = 8


def _worker_session(ppm_config: PPMConfig, include_recycles: bool) -> SimulationSession:
    key = (ppm_config.config_digest(), include_recycles)
    session = _WORKER_SESSIONS.get(key)
    if session is None:
        while len(_WORKER_SESSIONS) >= _WORKER_SESSION_LIMIT:
            _WORKER_SESSIONS.pop(next(iter(_WORKER_SESSIONS)))
        session = SimulationSession(
            ppm_config=ppm_config, backends=(), include_recycles=include_recycles
        )
        _WORKER_SESSIONS[key] = session
    return session


def _simulate_group(
    args: Tuple[Optional[PPMConfig], bool, Any, Tuple[int, ...]]
) -> List[SimReport]:
    """Evaluate every length of one backend spec in one stacked pass.

    Runs in the parent or in a pool worker; returns reports aligned with the
    ``lengths`` tuple.
    """
    ppm_config, include_recycles, spec, lengths = args
    backend = create_backend(spec, ppm_config)
    session = _worker_session(backend.ppm_config, include_recycles)
    distinct = sorted(set(lengths))
    stack = StackedOperatorTable.from_tables([session.table(n) for n in distinct])
    by_length = dict(zip(distinct, backend.simulate_stack(stack)))
    return [by_length[n] for n in lengths]


def _spec_group_key(spec: Any) -> Tuple[Any, ...]:
    """Grouping key for a backend spec: the spec itself when hashable.

    Unhashable specs (e.g. mutable backend instances) fall back to identity,
    so they still group with themselves when repeated by reference.
    """
    try:
        hash(spec)
    except TypeError:
        return ("id", id(spec))
    return ("spec", spec)


def _group_payloads(
    payloads: List[Tuple[Optional[PPMConfig], bool, Any, int]]
) -> List[Tuple[Optional[PPMConfig], bool, Any, Tuple[int, ...]]]:
    """Coalesce per-point payloads into one group payload per backend spec."""
    order: List[Tuple[Any, ...]] = []
    groups: Dict[Tuple[Any, ...], Tuple[Any, List[int]]] = {}
    for ppm_config, include_recycles, spec, length in payloads:
        key = (_spec_group_key(spec), include_recycles)
        entry = groups.get(key)
        if entry is None:
            groups[key] = (spec, [length])
            order.append(key)
        else:
            entry[1].append(length)
    first = payloads[0]
    return [
        (first[0], key[1], groups[key][0], tuple(groups[key][1])) for key in order
    ]


def _scatter_groups(
    payloads: List[Tuple[Optional[PPMConfig], bool, Any, int]],
    group_payloads: List[Tuple[Optional[PPMConfig], bool, Any, Tuple[int, ...]]],
    group_results: List[List[SimReport]],
) -> List[SimReport]:
    """Re-align grouped results with the original point order."""
    queues: Dict[Tuple[Any, ...], List[SimReport]] = {}
    for payload, reports in zip(group_payloads, group_results):
        key = (_spec_group_key(payload[2]), payload[1])
        queues[key] = list(reports)
    out: List[SimReport] = []
    for ppm_config, include_recycles, spec, _length in payloads:
        key = (_spec_group_key(spec), include_recycles)
        out.append(queues[key].pop(0))
    return out


def resolve_workers(workers: Optional[int]) -> Optional[int]:
    """Effective worker count: the argument, else ``$REPRO_SIM_WORKERS``."""
    if workers is not None:
        return workers
    env = os.environ.get(WORKERS_ENV)
    if env:
        try:
            return int(env)
        except ValueError:
            return None
    return None


def sweep(
    points: Iterable[PointLike],
    ppm_config: Optional[PPMConfig] = None,
    workers: Optional[int] = None,
    include_recycles: bool = False,
    chunksize: Optional[int] = None,
    executor: Optional[ProcessPoolExecutor] = None,
) -> List[SimReport]:
    """Simulate every point; returns reports aligned with the input order.

    ``workers`` > 1 shards the points across a process pool; ``None``/0/1 (the
    default, or whatever ``$REPRO_SIM_WORKERS`` says) runs serially.  Any
    failure to stand up or use the pool — sandboxed environments without
    ``fork``/semaphores, unpicklable specs — degrades to the serial loop, so
    callers never have to care which path ran.

    ``executor`` submits the shards to a caller-owned, long-lived process pool
    instead of standing one up per call (the serving layer's worker pool).
    The caller keeps the lifecycle — nothing is shut down here — and pool
    failures *propagate* rather than silently degrading, so an owner can
    discard a broken pool before retrying serially.
    """
    normalized = [_as_point(p) for p in points]
    payloads = [
        (ppm_config, bool(include_recycles), p.backend, int(p.sequence_length))
        for p in normalized
    ]
    if not payloads:
        return []
    # One shard per backend spec: a group evaluates its whole length set in a
    # single stacked pass, so grouped shards are the unit of parallelism.
    group_payloads = _group_payloads(payloads)
    if executor is not None:
        if chunksize is None:
            # Prefer the caller's workers hint; peek at the executor's width
            # only as a guarded fallback (private attribute, may disappear).
            hint = resolve_workers(workers) or getattr(executor, "_max_workers", None) or 1
            chunksize = max(1, len(group_payloads) // (int(hint) * 4))
        grouped = list(executor.map(_simulate_group, group_payloads, chunksize=chunksize))
        return _scatter_groups(payloads, group_payloads, grouped)
    workers = resolve_workers(workers)
    if workers is not None and workers > 1 and len(group_payloads) > 1:
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                if chunksize is None:
                    chunksize = max(1, len(group_payloads) // (workers * 4))
                grouped = list(
                    pool.map(_simulate_group, group_payloads, chunksize=chunksize)
                )
                return _scatter_groups(payloads, group_payloads, grouped)
        except (
            BrokenProcessPool,
            pickle.PicklingError,
            TypeError,
            AttributeError,
            OSError,
            ImportError,
            NotImplementedError,
        ):
            # Pool-infrastructure failures (no fork/semaphores in the
            # environment, crashed workers) and spec-pickling failures —
            # which pickle surfaces as PicklingError, TypeError or
            # AttributeError depending on the object — degrade to the serial
            # loop.  A genuine simulation error of one of these types is
            # re-raised by the serial pass; other error types propagate from
            # the pool unchanged.
            pass
    grouped = [_simulate_group(payload) for payload in group_payloads]
    return _scatter_groups(payloads, group_payloads, grouped)
