"""Deterministic fault injection and recovery policies for the cluster replay.

A production fleet is never the always-healthy machine the open-loop replay
of PR 5 assumed: workers crash and restart (with a detection lag before the
control plane notices, and a warm-up cost before the restarted worker is as
fast as a hot one), individual workers straggle for a while (thermal
throttling, noisy neighbors), and the package/node interconnect degrades
(flaky links, congested fabrics).  A :class:`FaultSchedule` pins all of this
as *data*: frozen, picklable windows and point events that
:func:`repro.cluster.des.replay_trace` folds into its discrete-event loop.

The determinism discipline matches :mod:`repro.cluster.trace`: a schedule is
either hand-built (tests pin exact instants) or generated from one seeded
``numpy`` RNG (:meth:`FaultSchedule.generate`), so a (trace, fleet, schedule)
triple replays to the bit-identical :class:`~repro.cluster.des.ClusterReport`
on every run, machine and process.

:class:`RecoveryPolicy` decides what happens to the request a crashing
worker was serving: requeue with exponential backoff (bounded retries) or
fail fast.  Retries re-enter the *scheduler*, so a retried request competes
under the same policy as fresh arrivals — no side channel.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .._digest import stable_digest


@dataclass(frozen=True)
class WorkerCrash:
    """One worker failure (and optional restart) at an absolute trace time.

    The in-flight request (if any) is lost at ``at_seconds`` but only
    *handled* at ``at_seconds + detection_lag_seconds`` — the health-check
    interval every real control plane pays before requeueing or failing the
    lost work.  ``restart_after_seconds=None`` means the worker never comes
    back; otherwise it rejoins the idle pool at ``at + restart_after`` with
    cold caches and a one-off ``warmup_seconds`` surcharge on its first
    service (weights reload / shape-cache refill).
    """

    worker_id: int
    at_seconds: float
    restart_after_seconds: Optional[float] = 30.0
    detection_lag_seconds: float = 0.5
    warmup_seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.worker_id < 0:
            raise ValueError("worker_id must be >= 0")
        if self.at_seconds < 0:
            raise ValueError("at_seconds must be >= 0")
        if self.detection_lag_seconds < 0:
            raise ValueError("detection_lag_seconds must be >= 0")
        if self.restart_after_seconds is not None and self.restart_after_seconds <= 0:
            raise ValueError("restart_after_seconds must be positive (or None)")
        if self.warmup_seconds < 0:
            raise ValueError("warmup_seconds must be >= 0")


@dataclass(frozen=True)
class StragglerWindow:
    """One worker running ``slowdown_factor``-times slower for a while.

    Applied at dispatch time: a request *started* inside the window pays the
    full slowdown (windows opening mid-service do not retroactively stretch
    in-flight work — the deterministic simplification).  Overlapping windows
    on one worker multiply.
    """

    worker_id: int
    start_seconds: float
    end_seconds: float
    slowdown_factor: float = 4.0

    def __post_init__(self) -> None:
        if self.worker_id < 0:
            raise ValueError("worker_id must be >= 0")
        if self.end_seconds <= self.start_seconds:
            raise ValueError("end_seconds must exceed start_seconds")
        if self.slowdown_factor < 1.0:
            raise ValueError("slowdown_factor must be >= 1")

    def active_at(self, now: float) -> bool:
        return self.start_seconds <= now < self.end_seconds


@dataclass(frozen=True)
class DegradedLinkWindow:
    """A worker group's :class:`~repro.hardware.interconnect.ChipLinkSpec`
    bandwidth dropping to ``bandwidth_factor`` of nominal for a while.

    Requests dispatched to the group inside the window pay their per-request
    interconnect time scaled by ``1 / bandwidth_factor`` (the whole
    collective cost — bandwidth and protocol latency — degrades together).
    Only multi-chip backends have an interconnect component; single-chip
    groups are unaffected, which is exactly the resilience argument for
    them.  Overlapping windows on one group take the *worst* factor.
    """

    group_index: int
    start_seconds: float
    end_seconds: float
    bandwidth_factor: float = 0.25

    def __post_init__(self) -> None:
        if self.group_index < 0:
            raise ValueError("group_index must be >= 0")
        if self.end_seconds <= self.start_seconds:
            raise ValueError("end_seconds must exceed start_seconds")
        if not 0.0 < self.bandwidth_factor <= 1.0:
            raise ValueError("bandwidth_factor must be in (0, 1]")

    def active_at(self, now: float) -> bool:
        return self.start_seconds <= now < self.end_seconds


class _StepFunction:
    """A summary of half-open ``[start, end)`` windows as a step function of time.

    The set of active windows can only change at a window edge, so the
    summary of the windows active on each segment between consecutive edges
    (passed to ``summarize`` in schedule order) is computed once, and a
    lookup is one bisection.  ``empty`` is the value before the first edge.
    """

    __slots__ = ("edges", "values", "empty")

    def __init__(self, windows, summarize: Callable, empty) -> None:
        self.edges = sorted(
            {t for w in windows for t in (w.start_seconds, w.end_seconds)}
        )
        self.empty = empty
        self.values = []
        by_start = sorted(range(len(windows)), key=lambda i: windows[i].start_seconds)
        opened = 0
        active: List[int] = []
        for edge in self.edges:
            while opened < len(by_start) and windows[by_start[opened]].start_seconds <= edge:
                active.append(by_start[opened])
                opened += 1
            active = sorted(i for i in active if windows[i].end_seconds > edge)
            self.values.append(summarize([windows[i] for i in active]))

    def at(self, now: float):
        k = bisect_right(self.edges, now)
        return self.values[k - 1] if k else self.empty


@dataclass(frozen=True)
class FaultSchedule:
    """Every fault the replay will inject, pinned as frozen data.

    The window lookups the replay makes per dispatch are indexed on first
    use (one step function per window kind), not scanned per call.
    """

    crashes: Tuple[WorkerCrash, ...] = ()
    stragglers: Tuple[StragglerWindow, ...] = ()
    degraded_links: Tuple[DegradedLinkWindow, ...] = ()
    name: str = ""

    def __bool__(self) -> bool:
        return bool(self.crashes or self.stragglers or self.degraded_links)

    def slowdown_at(self, worker_id: int, now: float) -> float:
        """Combined straggler slowdown on ``worker_id`` at time ``now``."""
        return self._straggler_steps.at(now)[1].get(worker_id, 1.0)

    def straggling_workers(self, now: float) -> frozenset:
        """Worker ids inside an active straggler window at time ``now``."""
        return self._straggler_steps.at(now)[0]

    def link_factor_at(self, group_index: int, now: float) -> float:
        """Worst active bandwidth factor for ``group_index`` at time ``now``."""
        return self._link_steps.at(now).get(group_index, 1.0)

    @cached_property
    def _straggler_steps(self) -> "_StepFunction":
        def summarize(active):
            slowdown: Dict[int, float] = {}
            for window in active:  # schedule order: the factors multiply in it
                slowdown[window.worker_id] = (
                    slowdown.get(window.worker_id, 1.0) * window.slowdown_factor
                )
            return frozenset(slowdown), slowdown

        return _StepFunction(self.stragglers, summarize, (frozenset(), {}))

    @cached_property
    def _link_steps(self) -> "_StepFunction":
        def summarize(active):
            worst: Dict[int, float] = {}
            for window in active:
                worst[window.group_index] = min(
                    worst.get(window.group_index, 1.0), window.bandwidth_factor
                )
            return worst

        return _StepFunction(self.degraded_links, summarize, {})

    def config_digest(self) -> str:
        """Stable content hash (cache/golden key for faulty replays)."""
        return stable_digest(
            "FaultSchedule",
            {
                "crashes": [
                    (c.worker_id, c.at_seconds, c.restart_after_seconds,
                     c.detection_lag_seconds, c.warmup_seconds)
                    for c in self.crashes
                ],
                "stragglers": [
                    (s.worker_id, s.start_seconds, s.end_seconds, s.slowdown_factor)
                    for s in self.stragglers
                ],
                "degraded_links": [
                    (d.group_index, d.start_seconds, d.end_seconds, d.bandwidth_factor)
                    for d in self.degraded_links
                ],
            },
        )

    @classmethod
    def generate(
        cls,
        num_workers: int,
        duration_seconds: float,
        seed: int = 0,
        crashes_per_worker: float = 0.5,
        mean_downtime_seconds: float = 10.0,
        detection_lag_seconds: float = 0.25,
        warmup_seconds: float = 0.0,
        stragglers_per_worker: float = 0.5,
        mean_straggle_seconds: float = 5.0,
        straggler_slowdown: float = 4.0,
        degraded_link_groups: Tuple[int, ...] = (),
        degraded_link_fraction: float = 0.2,
        degraded_bandwidth_factor: float = 0.25,
        name: str = "generated",
    ) -> "FaultSchedule":
        """Sample a schedule from one seeded RNG (trace-style determinism).

        Per worker, crash instants are uniform over the duration with an
        expected count of ``crashes_per_worker`` and exponential downtimes;
        straggler windows likewise.  Each group in ``degraded_link_groups``
        gets one degraded window covering ``degraded_link_fraction`` of the
        duration at a uniform start.  All draws come from
        ``numpy.random.default_rng(seed)`` in a fixed order, so the schedule
        is bit-identical for a given argument tuple.
        """
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if duration_seconds <= 0:
            raise ValueError("duration_seconds must be positive")
        rng = np.random.default_rng(seed)
        crashes = []
        for worker in range(num_workers):
            count = int(rng.poisson(crashes_per_worker))
            instants = np.sort(rng.uniform(0.0, duration_seconds, size=count))
            downtimes = rng.exponential(scale=mean_downtime_seconds, size=count)
            for at, downtime in zip(instants, downtimes):
                crashes.append(
                    WorkerCrash(
                        worker_id=worker,
                        at_seconds=float(at),
                        restart_after_seconds=float(max(downtime, 1e-3)),
                        detection_lag_seconds=detection_lag_seconds,
                        warmup_seconds=warmup_seconds,
                    )
                )
        stragglers = []
        for worker in range(num_workers):
            count = int(rng.poisson(stragglers_per_worker))
            starts = np.sort(rng.uniform(0.0, duration_seconds, size=count))
            spans = rng.exponential(scale=mean_straggle_seconds, size=count)
            for start, span in zip(starts, spans):
                stragglers.append(
                    StragglerWindow(
                        worker_id=worker,
                        start_seconds=float(start),
                        end_seconds=float(start + max(span, 1e-3)),
                        slowdown_factor=straggler_slowdown,
                    )
                )
        degraded = []
        for group in degraded_link_groups:
            span = degraded_link_fraction * duration_seconds
            start = float(rng.uniform(0.0, max(duration_seconds - span, 1e-9)))
            degraded.append(
                DegradedLinkWindow(
                    group_index=int(group),
                    start_seconds=start,
                    end_seconds=start + span,
                    bandwidth_factor=degraded_bandwidth_factor,
                )
            )
        return cls(
            crashes=tuple(crashes),
            stragglers=tuple(stragglers),
            degraded_links=tuple(degraded),
            name=name,
        )


#: The empty schedule: replaying with it is bit-identical to replaying
#: without one (asserted by the zero-fault property tests).
NO_FAULTS = FaultSchedule(name="none")


@dataclass(frozen=True)
class RecoveryPolicy:
    """What happens to a request lost to a worker crash.

    After the crash is detected, the request is requeued into the scheduler
    ``backoff_base_seconds * backoff_multiplier**attempt`` later (attempt 0
    is the first retry), at most ``max_retries`` times; past the bound — or
    immediately, with ``fail_fast=True`` — it is counted *failed* (one of
    the three drop buckets of :class:`~repro.cluster.des.ClusterReport`).
    """

    max_retries: int = 2
    backoff_base_seconds: float = 0.05
    backoff_multiplier: float = 2.0
    fail_fast: bool = False

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_base_seconds < 0:
            raise ValueError("backoff_base_seconds must be >= 0")
        if self.backoff_multiplier < 1.0:
            raise ValueError("backoff_multiplier must be >= 1")

    def backoff_seconds(self, attempt: int) -> float:
        """Requeue delay before retry number ``attempt`` (0-based)."""
        return self.backoff_base_seconds * self.backoff_multiplier ** attempt

    def gives_up(self, attempts_used: int) -> bool:
        return self.fail_fast or attempts_used >= self.max_retries


#: Fail every lost request immediately (the no-retry baseline).
FAIL_FAST = RecoveryPolicy(max_retries=0, fail_fast=True)
