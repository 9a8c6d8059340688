"""Capacity planning: the smallest (or cheapest) fleet that meets an SLO.

:func:`plan_capacity` sweeps fleet sizes x scheduling policies over one
trace and returns a :class:`CapacityPlan` answering the operator questions:

* the **minimal fleet size** per policy whose
  :attr:`~repro.cluster.des.ClusterReport.slo_attainment` reaches the
  target — the Fig.-12-style saturation knee, but for SLO capacity instead
  of single-request latency,
* the **cheapest plan** overall (a better policy often meets the SLO with
  fewer, or cheaper, workers — that delta is the point of the subsystem).

:func:`compare_fleets` prices *arbitrary* fleets — mixed ones included —
against each other on one trace: a couple of big-memory nodes backstopping
a sea of cheap small-memory ones (dispatched through a
:mod:`repro.cluster.routing` policy) versus the homogeneous alternatives.
The answer is the mixed-fleet claim in dollars: which fleet meets the SLO
at the lowest cost per million requests.

The expensive stage — simulating every distinct (backend, length) pair — is
shared across the whole grid: one :func:`~repro.cluster.des.prefetch_service_times`
call (one stacked pass per backend) feeds every replay, because fleet size
and policy change queueing, never per-request service time.  ``compare_fleets`` extends the
sharing across fleets: backend specs are deduplicated by content digest, so
a backend appearing in five candidate fleets is simulated once.  Replays
themselves are pure Python and deterministic, so a plan is exactly
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import (
    Callable, Dict, List, Mapping, Optional, Sequence, Tuple, TYPE_CHECKING,
)

from ..ppm.config import PPMConfig
from ..sim.session import SimulationSession
from .des import ClusterReport, ServiceTimes, prefetch_service_times, replay_trace
from .fleet import FleetSpec, WorkerGroup, _spec_digest
from .routing import RouterSpec
from .scheduler import SchedulerSpec, scheduler_name
from .trace import RequestTrace

if TYPE_CHECKING:  # optional routing + scenarios, kept import-cycle free
    from ..serving.service import LatencyService
    from .scenarios import ClusterScenario


@dataclass(frozen=True)
class PlanPoint:
    """One (fleet size, policy) cell of the capacity grid."""

    fleet: FleetSpec
    policy: str
    report: ClusterReport

    def meets(self, slo_target: float) -> bool:
        return self.report.slo_attainment >= slo_target


@dataclass(frozen=True)
class CapacityPlan:
    """Outcome of one :func:`plan_capacity` sweep."""

    trace_name: str
    slo_target: float
    points: Tuple[PlanPoint, ...]

    def for_policy(self, policy: str) -> List[PlanPoint]:
        return [p for p in self.points if p.policy == policy]

    def policies(self) -> List[str]:
        seen = dict.fromkeys(p.policy for p in self.points)
        return list(seen)

    def minimal_fleet(self, policy: Optional[str] = None) -> Optional[PlanPoint]:
        """Smallest fleet meeting the SLO target (optionally for one policy).

        Ties across policies at the same size resolve to the cheaper, then
        higher-attainment, point.
        """
        candidates = [
            p
            for p in (self.points if policy is None else self.for_policy(policy))
            if p.report.slo_attainment >= self.slo_target
        ]
        if not candidates:
            return None
        return min(
            candidates,
            key=lambda p: (
                p.fleet.num_workers,
                p.fleet.cost_per_hour,
                -p.report.slo_attainment,
            ),
        )

    def cheapest_plan(self) -> Optional[PlanPoint]:
        """Lowest cost-per-million point meeting the SLO target."""
        candidates = [
            p for p in self.points if p.report.slo_attainment >= self.slo_target
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda p: p.report.cost_per_million_requests)

    def attainment_curve(self, policy: str) -> List[Tuple[int, float]]:
        """(fleet size, SLO attainment) pairs — the fleet-size-vs-SLO curve."""
        return [
            (p.fleet.num_workers, p.report.slo_attainment)
            for p in sorted(self.for_policy(policy), key=lambda p: p.fleet.num_workers)
        ]


def _resized(
    base_fleet: Optional[FleetSpec], fleet_sizes: Sequence[int]
) -> List[FleetSpec]:
    """``base_fleet`` (default: one ``"lightnobel"`` worker) at each distinct
    size, ascending."""
    base_fleet = base_fleet or FleetSpec.homogeneous("lightnobel", 1)
    if len(base_fleet.groups) != 1:
        raise ValueError("base_fleet must be homogeneous for a fleet-size sweep")
    return [
        base_fleet.with_size(size)
        for size in sorted(dict.fromkeys(int(s) for s in fleet_sizes))
    ]


def _grid(
    runs: Sequence[Tuple[RequestTrace, Callable[..., ClusterReport]]],
    fleets: Sequence[FleetSpec],
    policies: Sequence[SchedulerSpec],
    slo_target: float,
    prefetch: Mapping[str, object],
    **options,
) -> List[Tuple[PlanPoint, ...]]:
    """Replay every (fleet, policy) cell once per ``(trace, replay)`` run.

    The loop behind every planner.  It checks ``slo_target`` before any
    work, prefetches service times once per distinct trace object
    (``prefetch`` are :func:`~repro.cluster.des.prefetch_service_times`
    options), and calls ``replay(fleet, scheduler=..., service_times=...,
    **options)`` for each cell.  Each cell also gets the prefetch's
    ``ppm_config``, ``session`` and ``service``, so a degraded-link delay is
    priced at the same config as the service times.  Returns one tuple of
    points per run.
    """
    if not 0.0 < slo_target <= 1.0:
        raise ValueError("slo_target must be in (0, 1]")
    # One prefetch per trace prices each distinct backend spec once, however
    # many fleets share it; per-fleet tables are re-keyed views of it.
    distinct: Dict[str, object] = {}
    for fleet in fleets:
        for group in fleet.groups:
            distinct.setdefault(_spec_digest(group.backend), group.backend)
    source_index = {d: i for i, d in enumerate(distinct)}
    synthetic = FleetSpec(
        groups=tuple(
            WorkerGroup(backend=backend, count=1) for backend in distinct.values()
        ),
        name="planner-prefetch",
    )
    pricing = {key: prefetch.get(key) for key in ("ppm_config", "session", "service")}
    shared_by_trace: Dict[int, ServiceTimes] = {}
    grids: List[Tuple[PlanPoint, ...]] = []
    for trace, replay in runs:
        shared = shared_by_trace.get(id(trace))
        if shared is None:
            shared = shared_by_trace[id(trace)] = prefetch_service_times(
                trace, synthetic, **prefetch
            )
        lengths = trace.distinct_lengths()
        points: List[PlanPoint] = []
        for fleet in fleets:
            times: ServiceTimes = {}
            for gi, group in enumerate(fleet.groups):
                src = source_index[_spec_digest(group.backend)]
                for n in lengths:
                    times[(gi, n)] = shared[(src, n)]
            for policy in policies:
                # Scheduler *instances* are stateful (bucket cursors, quotas):
                # every grid cell replays against a fresh copy so a cell's
                # report is identical to a standalone replay of that cell.
                fresh = getattr(policy, "fresh", None)
                cell_policy = (
                    fresh()
                    if callable(fresh) and not isinstance(policy, type)
                    else policy
                )
                report = replay(
                    fleet, scheduler=cell_policy, service_times=times, **pricing, **options
                )
                points.append(
                    PlanPoint(fleet=fleet, policy=scheduler_name(policy), report=report)
                )
        grids.append(tuple(points))
    return grids


def plan_capacity(
    trace: RequestTrace,
    base_fleet: Optional[FleetSpec] = None,
    fleet_sizes: Sequence[int] = (1, 2, 4, 8),
    policies: Sequence[SchedulerSpec] = ("fifo", "edf"),
    slo_target: float = 0.95,
    ppm_config: Optional[PPMConfig] = None,
    session: Optional[SimulationSession] = None,
    service: Optional["LatencyService"] = None,
    same_length_reuse_discount: float = 0.0,
    length_bucket_size: Optional[int] = None,
    router: RouterSpec = None,
) -> CapacityPlan:
    """Sweep ``fleet_sizes`` x ``policies`` over ``trace``; rank against the SLO.

    ``base_fleet`` must be homogeneous (its single worker group is rescaled
    to each size; default: one ``"lightnobel"`` group).  One shared
    service-time prefetch feeds every cell.

    ``length_bucket_size`` forwards to
    :func:`~repro.cluster.des.prefetch_service_times`: the prefetch simulates
    only one (conservative, bucket-max) representative per shape bucket,
    shrinking the planner grid's simulation cost from O(distinct lengths) to
    O(buckets).  Default ``None`` keeps exact per-length pricing.
    """
    (points,) = _grid(
        [(trace, partial(replay_trace, trace))],
        _resized(base_fleet, fleet_sizes),
        policies,
        slo_target,
        dict(
            ppm_config=ppm_config, session=session, service=service,
            length_bucket_size=length_bucket_size,
        ),
        same_length_reuse_discount=same_length_reuse_discount,
        router=router,
    )
    return CapacityPlan(trace_name=trace.name, slo_target=slo_target, points=points)


@dataclass(frozen=True)
class FleetComparison:
    """Outcome of one :func:`compare_fleets` sweep across candidate fleets."""

    trace_name: str
    slo_target: float
    points: Tuple[PlanPoint, ...]

    def for_fleet(self, name: str) -> List[PlanPoint]:
        return [p for p in self.points if p.fleet.name == name]

    def fleet_names(self) -> List[str]:
        return list(dict.fromkeys(p.fleet.name for p in self.points))

    def meeting(self) -> List[PlanPoint]:
        """Every (fleet, policy) cell whose attainment reaches the target."""
        return [
            p for p in self.points if p.report.slo_attainment >= self.slo_target
        ]

    def cheapest_plan(self) -> Optional[PlanPoint]:
        """Lowest cost-per-million cell meeting the SLO target."""
        candidates = self.meeting()
        if not candidates:
            return None
        return min(candidates, key=lambda p: p.report.cost_per_million_requests)

    def cheapest_per_fleet(self) -> Dict[str, Optional[PlanPoint]]:
        """Each fleet's cheapest SLO-meeting cell (None = never meets it)."""
        result: Dict[str, Optional[PlanPoint]] = {}
        for name in self.fleet_names():
            meeting = [
                p
                for p in self.for_fleet(name)
                if p.report.slo_attainment >= self.slo_target
            ]
            result[name] = (
                min(meeting, key=lambda p: p.report.cost_per_million_requests)
                if meeting
                else None
            )
        return result

    def summary_lines(self) -> Tuple[str, ...]:
        lines = []
        for name, point in self.cheapest_per_fleet().items():
            if point is None:
                lines.append(f"{name}: never meets {self.slo_target:.0%} SLO")
            else:
                lines.append(
                    f"{name}: ${point.report.cost_per_million_requests:.2f}/M"
                    f" at {point.report.slo_attainment:.4f} SLO"
                    f" ({point.policy}, router={point.report.router})"
                )
        return tuple(lines)


def compare_fleets(
    trace: RequestTrace,
    fleets: Sequence[FleetSpec],
    policies: Sequence[SchedulerSpec] = ("edf",),
    slo_target: float = 0.95,
    router: RouterSpec = None,
    ppm_config: Optional[PPMConfig] = None,
    session: Optional[SimulationSession] = None,
    service: Optional["LatencyService"] = None,
    same_length_reuse_discount: float = 0.0,
    length_bucket_size: Optional[int] = None,
) -> FleetComparison:
    """Price arbitrary (mixed included) fleets against one trace and SLO.

    The mixed-fleet sibling of :func:`plan_capacity`: instead of rescaling
    one homogeneous group, every candidate :class:`~repro.cluster.fleet.FleetSpec`
    replays as-is — heterogeneous groups, per-group costs and all — under
    every policy, with ``router`` applied to each replay (pass e.g.
    ``"cost-greedy"`` so a mixed fleet actually exploits its cheap groups;
    ``None`` replays the group-oblivious baseline).

    Backend specs are deduplicated across fleets by content digest, so the
    prefetch simulates each distinct backend once no matter how many
    candidate fleets share it.
    """
    if not fleets:
        raise ValueError("compare_fleets needs at least one candidate fleet")
    (points,) = _grid(
        [(trace, partial(replay_trace, trace))],
        fleets,
        policies,
        slo_target,
        dict(
            ppm_config=ppm_config, session=session, service=service,
            length_bucket_size=length_bucket_size,
        ),
        same_length_reuse_discount=same_length_reuse_discount,
        router=router,
    )
    return FleetComparison(trace_name=trace.name, slo_target=slo_target, points=points)


def plan_capacity_under_scenarios(
    scenarios: Sequence["ClusterScenario"],
    base_fleet: Optional[FleetSpec] = None,
    fleet_sizes: Sequence[int] = (1, 2, 4, 8),
    policies: Sequence[SchedulerSpec] = ("fifo", "edf"),
    slo_target: float = 0.95,
    ppm_config: Optional[PPMConfig] = None,
    session: Optional[SimulationSession] = None,
    service: Optional["LatencyService"] = None,
    same_length_reuse_discount: float = 0.0,
    length_bucket_size: Optional[int] = None,
) -> Dict[str, CapacityPlan]:
    """One :class:`CapacityPlan` per scenario, sharing prefetches across them.

    The scenario-aware sibling of :func:`plan_capacity`: every
    :class:`~repro.cluster.scenarios.ClusterScenario` replays the full
    (fleet size x policy) grid *with its faults and controllers applied*, so
    a plan answers "how big must the fleet be to survive this situation",
    not just "to serve this traffic".  Scenarios sharing a trace (the pinned
    suite does) share one service-time prefetch.  Feed the result to
    :func:`robust_minimal_fleet` for the fleet that survives *every*
    scenario.
    """
    # Equal traces share one prefetch: map each to the first of its digest.
    canonical: Dict[str, RequestTrace] = {}
    grids = _grid(
        [
            (canonical.setdefault(s.trace.config_digest(), s.trace), s.replay)
            for s in scenarios
        ],
        _resized(base_fleet, fleet_sizes),
        policies,
        slo_target,
        dict(
            ppm_config=ppm_config, session=session, service=service,
            length_bucket_size=length_bucket_size,
        ),
        same_length_reuse_discount=same_length_reuse_discount,
    )
    return {
        scenario.name: CapacityPlan(
            trace_name=scenario.trace.name, slo_target=slo_target, points=points
        )
        for scenario, points in zip(scenarios, grids)
    }


def robust_minimal_fleet(
    plans: Mapping[str, CapacityPlan],
    policy: Optional[str] = None,
) -> Optional[PlanPoint]:
    """Smallest (fleet size, policy) cell meeting its target in *every* plan.

    Attainment is not guaranteed monotone in fleet size under faults (a
    bigger fleet draws a different fault overlap), so this intersects the
    grids cell-by-cell rather than taking the max of per-scenario minima.
    Returns the qualifying cell's point from an arbitrary plan (they share
    fleet and policy; reports differ per scenario), or ``None`` when no
    cell survives everywhere.
    """
    if not plans:
        return None
    survivors: Optional[Dict[Tuple[int, str], PlanPoint]] = None
    for plan in plans.values():
        cells = {
            (p.fleet.num_workers, p.policy): p
            for p in plan.points
            if (policy is None or p.policy == policy)
            and p.report.slo_attainment >= plan.slo_target
        }
        if survivors is None:
            survivors = cells
        else:
            survivors = {k: v for k, v in survivors.items() if k in cells}
    if not survivors:
        return None
    return min(
        survivors.values(),
        key=lambda p: (
            p.fleet.num_workers,
            p.fleet.cost_per_hour,
            -p.report.slo_attainment,
        ),
    )
