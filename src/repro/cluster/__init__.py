"""Trace-driven cluster simulation: fleets, scheduling policies, SLO planning.

The fourth layer of the simulation stack: PR 1 made one simulation cheap
(columnar engine), PR 2 made repeated simulations cheap (sessions, sweeps,
the report memo), PR 3 made concurrent queries cheap (the serving layer) — this
package asks the fleet-level question those layers exist for: **how many
chips, scheduled how, meet what SLO under realistic protein-length traffic,
at what cost** — and, since PR 6, **what happens when the fleet breaks**:
workers crash and restart, stragglers appear, links degrade, and the
closed-loop controllers (admission control, autoscaling) fight back.

Usage
-----
Generate traffic, describe a fleet, replay, read the report::

    from repro.cluster import (
        FleetSpec, SLOPolicy, mixture_lengths, poisson_trace, replay_trace,
    )

    pool, weights = mixture_lengths([(128, 0.6), (256, 0.3), (512, 0.1)])
    trace = poisson_trace(
        rate_rps=80.0, num_requests=500, length_pool=pool,
        length_weights=weights, slo=SLOPolicy(), seed=7,
    )
    fleet = FleetSpec.homogeneous("lightnobel", 4)
    report = replay_trace(trace, fleet, scheduler="edf")
    report.p99_latency_seconds, report.slo_attainment, report.utilization

Multi-chip nodes compose per-chip reports with package-interconnect costs::

    from repro.cluster import MultiChipVariant
    node = MultiChipVariant(base="lightnobel", chips=4)
    fleet = FleetSpec.homogeneous(node, 2)          # 2 nodes x 4 chips

Capacity planning (smallest fleet meeting a 95% SLO)::

    from repro.cluster import plan_capacity
    plan = plan_capacity(trace, fleet_sizes=(1, 2, 4, 8),
                         policies=("fifo", "sjf", "bucketed", "edf"))
    plan.minimal_fleet(), plan.cheapest_plan(), plan.attainment_curve("edf")

Fault injection and closed-loop control (all optional keyword arguments of
:func:`replay_trace`; every default preserves the open-loop replay
bit-for-bit)::

    from repro.cluster import (
        AdmissionController, Autoscaler, FaultSchedule, RecoveryPolicy,
    )
    faults = FaultSchedule.generate(4, trace.duration_seconds, seed=3)
    report = replay_trace(
        trace, fleet, scheduler="edf",
        faults=faults, recovery=RecoveryPolicy(max_retries=2),
        admission=AdmissionController(max_queue_depth=64),
        autoscaler=Autoscaler(min_workers=4, max_workers=8, slo_target=0.99),
    )
    report.retried, report.shed, report.failed, report.availability

The pinned scenario suite and the headline resilience measurement::

    from repro.cluster import resilience_experiment, scenario_suite
    summary = resilience_experiment()           # plan, break, close the loop
    print(*summary.summary_lines(), sep="\\n")

Heterogeneous fleets (PR 8): mixed worker groups with a routing policy on
top of any scheduler, fleet-vs-fleet pricing, and live-traffic replay::

    from repro.cluster import RequestTrace, compare_fleets, mixed_fleet_experiment
    report = replay_trace(trace, mixed_fleet, scheduler="edf", router="cost-greedy")
    summary = mixed_fleet_experiment()          # big+cheap beats all-big, in $/M
    print(*summary.summary_lines(), sep="\\n")

    trace = RequestTrace.from_serving_log(service.request_log())
    replay_trace(trace, fleet)                  # replay yesterday's real traffic

Replays are bit-deterministic for fixed trace/fault seeds; scheduling
policies share priority/deadline semantics with the live
:class:`~repro.serving.service.LatencyService` dispatcher.

Facade
------
This module exports the cluster layer's documented surface: traffic
(:func:`create_trace` plus the named generators), fleets, replay, faults,
control loops, planning, scenarios, and the router/scheduler *factories*
(:func:`create_router`, :func:`create_scheduler` — the repo-wide
``create_*`` family shared with :func:`repro.sim.backend.create_backend`
and :func:`repro.serving.create_service`).
"""

from .control import ADMIT_ALL, AdmissionController, Autoscaler
from .des import (
    ClusterReport,
    RequestOutcome,
    prefetch_communication_seconds,
    prefetch_service_times,
    replay_trace,
    replay_trace_outcomes,
)
from .faults import (
    FAIL_FAST,
    NO_FAULTS,
    DegradedLinkWindow,
    FaultSchedule,
    RecoveryPolicy,
    StragglerWindow,
    WorkerCrash,
)
from .fleet import (
    DEFAULT_COST_PER_HOUR,
    FleetSpec,
    MultiChipBackend,
    MultiChipVariant,
    WorkerGroup,
    WorkerHealth,
)
from .planner import (
    CapacityPlan,
    FleetComparison,
    PlanPoint,
    compare_fleets,
    plan_capacity,
    plan_capacity_under_scenarios,
    robust_minimal_fleet,
)
from .routing import (
    ROUTERS,
    CostGreedyRouter,
    GroupInfo,
    LengthThresholdRouter,
    MemoryFitRouter,
    RouterSpec,
    create_router,
)
from .scenarios import (
    ClusterScenario,
    MixedFleetSummary,
    ResilienceSummary,
    mixed_fleet_experiment,
    mixed_fleet_trace,
    named_scenario,
    resilience_experiment,
    scenario_suite,
    small_memory_gpu,
)
from .scheduler import (
    BucketedScheduler,
    EDFScheduler,
    FIFOScheduler,
    SCHEDULERS,
    SJFScheduler,
    Scheduler,
    create_scheduler,
)
from .trace import (
    NO_SLO,
    TRACE_GENERATORS,
    Request,
    RequestTrace,
    SLOPolicy,
    bursty_trace,
    create_trace,
    dataset_lengths,
    diurnal_trace,
    mixture_lengths,
    poisson_trace,
)

__all__ = [
    "ADMIT_ALL",
    "AdmissionController",
    "Autoscaler",
    "BucketedScheduler",
    "CapacityPlan",
    "ClusterReport",
    "ClusterScenario",
    "CostGreedyRouter",
    "DEFAULT_COST_PER_HOUR",
    "DegradedLinkWindow",
    "EDFScheduler",
    "FAIL_FAST",
    "FIFOScheduler",
    "FaultSchedule",
    "FleetComparison",
    "FleetSpec",
    "GroupInfo",
    "LengthThresholdRouter",
    "MemoryFitRouter",
    "MixedFleetSummary",
    "MultiChipBackend",
    "MultiChipVariant",
    "NO_FAULTS",
    "NO_SLO",
    "PlanPoint",
    "ROUTERS",
    "RouterSpec",
    "RecoveryPolicy",
    "Request",
    "RequestOutcome",
    "RequestTrace",
    "ResilienceSummary",
    "SCHEDULERS",
    "SJFScheduler",
    "SLOPolicy",
    "Scheduler",
    "StragglerWindow",
    "TRACE_GENERATORS",
    "WorkerCrash",
    "WorkerGroup",
    "WorkerHealth",
    "bursty_trace",
    "compare_fleets",
    "create_router",
    "create_scheduler",
    "create_trace",
    "dataset_lengths",
    "diurnal_trace",
    "mixed_fleet_experiment",
    "mixed_fleet_trace",
    "mixture_lengths",
    "named_scenario",
    "plan_capacity",
    "plan_capacity_under_scenarios",
    "poisson_trace",
    "prefetch_communication_seconds",
    "prefetch_service_times",
    "replay_trace",
    "replay_trace_outcomes",
    "resilience_experiment",
    "robust_minimal_fleet",
    "scenario_suite",
    "small_memory_gpu",
]
