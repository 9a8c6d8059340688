"""Pinned closed-loop scenarios: traffic + faults + controllers as one object.

A :class:`ClusterScenario` bundles everything :func:`repro.cluster.des.replay_trace`
needs besides the fleet: the trace, the fault schedule, the recovery policy
and the (optional) admission controller and autoscaler.  :func:`scenario_suite`
pins the three canonical scenarios the golden tests replay —

* ``diurnal`` — sinusoidal load with a flash crowd, healthy fleet (the
  traffic shape capacity planning should size for),
* ``flash-crowd`` — the same traffic behind a bounded queue (admission
  control sheds the spike's overflow instead of poisoning every later
  request's latency),
* ``faulty`` — the same traffic on a fleet that crashes and straggles,
  closed-loop: bounded retries, admission control and an SLO-tracking
  autoscaler.

All three derive from seeded generators, so a (scenario, fleet) pair
replays to the bit-identical report everywhere — the same golden discipline
as the plain traces.

:func:`resilience_experiment` is the headline measurement of this layer:
size the *smallest* fleet that meets a 99% SLO on healthy traffic (via
:func:`~repro.cluster.planner.plan_capacity`), then show that under the
failure scenario (a) that fixed fleet misses the SLO, and (b) the same
fleet with admission control and an autoscaler meets it — with
dollars-per-million-requests for both, so the cost of resilience is a
number, not an adjective.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dataclass_replace
from typing import Optional, Sequence, Tuple, TYPE_CHECKING

from .._digest import stable_digest
from ..gpu.gpu_config import GPUS, GPUSpec
from ..ppm.config import PPMConfig
from ..sim.session import SimulationSession
from .control import AdmissionController, Autoscaler
from .des import (
    ClusterReport,
    RequestOutcome,
    prefetch_service_times,
    replay_trace_outcomes,
)
from .faults import NO_FAULTS, FaultSchedule, RecoveryPolicy
from .fleet import FleetSpec, MultiChipVariant, WorkerGroup
from .planner import FleetComparison, PlanPoint, compare_fleets, plan_capacity
from .routing import RouterSpec
from .scheduler import SchedulerSpec
from .trace import (
    RequestTrace,
    SLOPolicy,
    bursty_trace,
    diurnal_trace,
    mixture_lengths,
)

if TYPE_CHECKING:  # optional routing, kept import-cycle free
    from ..serving.service import LatencyService


@dataclass(frozen=True)
class ClusterScenario:
    """One replayable situation: traffic plus faults plus control loops."""

    name: str
    trace: RequestTrace
    faults: FaultSchedule = NO_FAULTS
    recovery: RecoveryPolicy = RecoveryPolicy()
    admission: Optional[AdmissionController] = None
    autoscaler: Optional[Autoscaler] = None

    def replay(
        self, fleet: FleetSpec, scheduler: SchedulerSpec = "edf", **options
    ) -> ClusterReport:
        """Replay this scenario on ``fleet``; ``options`` as for
        :func:`~repro.cluster.des.replay_trace`, minus the ones the scenario
        owns (``faults``, ``recovery``, ``admission``, ``autoscaler``)."""
        return self.replay_outcomes(fleet, scheduler, **options)[0]

    def replay_outcomes(
        self, fleet: FleetSpec, scheduler: SchedulerSpec = "edf", **options
    ) -> Tuple[ClusterReport, Tuple[RequestOutcome, ...]]:
        """:meth:`replay` plus the per-request outcome log."""
        return replay_trace_outcomes(
            self.trace,
            fleet,
            scheduler,
            faults=self.faults,
            recovery=self.recovery,
            admission=self.admission,
            autoscaler=self.autoscaler,
            **options,
        )

    def config_digest(self) -> str:
        """Stable content hash over everything that shapes a replay."""
        return stable_digest(
            "ClusterScenario",
            {
                "trace": self.trace.config_digest(),
                "faults": self.faults.config_digest(),
                "recovery": (
                    self.recovery.max_retries,
                    self.recovery.backoff_base_seconds,
                    self.recovery.backoff_multiplier,
                    self.recovery.fail_fast,
                ),
                "admission": (
                    None
                    if self.admission is None
                    else (
                        self.admission.max_queue_depth,
                        self.admission.priority_depth_fraction,
                    )
                ),
                "autoscaler": (
                    None
                    if self.autoscaler is None
                    else (
                        self.autoscaler.min_workers,
                        self.autoscaler.max_workers,
                        self.autoscaler.interval_seconds,
                        self.autoscaler.scale_up_queue_per_worker,
                        self.autoscaler.scale_down_queue_per_worker,
                        self.autoscaler.slo_target,
                        self.autoscaler.attainment_window,
                        self.autoscaler.scale_up_lag_seconds,
                        self.autoscaler.scale_step,
                    )
                ),
            },
        )


# ---------------------------------------------------------------- the suite
#: Length mix and SLO shared by the pinned scenarios (the PR 5 golden mix).
SCENARIO_MIX = ((32, 0.6), (96, 0.25), (160, 0.15))
SCENARIO_SLO = SLOPolicy(base_seconds=0.035, per_residue_seconds=2.0e-4)


def scenario_trace(
    seed: int = 11,
    rate_rps: float = 300.0,
    num_requests: int = 900,
) -> RequestTrace:
    """The shared diurnal-with-flash-crowd traffic of the pinned suite.

    A compressed diurnal cycle (~1.2 s period, +-55% swing) with a 5x flash
    crowd a third of the way in — short enough to replay in milliseconds,
    long enough to hold several autoscaler reaction windows.
    """
    pool, weights = mixture_lengths(SCENARIO_MIX)
    return diurnal_trace(
        rate_rps=rate_rps,
        num_requests=num_requests,
        length_pool=pool,
        length_weights=weights,
        slo=SCENARIO_SLO,
        period_seconds=1.2,
        amplitude=0.55,
        flash_at_seconds=1.0,
        flash_duration_seconds=0.25,
        flash_factor=5.0,
        seed=seed,
    )


def scenario_faults(
    num_workers: int,
    duration_seconds: float,
    seed: int = 11,
) -> FaultSchedule:
    """The pinned failure pattern scaled to a fleet and trace duration.

    Roughly one crash per worker (short exponential downtimes with a warm-up
    surcharge on restart), one straggler window per worker, and one
    degraded-link window over the (single) group — dense enough that a
    minimally-sized fleet visibly suffers, mild enough that a closed-loop
    fleet can absorb it.
    """
    return FaultSchedule.generate(
        num_workers=num_workers,
        duration_seconds=duration_seconds,
        seed=seed,
        crashes_per_worker=1.0,
        mean_downtime_seconds=duration_seconds * 0.12,
        detection_lag_seconds=0.002,
        warmup_seconds=0.004,
        stragglers_per_worker=1.0,
        mean_straggle_seconds=duration_seconds * 0.05,
        straggler_slowdown=3.0,
        degraded_link_groups=(0,),
        degraded_link_fraction=0.15,
        degraded_bandwidth_factor=0.5,
        name="pinned-faults",
    )


def scenario_controllers(
    baseline_workers: int,
    slo_target: float = 0.99,
) -> Tuple[AdmissionController, Autoscaler]:
    """The pinned closed-loop controllers sized around a baseline fleet.

    Admission is a wide safety valve (it sheds only a catastrophic backlog,
    low priority first); the autoscaler holds the baseline as its floor and
    buys up to 2x the baseline when rolling attainment dips below the
    target or the queue grows — reacting every 20 simulated milliseconds
    with a 60 ms provisioning lag.
    """
    admission = AdmissionController(
        max_queue_depth=max(32, 16 * baseline_workers),
        priority_depth_fraction=0.5,
    )
    autoscaler = Autoscaler(
        min_workers=baseline_workers,
        max_workers=max(2 * baseline_workers, baseline_workers + 2),
        interval_seconds=0.02,
        scale_up_queue_per_worker=3.0,
        scale_down_queue_per_worker=0.5,
        slo_target=slo_target,
        attainment_window=50,
        scale_up_lag_seconds=0.06,
        scale_step=1,
    )
    return admission, autoscaler


def scenario_suite(
    seed: int = 11,
    num_workers: int = 4,
    slo_target: float = 0.99,
) -> Tuple[ClusterScenario, ...]:
    """The three pinned scenarios the golden tests replay."""
    trace = scenario_trace(seed=seed)
    faults = scenario_faults(num_workers, trace.duration_seconds, seed=seed)
    admission, autoscaler = scenario_controllers(num_workers, slo_target)
    return (
        ClusterScenario(name="diurnal", trace=trace),
        ClusterScenario(name="flash-crowd", trace=trace, admission=admission),
        ClusterScenario(
            name="faulty",
            trace=trace,
            faults=faults,
            recovery=RecoveryPolicy(max_retries=2, backoff_base_seconds=0.005),
            admission=admission,
            autoscaler=autoscaler,
        ),
    )


def named_scenario(name: str, **kwargs) -> ClusterScenario:
    """Look up one pinned scenario by name."""
    suite = scenario_suite(**kwargs)
    for scenario in suite:
        if scenario.name == name:
            return scenario
    raise ValueError(
        f"unknown scenario {name!r}; expected one of "
        f"{[s.name for s in suite]}"
    )


# ----------------------------------------------------- headline measurement
@dataclass(frozen=True)
class ResilienceSummary:
    """Outcome of :func:`resilience_experiment` — the cost of resilience.

    ``healthy`` is the planner-sized fleet on fault-free traffic;
    ``faulty_fixed`` is the same fixed fleet under the failure scenario
    (open loop, retries only); ``faulty_controlled`` adds admission control
    and the autoscaler.  The acceptance claim of this layer:
    ``faulty_fixed`` misses the SLO target, ``faulty_controlled`` meets it.
    """

    slo_target: float
    planned_workers: int
    healthy: ClusterReport
    faulty_fixed: ClusterReport
    faulty_controlled: ClusterReport

    @property
    def fixed_meets_slo(self) -> bool:
        return self.faulty_fixed.slo_attainment >= self.slo_target

    @property
    def controlled_meets_slo(self) -> bool:
        return self.faulty_controlled.slo_attainment >= self.slo_target

    def summary_lines(self) -> Tuple[str, ...]:
        def fmt(tag: str, report: ClusterReport) -> str:
            return (
                f"{tag}: slo={report.slo_attainment:.4f}"
                f" cost=${report.cost_per_million_requests:.2f}/M"
                f" mean_fleet={report.mean_fleet_size:.2f}"
                f" shed={report.shed} failed={report.failed}"
                f" retried={report.retried}"
                f" availability={report.availability:.4f}"
            )

        return (
            f"planned fleet: {self.planned_workers} workers"
            f" @ {self.slo_target:.0%} SLO",
            fmt("healthy        ", self.healthy),
            fmt("faulty (fixed) ", self.faulty_fixed),
            fmt("faulty (closed)", self.faulty_controlled),
        )


def resilience_experiment(
    ppm_config: Optional[PPMConfig] = None,
    session: Optional[SimulationSession] = None,
    service: Optional["LatencyService"] = None,
    backend_spec=None,
    fleet_sizes: Sequence[int] = (2, 3, 4, 5, 6, 8),
    slo_target: float = 0.99,
    scheduler: SchedulerSpec = "edf",
    same_length_reuse_discount: float = 0.25,
    seed: int = 11,
) -> ResilienceSummary:
    """Plan a healthy fleet, then break it — and close the loop.

    1. Size the smallest fleet meeting ``slo_target`` on the healthy
       diurnal/flash trace (one shared prefetch feeds the whole grid).
    2. Replay the failure scenario on that *fixed* fleet: retries only.
    3. Replay it again with the pinned admission controller and autoscaler
       (floor = planned size, ceiling = 2x).

    Returns the three reports; ``summary_lines()`` formats the comparison
    the docs quote.
    """
    if backend_spec is None:
        backend_spec = MultiChipVariant(base="h100-chunk", chips=2)
    trace = scenario_trace(seed=seed)
    base_fleet = FleetSpec.homogeneous(backend_spec, 1)
    times = prefetch_service_times(
        trace,
        base_fleet,
        ppm_config=ppm_config,
        session=session,
        service=service,
    )
    plan = plan_capacity(
        trace,
        base_fleet=base_fleet,
        fleet_sizes=fleet_sizes,
        policies=(scheduler,),
        slo_target=slo_target,
        same_length_reuse_discount=same_length_reuse_discount,
        # plan_capacity re-prefetches unless given a service_times shortcut;
        # replay_trace accepts ours directly below, and the planner shares
        # the session memo cache, so the prefetch above is the only slow one.
        ppm_config=ppm_config,
        session=session,
        service=service,
    )
    minimal = plan.minimal_fleet()
    if minimal is None:
        raise ValueError(
            f"no fleet size in {tuple(fleet_sizes)} meets the"
            f" {slo_target:.0%} SLO on the healthy trace"
        )
    planned = minimal.fleet.num_workers
    fleet = base_fleet.with_size(planned)
    healthy = minimal.report
    faults = scenario_faults(planned, trace.duration_seconds, seed=seed)
    recovery = RecoveryPolicy(max_retries=2, backoff_base_seconds=0.005)
    admission, autoscaler = scenario_controllers(planned, slo_target)
    # The prefetch's config prices the degraded-link delays too.
    pricing = dict(ppm_config=ppm_config, session=session, service=service)
    faulty_fixed, _ = replay_trace_outcomes(
        trace,
        fleet,
        scheduler=scheduler,
        service_times=times,
        same_length_reuse_discount=same_length_reuse_discount,
        faults=faults,
        recovery=recovery,
        **pricing,
    )
    faulty_controlled, _ = replay_trace_outcomes(
        trace,
        fleet,
        scheduler=scheduler,
        service_times=times,
        same_length_reuse_discount=same_length_reuse_discount,
        faults=faults,
        recovery=recovery,
        admission=admission,
        autoscaler=autoscaler,
        **pricing,
    )
    return ResilienceSummary(
        slo_target=slo_target,
        planned_workers=planned,
        healthy=healthy,
        faulty_fixed=faulty_fixed,
        faulty_controlled=faulty_controlled,
    )


# ------------------------------------------------- mixed-fleet measurement
#: Long-tail traffic of the mixed-fleet experiment: mostly short proteins, a
#: 6% tail of 512-residue ones — the length the small-memory node cannot
#: hold.  Deadlines are per-token with enough headroom that a 512 served
#: promptly on a big node meets its SLO, but an OOM-drop never does.
MIXED_FLEET_MIX = ((32, 0.55), (96, 0.27), (160, 0.12), (512, 0.06))
MIXED_FLEET_SLO = SLOPolicy(base_seconds=0.1, per_residue_seconds=6.0e-3)


def small_memory_gpu(memory_gb: float = 8.0) -> GPUSpec:
    """The "cheap node" of the mixed-fleet experiment: an A100 cut to 8 GB.

    Same compute and bandwidth, a fraction of the memory — so it serves the
    short-protein traffic at full speed and OOMs on the 512-residue tail
    (the tiny-config peak memory crosses 8 GB between n=384 and n=512).
    Priced below the big nodes via an explicit per-group rate; the point of
    the experiment is that memory, not FLOPs, is what the big nodes charge
    for.
    """
    return dataclass_replace(GPUS["A100"], name=f"a100-{memory_gb:g}g", memory_gb=memory_gb)


def mixed_fleet_trace(
    seed: int = 11,
    rate_rps: float = 15.0,
    num_requests: int = 360,
) -> RequestTrace:
    """The pinned long-tail bursty traffic the mixed-fleet golden replays."""
    pool, weights = mixture_lengths(MIXED_FLEET_MIX)
    return bursty_trace(
        rate_rps=rate_rps,
        num_requests=num_requests,
        length_pool=pool,
        length_weights=weights,
        slo=MIXED_FLEET_SLO,
        seed=seed,
        name="long-tail",
    )


def mixed_fleet_candidates(
    big_spec="h100-chunk",
    cheap_cost_per_hour: float = 2.05,
    big_counts: Sequence[int] = (2, 3),
    cheap_counts: Sequence[int] = (2, 3),
    homogeneous_sizes: Sequence[int] = (6, 7, 8),
) -> Tuple[FleetSpec, ...]:
    """The candidate fleets the experiment prices against each other.

    Mixed fleets pair ``big_counts`` big-memory workers with
    ``cheap_counts`` small-memory ones; homogeneous fleets are the big node
    alone at ``homogeneous_sizes`` and the cheap node alone (the 512 tail
    OOMs on it, so it meets the SLO only on traces where that tail is at
    most 1 - SLO of the requests).
    """
    cheap = small_memory_gpu()
    fleets = []
    for big in big_counts:
        for small in cheap_counts:
            fleets.append(
                FleetSpec(
                    groups=(
                        WorkerGroup(backend=big_spec, count=big),
                        WorkerGroup(
                            backend=cheap,
                            count=small,
                            cost_per_hour=cheap_cost_per_hour,
                        ),
                    ),
                    name=f"mixed-{big}big-{small}small",
                )
            )
    for size in homogeneous_sizes:
        fleets.append(FleetSpec.homogeneous(big_spec, size))
    fleets.append(
        FleetSpec(
            groups=(
                WorkerGroup(
                    backend=cheap,
                    count=max(homogeneous_sizes),
                    cost_per_hour=cheap_cost_per_hour,
                ),
            ),
            name=f"{cheap.name.lower()}x{max(homogeneous_sizes)}",
        )
    )
    return tuple(fleets)


@dataclass(frozen=True)
class MixedFleetSummary:
    """Outcome of :func:`mixed_fleet_experiment` — heterogeneity in dollars.

    ``best_mixed`` / ``best_homogeneous`` are each side's cheapest
    SLO-meeting cell (``None`` when that side never meets the target); the
    claim of this layer is :attr:`mixed_wins` — a mixed fleet meets the SLO
    at strictly lower cost per million requests than the best homogeneous
    fleet.
    """

    slo_target: float
    comparison: FleetComparison
    best_mixed: Optional[PlanPoint]
    best_homogeneous: Optional[PlanPoint]

    @property
    def mixed_wins(self) -> bool:
        if self.best_mixed is None:
            return False
        if self.best_homogeneous is None:
            return True
        return (
            self.best_mixed.report.cost_per_million_requests
            < self.best_homogeneous.report.cost_per_million_requests
        )

    def summary_lines(self) -> Tuple[str, ...]:
        def fmt(tag: str, point: Optional[PlanPoint]) -> str:
            if point is None:
                return f"{tag}: no fleet meets {self.slo_target:.0%}"
            return (
                f"{tag}: {point.fleet.name}"
                f" ${point.report.cost_per_million_requests:.2f}/M"
                f" slo={point.report.slo_attainment:.4f}"
                f" ({point.fleet.cost_per_hour:.2f} $/h)"
            )

        return (
            fmt("mixed      ", self.best_mixed),
            fmt("homogeneous", self.best_homogeneous),
        )


def mixed_fleet_experiment(
    ppm_config: Optional[PPMConfig] = None,
    session: Optional[SimulationSession] = None,
    service: Optional["LatencyService"] = None,
    slo_target: float = 0.95,
    scheduler: SchedulerSpec = "edf",
    router: RouterSpec = "cost-greedy",
    seed: int = 11,
) -> MixedFleetSummary:
    """Price mixed fleets against homogeneous ones on long-tail traffic.

    The headline heterogeneity measurement: the 512-residue tail OOMs on
    the cheap small-memory node, so an all-cheap fleet misses the SLO
    whenever that tail's share of the trace exceeds 1 - SLO.  At the pinned
    seed 11 the tail is 6.1% of the trace, so the all-cheap fleet caps at
    93.9% attainment and misses a 95% SLO; in 4 of seeds 11-18 the tail is
    at most 5%, and the all-cheap fleet meets the SLO and is the cheapest.
    An all-big fleet meets it but pays big-node rates for traffic that is
    mostly short.  At seed 11 a mixed fleet — two big-memory workers
    backstopping a couple of cheap ones, dispatched through the ``router``
    (cost-greedy with spill by default) — meets the same SLO at strictly
    lower $/M: the big nodes serve only what only they can serve.
    """
    trace = mixed_fleet_trace(seed=seed)
    comparison = compare_fleets(
        trace,
        mixed_fleet_candidates(),
        policies=(scheduler,),
        slo_target=slo_target,
        router=router,
        ppm_config=ppm_config,
        session=session,
        service=service,
    )
    by_side: dict = {"mixed": [], "homogeneous": []}
    for point in comparison.meeting():
        side = "mixed" if len(point.fleet.groups) > 1 else "homogeneous"
        by_side[side].append(point)
    pick = lambda side: (
        min(
            by_side[side],
            key=lambda p: p.report.cost_per_million_requests,
        )
        if by_side[side]
        else None
    )
    return MixedFleetSummary(
        slo_target=slo_target,
        comparison=comparison,
        best_mixed=pick("mixed"),
        best_homogeneous=pick("homogeneous"),
    )
