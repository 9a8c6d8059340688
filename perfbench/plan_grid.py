"""Workload ``plan-grid``: capacity planning and a faulty closed loop on the DES.

Tiny PPM config and h100-chunk workers, the setup of the pinned cluster
goldens.  Each pass has two phases:

* (a) healthy: ``plan_capacity`` on a seeded 5k-request bursty trace over
  3 fleet sizes x fifo/sjf/bucketed/edf, plus a ``compare_fleets``
  mixed-fleet comparison routed with ``cost-greedy`` on a seeded long-tail
  trace;
* (b) closed loop: a 5k-request diurnal scenario with several seeded
  crashes and straggler windows per worker, replayed with recovery,
  admission control and the autoscaler on.

The DES event loop does almost all the work; the service-time prefetch
prices only a few tiny-config lengths.  Work is counted in DES events.  Every pass's ``ClusterReport``s must
equal the first pass's, with ``dropped == oom + shed + failed``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple

from harness import DES_EVENT_KINDS, Patch, Result, ScaledClock, Spans, digest_of, median

from repro.cluster import planner, scenarios
from repro.cluster.des import prefetch_service_times
from repro.cluster.faults import FaultSchedule, RecoveryPolicy
from repro.cluster.fleet import FleetSpec
from repro.cluster.planner import compare_fleets, plan_capacity
from repro.cluster.scenarios import (
    ClusterScenario,
    mixed_fleet_candidates,
    mixed_fleet_trace,
    scenario_controllers,
    scenario_trace,
)
from repro.cluster.trace import SLOPolicy, bursty_trace, mixture_lengths
from repro.gpu.gpu_model import GPUModel
from repro.hardware.accelerator import LightNobelAccelerator
from repro.obs.timeline import TimelineRecorder
from repro.ppm import PPMConfig
from repro.sim import SimulationSession

BACKEND = "h100-chunk"
#: The pinned cluster goldens' length mix, SLO, rate and reuse discount.
GOLDEN_MIX = ((32, 0.6), (96, 0.25), (160, 0.15))
GOLDEN_SLO = SLOPolicy(base_seconds=0.035, per_residue_seconds=2.0e-4)
GOLDEN_RATE = 360.0
REUSE_DISCOUNT = 0.25
PLAN_REQUESTS = 5_000
FLEET_SIZES = (3, 4, 6)
POLICIES = ("fifo", "sjf", "bucketed", "edf")
ROUTED_REQUESTS = 2_000
FAULTY_REQUESTS = 5_000
FAULTY_WORKERS = 4


@dataclass
class State:
    session: SimulationSession
    plan_trace: object
    routed_trace: object
    routed_fleets: Tuple[FleetSpec, ...]
    scenario: ClusterScenario
    faulty_fleet: FleetSpec
    faulty_times: dict
    generate_seconds: float
    reference: str = ""


def setup(seed: int, root: Path) -> State:
    start = time.perf_counter()
    pool, weights = mixture_lengths(GOLDEN_MIX)
    plan_trace = bursty_trace(
        rate_rps=GOLDEN_RATE,
        num_requests=PLAN_REQUESTS,
        length_pool=pool,
        length_weights=weights,
        slo=GOLDEN_SLO,
        seed=seed,
    )
    routed_trace = mixed_fleet_trace(seed=seed, num_requests=ROUTED_REQUESTS)
    faulty_trace = scenario_trace(seed=seed, num_requests=FAULTY_REQUESTS)
    generate_seconds = time.perf_counter() - start
    duration = faulty_trace.duration_seconds
    faults = FaultSchedule.generate(
        num_workers=FAULTY_WORKERS,
        duration_seconds=duration,
        seed=seed,
        crashes_per_worker=8.0,
        mean_downtime_seconds=duration * 0.005,
        detection_lag_seconds=0.002,
        warmup_seconds=0.004,
        stragglers_per_worker=8.0,
        mean_straggle_seconds=duration * 0.005,
        straggler_slowdown=3.0,
        degraded_link_groups=(0,),
        degraded_link_fraction=0.1,
        degraded_bandwidth_factor=0.5,
        name="perfbench-faults",
    )
    admission, autoscaler = scenario_controllers(FAULTY_WORKERS)
    scenario = ClusterScenario(
        name="perfbench-faulty",
        trace=faulty_trace,
        faults=faults,
        recovery=RecoveryPolicy(max_retries=2, backoff_base_seconds=0.005),
        admission=admission,
        autoscaler=autoscaler,
    )
    session = SimulationSession(ppm_config=PPMConfig.tiny(), use_disk_cache=False)
    fleets = mixed_fleet_candidates(
        big_spec=BACKEND, big_counts=(2,), cheap_counts=(3,), homogeneous_sizes=(7,)
    )
    # Phase (b) replays pure DES: its service times are priced here, once.
    faulty_fleet = FleetSpec.homogeneous(BACKEND, FAULTY_WORKERS)
    faulty_times = prefetch_service_times(faulty_trace, faulty_fleet, session=session)
    return State(
        session, plan_trace, routed_trace, fleets, scenario, faulty_fleet, faulty_times,
        generate_seconds,
    )


def run_pass(state: State, scaled: ScaledClock):
    """Phase (a) then phase (b), each followed by a reading of ``scaled``.

    Returns the wall seconds of both phases and every ClusterReport.
    """
    clock = time.perf_counter
    start = clock()
    plan = plan_capacity(
        state.plan_trace,
        base_fleet=FleetSpec.homogeneous(BACKEND, 1),
        fleet_sizes=FLEET_SIZES,
        policies=POLICIES,
        session=state.session,
        same_length_reuse_discount=REUSE_DISCOUNT,
    )
    comparison = compare_fleets(
        state.routed_trace,
        state.routed_fleets,
        policies=("edf",),
        router="cost-greedy",
        session=state.session,
        same_length_reuse_discount=REUSE_DISCOUNT,
    )
    phase_a = clock() - start
    scaled.read()
    start = clock()
    faulty = state.scenario.replay(
        state.faulty_fleet,
        scheduler="edf",
        service_times=state.faulty_times,
        same_length_reuse_discount=REUSE_DISCOUNT,
    )
    phase_b = clock() - start
    scaled.read()
    reports = [p.report for p in plan.points] + [p.report for p in comparison.points] + [faulty]
    return (phase_a, phase_b), reports


def measure(state: State, seconds: float, spans: Optional[Spans] = None) -> Result:
    result = Result()
    healthy, faulty = [], []
    scaled = ScaledClock()
    deadline = time.perf_counter() + seconds
    while not result.tasks_s or time.perf_counter() < deadline:
        (phase_a, phase_b), reports = run_pass(state, scaled)
        digest = digest_of(reports)
        if not state.reference:
            state.reference = digest
        wrong = sum(r.dropped != r.oom_dropped + r.shed + r.failed for r in reports)
        if digest != state.reference:
            wrong += 1
        healthy.append(phase_a)
        faulty.append(phase_b)
        result.tasks_s.append(phase_a + phase_b)
        result.rates.append(sum(r.events_processed for r in reports) / (phase_a + phase_b))
        result.attempted += len(reports)
        result.failed += wrong
        last = reports[-1]
    factor = scaled.factor
    result.digest = state.reference
    result.tasks_s = [t * factor for t in result.tasks_s]
    result.rates = [r / factor for r in result.rates]
    result.notes = {
        "plan_grid_s": median(healthy) * factor,
        "resilience_s": median(faulty) * factor,
        "faulty_retried": last.retried,
        "faulty_shed": last.shed,
        "faulty_failed": last.failed,
        "faulty_slo_attainment": last.slo_attainment,
    }
    return result


def _replay_kind(args: tuple, kwargs: dict) -> str:
    return "des.routed" if kwargs.get("router") is not None else "des.healthy"


def _events(args: tuple, kwargs: dict, report) -> float:
    return float(report.events_processed)


def _outcome_events(args: tuple, kwargs: dict, result) -> float:
    return float(result[0].events_processed)


PATCHES: Tuple[Patch, ...] = (
    Patch(planner, "prefetch_service_times", "planner.prefetch"),
    Patch(planner, "replay_trace", _replay_kind, _events),
    Patch(scenarios, "replay_trace_outcomes", "des.faulty", _outcome_events),
    *(
        Patch(engine, "simulate_stack_totals", "price.stack_totals")
        for engine in (LightNobelAccelerator, GPUModel)
    ),
)


def _event_counts(state: State) -> Dict[str, int]:
    """Event kinds of one more pass, with a TimelineRecorder on every replay."""
    counts: Dict[str, int] = {}

    def recording(fn):
        def wrapper(*args, **kwargs):
            timeline = kwargs["timeline"] = TimelineRecorder()
            out = fn(*args, **kwargs)
            for kind, count in timeline.event_counts().items():
                counts[kind] = counts.get(kind, 0) + count
            return out
        return wrapper

    originals = planner.replay_trace, scenarios.replay_trace_outcomes
    planner.replay_trace = recording(originals[0])
    scenarios.replay_trace_outcomes = recording(originals[1])
    try:
        run_pass(state, ScaledClock())
    finally:
        planner.replay_trace, scenarios.replay_trace_outcomes = originals
    return counts


def layer_metrics(state: State, traced: Result, spans: Spans) -> Dict[str, float]:
    counts = _event_counts(state)
    unknown = set(counts) - set(DES_EVENT_KINDS)
    if unknown:
        raise RuntimeError(f"unexpected DES event kinds {sorted(unknown)}")
    return {
        "trace.generate_ms": state.generate_seconds * 1e3,
        "planner.prefetch_ms": median(spans.seconds("planner.prefetch")) * 1e3,
        "hardware.stack_totals_us": median(spans.seconds("price.stack_totals")) * 1e6,
        "des.events_per_s.healthy": spans.rate("des.healthy"),
        "des.events_per_s.routed": spans.rate("des.routed"),
        "des.events_per_s.faulty": spans.rate("des.faulty"),
        **{f"des.events.{kind}": float(counts.get(kind, 0)) for kind in DES_EVENT_KINDS},
    }


def close(state: State) -> int:
    return 0
