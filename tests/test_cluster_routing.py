"""Heterogeneous fleets: routing policies, per-group autoscaling, mixed-fleet pricing.

The pinned experiment of this suite is :func:`repro.cluster.scenarios.mixed_fleet_experiment`:
long-tail traffic (6% of requests at 512 residues) priced across mixed
big+cheap fleets and homogeneous ones.  The cheap small-memory node OOMs on
the 512 tail, so an all-cheap fleet can never meet a 95% SLO; an all-big
fleet meets it but pays big-node rates for traffic that is 94% short; the
mixed fleet — big nodes backstopping cheap ones behind a cost-greedy
router — meets the SLO at strictly lower dollars per million requests.
Those numbers are pinned as goldens at the repo-wide 1e-9 bar.
"""

import math

import pytest

from repro.cluster import (
    Autoscaler,
    CostGreedyRouter,
    FleetSpec,
    GroupInfo,
    LengthThresholdRouter,
    MemoryFitRouter,
    Request,
    RequestTrace,
    WorkerGroup,
    compare_fleets,
    create_router,
    mixed_fleet_experiment,
    mixed_fleet_trace,
    prefetch_service_times,
    replay_trace,
    small_memory_gpu,
)
from repro.cluster.routing import group_infos, router_name
from repro.cluster.scenarios import MIXED_FLEET_SLO
from repro.ppm import PPMConfig
from repro.sim import SimulationSession

RELATIVE_TOLERANCE = 1e-9

#: (best mixed fleet, its $/M, its SLO), (best homogeneous fleet, $/M, SLO)
#: from the pinned long-tail experiment.  Regenerate deliberately with:
#:   PYTHONPATH=src python -c "import tests.test_cluster_routing as t; t.regenerate()"
MIXED_FLEET_GOLDEN = {
    "mixed": ("mixed-3big-2small", 502.47852474005674, 0.9833333333333333),
    "homogeneous": ("h100-chunkx7", 1006.9866553333383, 0.9638888888888889),
}


def regenerate() -> None:  # pragma: no cover - maintenance helper
    summary = mixed_fleet_experiment()
    for side, point in (
        ("mixed", summary.best_mixed),
        ("homogeneous", summary.best_homogeneous),
    ):
        print(
            f'    "{side}": ({point.fleet.name!r},'
            f" {point.report.cost_per_million_requests!r},"
            f" {point.report.slo_attainment!r}),"
        )


# ------------------------------------------------------------- micro helpers
def micro_trace(arrivals, lengths=None, length=32, name="micro"):
    requests = []
    for i, t in enumerate(arrivals):
        n = length if lengths is None else lengths[i]
        requests.append(
            Request(id=i, arrival_seconds=float(t), sequence_length=int(n))
        )
    duration = max(arrivals) if arrivals else 0.0
    return RequestTrace(
        name=name,
        requests=tuple(requests),
        seed=0,
        offered_rps=len(arrivals) / duration if duration > 0 else float(len(arrivals)),
    )


def mixed_micro_fleet():
    """One big worker (group 0, pricey) plus two small ones (group 1, cheap)."""
    return FleetSpec(
        groups=(
            WorkerGroup(backend="h100", count=1, cost_per_hour=8.0),
            WorkerGroup(backend="lightnobel", count=2, cost_per_hour=2.0),
        ),
        name="micro-mixed",
    )


#: Big group serves everything; small group OOMs at 512.
def mixed_micro_times():
    return {
        (0, 32): 0.5, (0, 512): 1.0,
        (1, 32): 0.25, (1, 512): None,
    }


def info(index, cost, feasible, label="g"):
    feasible = frozenset(feasible)
    return GroupInfo(
        index=index,
        label=f"{label}{index}",
        per_worker_cost=cost,
        feasible_lengths=feasible,
        max_feasible_length=max(feasible) if feasible else 0,
    )


# ------------------------------------------------------------ router policies
class TestRouters:
    GROUPS = (
        info(0, 8.0, {32, 96, 512}),   # big, expensive
        info(1, 2.0, {32, 96}),        # small, cheap
        info(2, 4.0, {32, 96}),        # small, mid-priced
    )

    def test_memory_fit_keeps_fleet_order_and_drops_infeasible(self):
        router = MemoryFitRouter()
        assert router.preference(32, self.GROUPS) == (0, 1, 2)
        assert router.preference(512, self.GROUPS) == (0,)

    def test_cost_greedy_sorts_by_per_worker_cost(self):
        router = CostGreedyRouter()
        assert router.preference(32, self.GROUPS) == (1, 2, 0)
        assert router.preference(512, self.GROUPS) == (0,)

    def test_length_threshold_reserves_big_groups_for_long_requests(self):
        router = LengthThresholdRouter(threshold_residues=512)
        # Short: smallest memory first; big node is last resort, not excluded.
        assert router.preference(32, self.GROUPS) == (1, 2, 0)
        # Long: biggest memory first.
        assert router.preference(512, self.GROUPS) == (0,)
        assert router.preference(96, self.GROUPS) == (1, 2, 0)

    def test_length_threshold_validation(self):
        with pytest.raises(ValueError):
            LengthThresholdRouter(threshold_residues=0)

    def test_unservable_length_has_empty_preference(self):
        for router in (MemoryFitRouter(), CostGreedyRouter(), LengthThresholdRouter()):
            assert router.preference(4096, self.GROUPS) == ()

    def test_registry_and_create(self):
        assert isinstance(create_router("memory-fit"), MemoryFitRouter)
        assert isinstance(create_router("COST-GREEDY"), CostGreedyRouter)
        assert isinstance(create_router(LengthThresholdRouter), LengthThresholdRouter)
        instance = LengthThresholdRouter(threshold_residues=96)
        assert create_router(instance) is instance
        assert create_router(None) is None
        with pytest.raises(ValueError):
            create_router("round-robin")
        with pytest.raises(TypeError):
            create_router(3.14)

    def test_router_name(self):
        assert router_name(None) == "none"
        assert router_name("Memory-Fit") == "memory-fit"
        assert router_name(CostGreedyRouter) == "cost-greedy"
        assert router_name(LengthThresholdRouter()) == "length-threshold"

    def test_group_infos_reads_oom_from_service_times(self):
        fleet = mixed_micro_fleet()
        trace = micro_trace([0.0, 0.1], lengths=[32, 512])
        infos = group_infos(fleet, mixed_micro_times(), trace)
        assert [g.index for g in infos] == [0, 1]
        assert infos[0].feasible_lengths == frozenset({32, 512})
        assert infos[1].feasible_lengths == frozenset({32})
        assert infos[1].max_feasible_length == 32
        assert infos[0].per_worker_cost == pytest.approx(8.0)
        assert infos[1].per_worker_cost == pytest.approx(2.0)  # the per-worker rate
        assert infos[0].fits(512) and not infos[1].fits(512)


# ------------------------------------------------------------- routed replays
class TestRoutedReplay:
    def test_router_avoids_oom_the_baseline_suffers(self):
        # A short claims the big node (lowest id) first; the 512 arriving
        # just behind it lands on a small worker under the oblivious
        # baseline and OOM-drops.  The router instead defers the 512 until
        # the big node frees up.
        trace = micro_trace([0.0, 0.0001], lengths=[32, 512])
        fleet = mixed_micro_fleet()
        times = mixed_micro_times()
        baseline = replay_trace(trace, fleet, service_times=times)
        routed = replay_trace(
            trace, fleet, service_times=times, router="memory-fit"
        )
        assert baseline.oom_dropped == 1
        assert baseline.completed == 1
        assert routed.oom_dropped == 0
        assert routed.completed == 2

    def test_unservable_everywhere_still_drops(self):
        trace = micro_trace([0.0], lengths=[4096])
        fleet = mixed_micro_fleet()
        times = {(0, 4096): None, (1, 4096): None}
        routed = replay_trace(
            trace, fleet, service_times=times, router="memory-fit"
        )
        assert routed.oom_dropped == 1
        assert routed.completed == 0

    def test_cost_greedy_prefers_cheap_group_and_spills_when_busy(self):
        # Three shorts at once: the two cheap workers take two, the third
        # spills to the idle big node instead of waiting (work conservation).
        trace = micro_trace([0.0, 0.0001, 0.0002], lengths=[32, 32, 32])
        fleet = mixed_micro_fleet()
        times = mixed_micro_times()
        routed = replay_trace(
            trace, fleet, service_times=times, router="cost-greedy"
        )
        assert routed.completed == 3
        # Big node served exactly one short for 0.5s; cheap pair served two.
        assert routed.utilization["h100"] > 0.0
        assert routed.utilization["lightnobel"] > 0.0

    def test_infeasible_request_waits_for_its_group_instead_of_dropping(self):
        # Two longs back to back with one big worker: the second must queue
        # behind the first (deferred, then retried), not OOM on a cheap node.
        trace = micro_trace([0.0, 0.0001], lengths=[512, 512])
        fleet = mixed_micro_fleet()
        times = mixed_micro_times()
        routed = replay_trace(
            trace, fleet, service_times=times, router="length-threshold"
        )
        assert routed.completed == 2
        assert routed.oom_dropped == 0
        # Sequential on one worker: makespan covers both services.
        assert routed.makespan_seconds >= 2.0

    def test_router_on_single_group_fleet_is_bit_identical_to_none(self):
        trace = micro_trace([0.01 * i for i in range(30)])
        fleet = FleetSpec.homogeneous("lightnobel", 3)
        times = {(0, 32): 0.05}
        plain = replay_trace(trace, fleet, service_times=times)
        routed = replay_trace(
            trace, fleet, service_times=times, router="memory-fit"
        )
        assert routed.router == "memory-fit"
        import dataclasses

        for field in dataclasses.fields(plain):
            if field.name == "router":
                continue
            assert getattr(plain, field.name) == getattr(routed, field.name), field.name

    def test_routed_replay_is_deterministic(self):
        trace = mixed_fleet_trace(seed=7, rate_rps=20.0, num_requests=60)
        fleet = FleetSpec(
            groups=(
                WorkerGroup(backend="h100", count=1, cost_per_hour=8.0),
                WorkerGroup(backend="lightnobel", count=2, cost_per_hour=2.0),
            ),
            name="det-mixed",
        )
        times = {}
        for n in trace.distinct_lengths():
            times[(0, n)] = 0.002 * n
            times[(1, n)] = 0.001 * n if n < 512 else None
        first = replay_trace(trace, fleet, service_times=times, router="cost-greedy")
        again = replay_trace(trace, fleet, service_times=times, router="cost-greedy")
        assert first == again

    def test_cost_greedy_serves_the_long_tail_a_mixed_fleet_oom_drops(self):
        """Simulated service times: routed, every request completes with no OOM
        drop and every group works; unrouted, the 512-residue tail OOM-drops."""
        trace = mixed_fleet_trace(seed=11, rate_rps=15.0, num_requests=80)
        fleet = FleetSpec(
            groups=(
                WorkerGroup(backend="h100-chunk", count=1),
                WorkerGroup(backend=small_memory_gpu(), count=2, cost_per_hour=2.05),
            ),
            name="hetero",
        )
        session = SimulationSession(ppm_config=PPMConfig.tiny(), use_disk_cache=False)
        times = prefetch_service_times(trace, fleet, session=session)
        kwargs = dict(scheduler="edf", service_times=times)
        routed = replay_trace(trace, fleet, router="cost-greedy", **kwargs)
        assert routed == replay_trace(trace, fleet, router="cost-greedy", **kwargs)
        assert routed.oom_dropped == 0 and routed.completed == routed.requests
        assert min(routed.utilization.values()) > 0.0
        assert replay_trace(trace, fleet, **kwargs).oom_dropped > 0

    def test_per_group_autoscaler_with_router_completes_the_burst(self):
        trace = micro_trace([0.005 * i for i in range(40)], length=32)
        fleet = mixed_micro_fleet()
        times = mixed_micro_times()
        scaler = Autoscaler(
            min_workers=1, max_workers=3, interval_seconds=0.05,
            scale_up_queue_per_worker=2.0, scale_up_lag_seconds=0.1,
        )
        report = replay_trace(
            trace, fleet, service_times=times,
            router="cost-greedy", autoscaler=(scaler, scaler),
        )
        assert report.completed == 40
        assert report.peak_fleet_size <= 6


# -------------------------------------------------------------- fleet pricing
@pytest.fixture(scope="module")
def mixed_summary():
    return mixed_fleet_experiment()


class TestMixedFleetExperiment:
    def test_small_memory_gpu_is_a_real_spec(self):
        gpu = small_memory_gpu()
        assert gpu.memory_gb == 8.0
        assert gpu.name == "a100-8g"
        assert small_memory_gpu(16.0).memory_gb == 16.0

    def test_trace_has_the_long_tail(self):
        trace = mixed_fleet_trace()
        mix = trace.length_mix()
        assert 512 in mix
        assert 0 < mix[512] < len(trace) * 0.12
        for r in trace:
            assert r.deadline_seconds == pytest.approx(
                MIXED_FLEET_SLO.deadline_for(r.arrival_seconds, r.sequence_length)
            )

    def test_pinned_golden_mixed_beats_homogeneous(self, mixed_summary):
        assert mixed_summary.mixed_wins
        for side, best in (
            ("mixed", mixed_summary.best_mixed),
            ("homogeneous", mixed_summary.best_homogeneous),
        ):
            name, cost, slo = MIXED_FLEET_GOLDEN[side]
            assert best is not None
            assert best.fleet.name == name
            assert best.report.cost_per_million_requests == pytest.approx(
                cost, rel=RELATIVE_TOLERANCE
            )
            assert best.report.slo_attainment == pytest.approx(
                slo, rel=RELATIVE_TOLERANCE
            )
        assert (
            mixed_summary.best_mixed.report.cost_per_million_requests
            < mixed_summary.best_homogeneous.report.cost_per_million_requests
        )

    def test_all_cheap_fleet_never_meets_the_slo(self, mixed_summary):
        cheap_only = [
            p
            for p in mixed_summary.comparison.points
            if len(p.fleet.groups) == 1 and p.fleet.groups[0].backend != "h100-chunk"
        ]
        assert cheap_only, "experiment must price an all-cheap fleet"
        for point in cheap_only:
            assert point.report.slo_attainment < mixed_summary.slo_target
            assert point.report.oom_dropped > 0  # the 512 tail has nowhere to go

    def test_summary_lines_name_both_sides(self, mixed_summary):
        lines = mixed_summary.summary_lines()
        assert any("mixed" in line for line in lines)
        assert any("homogeneous" in line for line in lines)
        assert any("$" in line for line in lines)

    def test_experiment_is_deterministic(self, mixed_summary):
        again = mixed_fleet_experiment()
        assert (
            again.best_mixed.report == mixed_summary.best_mixed.report
        )
        assert (
            again.best_homogeneous.report == mixed_summary.best_homogeneous.report
        )


class TestCompareFleets:
    def test_validation(self):
        trace = micro_trace([0.0])
        with pytest.raises(ValueError):
            compare_fleets(trace, ())
        with pytest.raises(ValueError):
            compare_fleets(trace, (FleetSpec.homogeneous("lightnobel", 1),), slo_target=1.5)

    def test_points_cover_every_fleet_policy_cell(self, mixed_summary):
        comparison = mixed_summary.comparison
        names = comparison.fleet_names()
        assert len(comparison.points) == len(names)  # one policy
        assert set(p.policy for p in comparison.points) == {"edf"}
        assert all(p.report.router == "cost-greedy" for p in comparison.points)
        for name in names:
            assert comparison.for_fleet(name)

    def test_cheapest_per_fleet_marks_non_meeting_fleets(self, mixed_summary):
        per_fleet = mixed_summary.comparison.cheapest_per_fleet()
        assert any(v is None for v in per_fleet.values())
        assert any(v is not None for v in per_fleet.values())
        cheapest = mixed_summary.comparison.cheapest_plan()
        assert cheapest is not None
        assert cheapest.report.slo_attainment >= mixed_summary.slo_target
