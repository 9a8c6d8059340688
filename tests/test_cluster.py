"""Cluster subsystem: traces, fleets, schedulers, deterministic replay, planner.

The heart of this suite is the *pinned experiment* of the cluster subsystem:
a bursty 600-request trace (seed 11) on a 4-worker ``h100-chunk`` fleet with
shape-reuse enabled, whose :class:`~repro.cluster.des.ClusterReport` numbers
are pinned as goldens — including the headline ordering (EDF and
length-bucketed batching beat FIFO on p99 latency *and* SLO attainment) and
the planner verdict (FIFO needs a larger fleet than EDF/bucketed to meet a
95% SLO).  Everything is bit-deterministic for a fixed seed, so the goldens
hold exactly (modulo float-noise tolerance, the repo-wide 1e-9 bar).
"""

import dataclasses

import pytest

from repro.analysis import cluster_capacity_dse, hardware_dse
from repro.cluster import (
    BucketedScheduler,
    ClusterScenario,
    EDFScheduler,
    FIFOScheduler,
    FleetSpec,
    MultiChipVariant,
    NO_SLO,
    Request,
    RequestTrace,
    SJFScheduler,
    SLOPolicy,
    WorkerGroup,
    bursty_trace,
    compare_fleets,
    create_scheduler,
    dataset_lengths,
    mixture_lengths,
    plan_capacity,
    plan_capacity_under_scenarios,
    poisson_trace,
    prefetch_service_times,
    replay_trace,
    replay_trace_outcomes,
)
from repro.cluster.scenarios import mixed_fleet_experiment, resilience_experiment
from repro.cluster.scheduler import scheduler_name
from repro.hardware import ChipLinkSpec, LightNobelAccelerator
from repro.ppm import PPMConfig
from repro.serving import LatencyService
from repro.serving.api import dispatch_order_key
from repro.serving.http.server import LatencyFrontDoor
from repro.sim import SimulationSession

RELATIVE_TOLERANCE = 1e-9

# ------------------------------------------------------------ pinned experiment
PINNED_MIX = [(32, 0.6), (96, 0.25), (160, 0.15)]
PINNED_SLO = SLOPolicy(base_seconds=0.035, per_residue_seconds=2.0e-4)
PINNED_SEED = 11
PINNED_RATE = 360.0
PINNED_REQUESTS = 600
PINNED_FLEET_SIZE = 4
PINNED_REUSE_DISCOUNT = 0.25

#: policy -> (p50, p99, mean latency, slo_attainment, deadlines_missed,
#:            max_queue_depth, utilization, cost_per_million), captured from
#: the initial implementation.  Regenerate deliberately with:
#:   PYTHONPATH=src python -c "import tests.test_cluster as t; t.regenerate()"
GOLDENS = {
    "fifo": (
        0.018841435491456338, 0.1474518670069933,
        0.035617370327164395, 0.75,
        150, 62, 0.8333683691952325,
        23.727770461378192,
    ),
    "sjf": (
        0.012679717891706854, 0.21598958866494833,
        0.024238457221241648, 0.89,
        66, 43, 0.8269005727536357,
        23.18499827615108,
    ),
    "bucketed": (
        0.01727953373513172, 0.128759387594078,
        0.0300717020364415, 0.8166666666666667,
        110, 61, 0.8232111382752194,
        23.349928453862653,
    ),
    "edf": (
        0.015201437506632998, 0.13108269349177282,
        0.0293604181180695, 0.8283333333333334,
        103, 57, 0.8330171048774817,
        23.479731201010708,
    ),
}


def pinned_trace():
    pool, weights = mixture_lengths(PINNED_MIX)
    return bursty_trace(
        rate_rps=PINNED_RATE,
        num_requests=PINNED_REQUESTS,
        length_pool=pool,
        length_weights=weights,
        slo=PINNED_SLO,
        seed=PINNED_SEED,
    )


def trace_of(lengths):
    """One request per entry of ``lengths``, a second apart, in order."""
    requests = tuple(
        Request(id=i, arrival_seconds=float(i), sequence_length=n)
        for i, n in enumerate(lengths)
    )
    return RequestTrace(name="lengths", requests=requests, seed=0, offered_rps=1.0)


def regenerate() -> None:  # pragma: no cover - maintenance helper
    session = SimulationSession(ppm_config=PPMConfig.tiny())
    trace = pinned_trace()
    fleet = FleetSpec.homogeneous("h100-chunk", PINNED_FLEET_SIZE)
    for policy in GOLDENS:
        r = replay_trace(
            trace, fleet, scheduler=policy, session=session,
            same_length_reuse_discount=PINNED_REUSE_DISCOUNT,
        )
        print(f'    "{policy}": (')
        print(f"        {r.p50_latency_seconds!r}, {r.p99_latency_seconds!r},")
        print(f"        {r.mean_latency_seconds!r}, {r.slo_attainment!r},")
        print(f"        {r.deadlines_missed}, {r.max_queue_depth}, "
              f"{r.utilization['h100-chunk']!r},")
        print(f"        {r.cost_per_million_requests!r},")
        print("    ),")


@pytest.fixture(scope="module")
def tiny_session():
    return SimulationSession(ppm_config=PPMConfig.tiny())


@pytest.fixture(scope="module")
def pinned_times(tiny_session):
    """One shared service-time prefetch for every pinned-trace replay."""
    fleet = FleetSpec.homogeneous("h100-chunk", 1)
    return prefetch_service_times(pinned_trace(), fleet, session=tiny_session)


def pinned_replay(policy, times, size=PINNED_FLEET_SIZE, discount=PINNED_REUSE_DISCOUNT):
    return replay_trace(
        pinned_trace(),
        FleetSpec.homogeneous("h100-chunk", size),
        scheduler=policy,
        service_times=times,
        same_length_reuse_discount=discount,
    )


# -------------------------------------------------------------------- traces
class TestTraces:
    def test_same_seed_is_bit_identical(self):
        pool, weights = mixture_lengths(PINNED_MIX)
        kwargs = dict(
            rate_rps=100.0, num_requests=50, length_pool=pool,
            length_weights=weights, slo=PINNED_SLO, seed=3,
        )
        assert poisson_trace(**kwargs) == poisson_trace(**kwargs)
        assert bursty_trace(**kwargs) == bursty_trace(**kwargs)
        assert poisson_trace(**kwargs).config_digest() == poisson_trace(**kwargs).config_digest()

    def test_different_seeds_differ(self):
        pool, _ = mixture_lengths([(24, 1.0)])
        a = poisson_trace(rate_rps=10.0, num_requests=20, length_pool=pool, seed=0)
        b = poisson_trace(rate_rps=10.0, num_requests=20, length_pool=pool, seed=1)
        assert a.config_digest() != b.config_digest()

    def test_arrivals_increase_and_lengths_come_from_pool(self):
        pool, weights = mixture_lengths(PINNED_MIX)
        trace = bursty_trace(
            rate_rps=200.0, num_requests=120, length_pool=pool,
            length_weights=weights, seed=5,
        )
        arrivals = [r.arrival_seconds for r in trace]
        assert arrivals == sorted(arrivals)
        assert set(trace.lengths()) <= {n for n, _ in PINNED_MIX}
        assert len(trace) == 120

    def test_deadlines_follow_the_slo_policy(self):
        pool, _ = mixture_lengths([(24, 0.5), (96, 0.5)])
        slo = SLOPolicy(base_seconds=0.1, per_residue_seconds=1e-3)
        trace = poisson_trace(rate_rps=50.0, num_requests=40, length_pool=pool, slo=slo, seed=2)
        for r in trace:
            assert r.deadline_seconds == pytest.approx(
                r.arrival_seconds + 0.1 + 1e-3 * r.sequence_length
            )
            assert r.deadline_slack_seconds == pytest.approx(
                0.1 + 1e-3 * r.sequence_length
            )

    def test_no_slo_means_no_deadlines(self):
        pool, _ = mixture_lengths([(24, 1.0)])
        trace = poisson_trace(rate_rps=10.0, num_requests=10, length_pool=pool, slo=NO_SLO, seed=1)
        assert all(r.deadline_seconds is None for r in trace)

    def test_priority_mix(self):
        pool, _ = mixture_lengths([(24, 1.0)])
        slo = SLOPolicy(priority_weights=(0.5, 0.5))
        trace = poisson_trace(rate_rps=10.0, num_requests=200, length_pool=pool, slo=slo, seed=4)
        priorities = {r.priority for r in trace}
        assert priorities == {0, 1}

    def test_bursty_mean_rate_is_close_to_nominal(self):
        pool, _ = mixture_lengths([(24, 1.0)])
        trace = bursty_trace(rate_rps=100.0, num_requests=2000, length_pool=pool, seed=9)
        realized = len(trace) / trace.duration_seconds
        assert realized == pytest.approx(100.0, rel=0.25)

    def test_dataset_lengths_cap(self):
        lengths = dataset_lengths("CASP16", count=8, max_length=500)
        assert lengths and max(lengths) <= 500

    def test_validation_errors(self):
        pool, _ = mixture_lengths([(24, 1.0)])
        with pytest.raises(ValueError):
            poisson_trace(rate_rps=0.0, num_requests=5, length_pool=pool)
        with pytest.raises(ValueError):
            poisson_trace(rate_rps=1.0, num_requests=0, length_pool=pool)
        with pytest.raises(ValueError):
            mixture_lengths([])
        with pytest.raises(ValueError):
            mixture_lengths([(24, -1.0)])
        with pytest.raises(ValueError):
            bursty_trace(rate_rps=1.0, num_requests=5, length_pool=pool, burst_factor=0.5)


# ---------------------------------------------------------------- schedulers
def _request(id, length, priority=0, deadline=None, arrival=0.0):
    return Request(
        id=id, arrival_seconds=arrival, sequence_length=length,
        priority=priority, deadline_seconds=deadline,
    )


class TestSchedulers:
    def test_registry_and_names(self):
        for name, cls in (("fifo", FIFOScheduler), ("sjf", SJFScheduler),
                          ("bucketed", BucketedScheduler), ("edf", EDFScheduler)):
            scheduler = create_scheduler(name)
            assert isinstance(scheduler, cls)
            assert scheduler_name(name) == name
            assert scheduler_name(scheduler) == name
        with pytest.raises(ValueError):
            create_scheduler("nope")

    def test_instance_passthrough(self):
        instance = BucketedScheduler(min_bucket=32)
        assert create_scheduler(instance) is instance
        assert create_scheduler(SJFScheduler).name == "sjf"

    def test_fifo_order(self):
        s = FIFOScheduler()
        for r in (_request(0, 64), _request(1, 24), _request(2, 128)):
            s.push(r)
        assert [s.pop(0.0).id for _ in range(3)] == [0, 1, 2]
        assert s.pop(0.0) is None

    def test_sjf_orders_by_length(self):
        s = SJFScheduler()
        for r in (_request(0, 64), _request(1, 24), _request(2, 128), _request(3, 24)):
            s.push(r)
        assert [s.pop(0.0).id for _ in range(4)] == [1, 3, 0, 2]

    def test_edf_matches_dispatch_order_key(self):
        requests = [
            _request(0, 24, priority=0, deadline=5.0),
            _request(1, 24, priority=1, deadline=9.0),
            _request(2, 24, priority=0, deadline=1.0),
            _request(3, 24),  # no deadline: last within its priority tier
        ]
        s = EDFScheduler()
        for r in requests:
            s.push(r)
        expected = sorted(
            requests, key=lambda r: dispatch_order_key(r.priority, r.deadline_seconds, r.id)
        )
        assert [s.pop(0.0).id for _ in range(4)] == [r.id for r in expected]

    def test_bucketed_geometric_edges(self):
        s = BucketedScheduler(min_bucket=64)
        assert s.bucket_of(1) == 64
        assert s.bucket_of(64) == 64
        assert s.bucket_of(65) == 128
        assert s.bucket_of(300) == 512

    def test_bucketed_drains_same_bucket_runs(self):
        s = BucketedScheduler(min_bucket=64, batch_size=2)
        # Two buckets; the 64-bucket head arrived first (earlier id).
        for r in (_request(0, 32), _request(1, 100), _request(2, 40), _request(3, 33)):
            s.push(r)
        # batch of 2 from the 64 bucket, then head-key re-selection: the
        # 128-bucket head (id 1) now sorts first.
        assert [s.pop(0.0).id for _ in range(4)] == [0, 2, 1, 3]

    def test_bucketed_batch_quota_bounds_starvation(self):
        s = BucketedScheduler(min_bucket=64, batch_size=3)
        for i in range(3):
            s.push(_request(i, 32))
        s.push(_request(3, 100))  # long request behind a batch of shorts
        for i in range(4, 7):
            s.push(_request(i, 32))  # shorts arriving after the long
        order = [s.pop(0.0).id for _ in range(7)]
        # After the current short batch drains its quota, bucket selection
        # favors the long request's earlier arrival: shorts that arrived
        # after it cannot starve it (unlike strict shortest-bucket-first).
        assert order.index(3) == 3


# ------------------------------------------------------- multi-chip + fleets
class TestMultiChipAndFleet:
    def test_single_chip_is_identity(self, tiny_session):
        single = tiny_session.simulate(48, backend="lightnobel")
        node = tiny_session.simulate(
            48, backend=MultiChipVariant(base="lightnobel", chips=1, name="node1")
        )
        assert node.total_seconds == single.total_seconds

    def test_multi_chip_speedup_and_communication(self, tiny_session):
        single = tiny_session.simulate(64, backend="lightnobel")
        node = tiny_session.simulate(64, backend=MultiChipVariant(base="lightnobel", chips=4))
        assert node.backend == "lightnobel-x4"
        comm = node.details["communication_seconds"]
        assert comm > 0.0
        assert node.total_seconds == pytest.approx(
            single.total_seconds / 4 + comm, rel=RELATIVE_TOLERANCE
        )
        # Speedup is real but sub-linear (interconnect cost).
        assert single.total_seconds / node.total_seconds > 1.0
        assert single.total_seconds / node.total_seconds < 4.0

    def test_more_chips_more_communication(self, tiny_session):
        two = tiny_session.simulate(64, backend=MultiChipVariant(base="lightnobel", chips=2))
        eight = tiny_session.simulate(64, backend=MultiChipVariant(base="lightnobel", chips=8))
        assert eight.details["communication_seconds"] > two.details["communication_seconds"]

    def test_digest_depends_on_chips_and_link(self, tiny_session):
        base = MultiChipVariant(base="lightnobel", chips=2)
        other = MultiChipVariant(base="lightnobel", chips=4)
        slower = MultiChipVariant(
            base="lightnobel", chips=2, link=ChipLinkSpec(port_bytes_per_cycle=16)
        )
        digests = {
            tiny_session.backend(spec).config_digest()
            for spec in (base, other, slower)
        }
        assert len(digests) == 3

    def test_fleet_spec_accounting(self):
        fleet = FleetSpec.homogeneous("lightnobel", 4)
        assert fleet.num_workers == 4
        assert fleet.cost_per_hour == pytest.approx(4 * 1.6)
        assert fleet.worker_groups() == [0, 0, 0, 0]
        assert fleet.with_size(2).num_workers == 2

    def test_heterogeneous_fleet(self):
        fleet = FleetSpec(
            groups=(
                WorkerGroup("lightnobel", 2),
                WorkerGroup("h100", 1, cost_per_hour=10.0),
            ),
            name="mixed",
        )
        assert fleet.num_workers == 3
        assert fleet.worker_groups() == [0, 0, 1]
        assert fleet.group_labels() == ("lightnobel", "h100")
        assert fleet.cost_per_hour == pytest.approx(2 * 1.6 + 10.0)
        with pytest.raises(ValueError):
            fleet.with_size(5)

    def test_multichip_node_cost_scales_with_chips(self):
        node = MultiChipVariant(base="lightnobel", chips=4)
        fleet = FleetSpec.homogeneous(node, 2)
        assert fleet.cost_per_hour == pytest.approx(2 * 4 * 1.6)

    def test_parallel_efficiency_consistent_with_reports(self, tiny_session):
        node = tiny_session.backend(MultiChipVariant(base="lightnobel", chips=4))
        single = tiny_session.simulate(64, backend="lightnobel").total_seconds
        multi = tiny_session.simulate(64, backend=node).total_seconds
        efficiency = node.parallel_efficiency(64)
        assert efficiency == pytest.approx((single / multi) / 4, rel=RELATIVE_TOLERANCE)
        assert 0.0 < efficiency <= 1.0

    def test_duplicate_backend_groups_keep_distinct_labels(self, tiny_session):
        # Two groups of the same backend (different costs) are legal; their
        # utilization entries must not collapse into one mapping key.
        fleet = FleetSpec(
            groups=(
                WorkerGroup("lightnobel", 1, cost_per_hour=2.0),
                WorkerGroup("lightnobel", 2, cost_per_hour=0.5),
            ),
            name="tiered",
        )
        assert fleet.group_labels() == ("lightnobel#0", "lightnobel#1")
        pool, _ = mixture_lengths([(24, 1.0)])
        trace = poisson_trace(rate_rps=100.0, num_requests=30, length_pool=pool, seed=2)
        report = replay_trace(trace, fleet, session=tiny_session)
        assert set(report.utilization) == {"lightnobel#0", "lightnobel#1"}

    def test_fleet_digest_sees_through_labels(self):
        # Same label, different link parameters -> different replays -> the
        # digest must differ (it is the cache key for replay results).
        fast = FleetSpec.homogeneous(MultiChipVariant(base="lightnobel", chips=4), 2)
        slow = FleetSpec.homogeneous(
            MultiChipVariant(
                base="lightnobel", chips=4, link=ChipLinkSpec(hop_latency_seconds=1e-3)
            ),
            2,
        )
        assert fast.config_digest() != slow.config_digest()
        assert fast.config_digest() != fast.with_size(3).config_digest()
        assert fast.config_digest() == FleetSpec.homogeneous(
            MultiChipVariant(base="lightnobel", chips=4), 2
        ).config_digest()


# ------------------------------------------------------------------- replay
class TestReplayDeterminism:
    def test_same_seed_same_report_bitwise(self, pinned_times):
        for policy in ("fifo", "edf"):
            first = pinned_replay(policy, pinned_times)
            again = pinned_replay(policy, pinned_times)
            assert first == again  # dataclass equality: every field, bit-for-bit

    def test_report_survives_trace_regeneration(self, pinned_times):
        # Not just replay determinism: regenerating the trace from the seed
        # and replaying produces the identical report object.
        a = pinned_replay("bucketed", pinned_times)
        b = replay_trace(
            pinned_trace(),
            FleetSpec.homogeneous("h100-chunk", PINNED_FLEET_SIZE),
            scheduler="bucketed",
            service_times=dict(pinned_times),
            same_length_reuse_discount=PINNED_REUSE_DISCOUNT,
        )
        assert a == b

    def test_prefetch_paths_agree(self, tiny_config, tiny_session):
        pool, weights = mixture_lengths([(24, 0.7), (48, 0.3)])
        trace = poisson_trace(
            rate_rps=100.0, num_requests=40, length_pool=pool,
            length_weights=weights, seed=3,
        )
        fleet = FleetSpec.homogeneous("h100-chunk", 2)
        via_session = prefetch_service_times(trace, fleet, session=tiny_session)
        via_config = prefetch_service_times(trace, fleet, ppm_config=tiny_config)
        with LatencyService(session=tiny_session, autostart=False) as service:
            via_service = prefetch_service_times(trace, fleet, service=service)
        assert via_session == via_config == via_service

        # A length one past the single-chip group's max_length, a multi-chip
        # group and shape buckets read the same on both routes.
        past = tiny_session.backend("h100").max_length + 1
        trace = trace_of([24, 48, 100, past])
        fleet = FleetSpec(
            groups=(
                WorkerGroup("h100", 1),
                WorkerGroup(MultiChipVariant(base="h100-chunk", chips=2), 1),
            )
        )
        for bucket in (None, 64):
            via_session = prefetch_service_times(
                trace, fleet, session=SimulationSession(ppm_config=PPMConfig.tiny()),
                length_bucket_size=bucket,
            )
            with LatencyService(ppm_config=PPMConfig.tiny(), autostart=False) as service:
                via_service = prefetch_service_times(
                    trace, fleet, service=service, length_bucket_size=bucket
                )
            assert via_session == via_service
            assert via_session[(0, past)] is None
            assert via_session[(1, past)] is not None
            assert via_session[(1, 24)] == via_session[(1, 24 if bucket is None else 48)]
        assert via_session[(1, 100)] == tiny_session.simulate(
            100, backend=fleet.groups[1].backend
        ).total_seconds

    def test_second_prefetch_prices_nothing(self, monkeypatch):
        # Both routes seed the session memo, so the same pairs again are memo
        # hits: no engine call.
        calls = []
        price = LightNobelAccelerator.simulate_stack

        def counting(self, stack):
            calls.append(stack.lengths)
            return price(self, stack)

        monkeypatch.setattr(LightNobelAccelerator, "simulate_stack", counting)
        trace = trace_of([24, 48, 24])
        fleet = FleetSpec.homogeneous("lightnobel", 2)
        session = SimulationSession(ppm_config=PPMConfig.tiny())
        first = prefetch_service_times(trace, fleet, session=session)
        assert calls == [(24, 48)]
        assert prefetch_service_times(trace, fleet, session=session) == first
        assert calls == [(24, 48)]

    def test_prefetch_rejects_a_session_beside_another_services(self, tiny_session):
        trace = trace_of([24, 48])
        fleet = FleetSpec.homogeneous("lightnobel", 1)
        with LatencyService(ppm_config=PPMConfig.tiny(), autostart=False) as service:
            for run in (prefetch_service_times, replay_trace):
                with pytest.raises(ValueError, match="either session or service"):
                    run(trace, fleet, session=tiny_session, service=service)
            # The service's own session is no conflict.
            times = prefetch_service_times(trace, fleet, session=service.session, service=service)
        assert times == prefetch_service_times(trace, fleet, session=tiny_session)

    def test_prefetch_honors_session_recycles(self):
        """A recycles-enabled session gets recycle-inclusive service times."""
        cfg = PPMConfig.tiny().with_recycles(2)
        pool, _ = mixture_lengths([(24, 0.5), (48, 0.5)])
        trace = poisson_trace(rate_rps=50.0, num_requests=20, length_pool=pool, seed=1)
        fleet = FleetSpec.homogeneous("lightnobel", 2)
        session = SimulationSession(ppm_config=cfg, include_recycles=True)
        with_recycles = prefetch_service_times(trace, fleet, session=session)
        no_recycles = prefetch_service_times(
            trace, fleet,
            session=SimulationSession(ppm_config=cfg),
        )
        for (_, n), seconds in with_recycles.items():
            assert seconds == session.simulate(n, backend="lightnobel").total_seconds
        assert with_recycles != no_recycles  # recycles genuinely change the numbers

    def test_all_requests_accounted(self, pinned_times):
        report = pinned_replay("fifo", pinned_times)
        assert report.requests == PINNED_REQUESTS
        assert report.completed + report.dropped == PINNED_REQUESTS
        assert report.events_processed == 2 * report.completed + report.dropped

    def test_oom_lengths_are_dropped(self):
        pool, _ = mixture_lengths([(24, 0.5), (48, 0.5)])
        trace = poisson_trace(rate_rps=50.0, num_requests=30, length_pool=pool, seed=1)
        fleet = FleetSpec.homogeneous("h100-chunk", 2)
        times = {(0, 24): 0.005, (0, 48): None}  # 48-residue requests "OOM"
        report = replay_trace(trace, fleet, service_times=times)
        expected_drops = sum(1 for r in trace if r.sequence_length == 48)
        assert report.dropped == expected_drops
        assert report.completed == len(trace) - expected_drops
        assert report.slo_attainment < 1.0

    def test_reuse_discount_validation(self, pinned_times):
        with pytest.raises(ValueError):
            pinned_replay("fifo", pinned_times, discount=1.0)

    def test_heterogeneous_fleet_charges_the_claimed_workers_group(self):
        """A shape-matched worker must run at *its own* group's service time,
        not the lowest-id idle worker's (regression: group/claim mismatch)."""
        trace = RequestTrace(
            name="hand-built",
            requests=(
                Request(id=0, arrival_seconds=0.0, sequence_length=200),
                Request(id=1, arrival_seconds=0.0, sequence_length=100),
                # Arrives when BOTH workers are idle; only the fast worker
                # (id 1, last length 100) shape-matches, so it is claimed and
                # must be charged the fast group's time — not the lowest-id
                # idle worker's group.
                Request(id=2, arrival_seconds=12.0, sequence_length=100),
            ),
            seed=0,
            offered_rps=1.0,
        )
        fleet = FleetSpec(
            groups=(WorkerGroup("lightnobel", 1), WorkerGroup("h100", 1)),
            name="mixed",
        )
        times = {(0, 100): 10.0, (0, 200): 10.0, (1, 100): 1.0, (1, 200): 1.0}
        _, outcomes = replay_trace_outcomes(
            trace, fleet, scheduler="fifo", service_times=times,
            same_length_reuse_discount=0.25,
        )
        by_id = {o.request_id: o for o in outcomes}
        assert by_id[0].finish_seconds == pytest.approx(10.0)
        assert by_id[1].finish_seconds == pytest.approx(1.0)
        # Fast worker's 1.0 s discounted by 25% (12.75), not the slow
        # group's 10.0 s at the same discount (19.5).
        assert by_id[2].finish_seconds == pytest.approx(12.75)


# -------------------------------------------------------- policy invariants
class TestReplayOptions:
    """The replay options are declared once, on the event loop; every
    forwarder passes ``**options`` through, so none is silently dropped."""

    @pytest.fixture(scope="class")
    def tiny_trace(self):
        pool, _ = mixture_lengths([(24, 1.0)])
        return poisson_trace(rate_rps=10.0, num_requests=5, length_pool=pool, seed=0)

    @pytest.mark.parametrize(
        "option",
        [
            "dispatch_overhead_seconds",
            "same_length_reuse_discont",
            # No latency entry point takes a worker count, and a service
            # stacks each spec's misses without a bucket width.
            "workers",
            "length_bucket_size",
        ],
    )
    def test_forwarders_reject_unknown_options(self, tiny_trace, option):
        fleet = FleetSpec.homogeneous("h100-chunk", 1)
        scenario = ClusterScenario(name="plain", trace=tiny_trace)
        entry_points = [
            lambda **kw: replay_trace(tiny_trace, fleet, **kw),
            lambda **kw: replay_trace_outcomes(tiny_trace, fleet, **kw),
            lambda **kw: scenario.replay(fleet, **kw),
            lambda **kw: scenario.replay_outcomes(fleet, **kw),
            LatencyService,
            LatencyFrontDoor,
        ]
        if option != "length_bucket_size":  # the prefetch's own bucketing knob
            entry_points += [
                lambda **kw: prefetch_service_times(tiny_trace, fleet, **kw),
                lambda **kw: plan_capacity(tiny_trace, **kw),
                lambda **kw: compare_fleets(tiny_trace, [fleet], **kw),
                lambda **kw: plan_capacity_under_scenarios([scenario], **kw),
                lambda **kw: cluster_capacity_dse(tiny_trace, **kw),
                lambda **kw: hardware_dse([24], **kw),
                lambda **kw: resilience_experiment(**kw),
                lambda **kw: mixed_fleet_experiment(**kw),
            ]
        for entry_point in entry_points:
            with pytest.raises(TypeError, match=option):
                entry_point(**{option: 0.0})

    def test_scenario_owned_options_are_not_overridable(self, tiny_trace):
        scenario = ClusterScenario(name="plain", trace=tiny_trace)
        with pytest.raises(TypeError, match="faults"):
            scenario.replay(FleetSpec.homogeneous("h100-chunk", 1), faults=None)


class TestPolicyInvariants:
    def test_neutral_traffic_makes_every_policy_fifo(self, tiny_session):
        """Without deadlines/priorities, EDF degrades to exact FIFO (shared
        dispatch_order_key semantics with the serving dispatcher)."""
        pool, weights = mixture_lengths(PINNED_MIX)
        trace = poisson_trace(
            rate_rps=300.0, num_requests=100, length_pool=pool,
            length_weights=weights, slo=NO_SLO, seed=3,
        )
        fleet = FleetSpec.homogeneous("h100-chunk", 2)
        times = prefetch_service_times(trace, fleet, session=tiny_session)
        fifo = replay_trace(trace, fleet, scheduler="fifo", service_times=times)
        edf = replay_trace(trace, fleet, scheduler="edf", service_times=times)
        assert dataclasses.replace(edf, policy="fifo") == fifo

    def test_edf_minimizes_max_lateness_single_worker(self, tiny_session):
        """Jackson's rule: with (near-)simultaneous release on one worker,
        EDF's maximum lateness never exceeds FIFO's."""
        pool, weights = mixture_lengths(PINNED_MIX)
        slo = SLOPolicy(base_seconds=0.15, per_residue_seconds=5.0e-4)
        fleet = FleetSpec.homogeneous("h100-chunk", 1)
        for seed in range(4):
            trace = poisson_trace(
                rate_rps=5000.0, num_requests=40, length_pool=pool,
                length_weights=weights, slo=slo, seed=seed,
            )
            deadlines = {r.id: r.deadline_seconds for r in trace}
            times = prefetch_service_times(trace, fleet, session=tiny_session)
            _, fifo = replay_trace_outcomes(
                trace, fleet, scheduler="fifo", service_times=times
            )
            _, edf = replay_trace_outcomes(
                trace, fleet, scheduler="edf", service_times=times
            )
            fifo_lateness = max(o.finish_seconds - deadlines[o.request_id] for o in fifo)
            edf_lateness = max(o.finish_seconds - deadlines[o.request_id] for o in edf)
            assert edf_lateness <= fifo_lateness + 1e-12

    def test_edf_never_misses_when_fifo_meets_everything(self, tiny_session):
        """On a feasible trace (FIFO misses nothing) EDF misses nothing."""
        pool, weights = mixture_lengths(PINNED_MIX)
        trace = poisson_trace(
            rate_rps=30.0, num_requests=60, length_pool=pool, length_weights=weights,
            slo=SLOPolicy(base_seconds=0.2, per_residue_seconds=1e-3), seed=5,
        )
        fleet = FleetSpec.homogeneous("h100-chunk", 2)
        times = prefetch_service_times(trace, fleet, session=tiny_session)
        fifo = replay_trace(trace, fleet, scheduler="fifo", service_times=times)
        edf = replay_trace(trace, fleet, scheduler="edf", service_times=times)
        assert fifo.deadlines_missed == 0
        assert edf.deadlines_missed == 0

    def test_edf_misses_no_more_deadlines_than_fifo_on_pinned_trace(self, pinned_times):
        for size in (PINNED_FLEET_SIZE, 6):
            fifo = pinned_replay("fifo", pinned_times, size=size)
            edf = pinned_replay("edf", pinned_times, size=size)
            assert edf.deadlines_missed <= fifo.deadlines_missed
            assert edf.slo_attainment >= fifo.slo_attainment


# ------------------------------------------------------------------ goldens
class TestClusterGoldens:
    @pytest.mark.parametrize("policy", sorted(GOLDENS))
    def test_pinned_report_matches_golden(self, policy, pinned_times):
        p50, p99, mean, slo, missed, max_depth, util, cost = GOLDENS[policy]
        report = pinned_replay(policy, pinned_times)
        assert report.p50_latency_seconds == pytest.approx(p50, rel=RELATIVE_TOLERANCE)
        assert report.p99_latency_seconds == pytest.approx(p99, rel=RELATIVE_TOLERANCE)
        assert report.mean_latency_seconds == pytest.approx(mean, rel=RELATIVE_TOLERANCE)
        assert report.slo_attainment == pytest.approx(slo, rel=RELATIVE_TOLERANCE)
        assert report.deadlines_missed == missed
        assert report.max_queue_depth == max_depth
        assert report.utilization["h100-chunk"] == pytest.approx(util, rel=RELATIVE_TOLERANCE)
        assert report.cost_per_million_requests == pytest.approx(cost, rel=RELATIVE_TOLERANCE)
        assert report.dropped == 0
        assert report.completed == PINNED_REQUESTS

    def test_smart_policies_beat_fifo_on_p99_and_slo(self, pinned_times):
        """The acceptance headline: on the pinned trace + 4-worker fleet,
        EDF and length-bucketed batching beat FIFO on both p99 and SLO."""
        fifo = pinned_replay("fifo", pinned_times)
        for policy in ("edf", "bucketed"):
            smart = pinned_replay(policy, pinned_times)
            assert smart.p99_latency_seconds < fifo.p99_latency_seconds
            assert smart.slo_attainment > fifo.slo_attainment


# ------------------------------------------------------------------ planner
class TestPlanner:
    @pytest.fixture(scope="class")
    def plan(self):
        return plan_capacity(
            pinned_trace(),
            base_fleet=FleetSpec.homogeneous("h100-chunk", 1),
            fleet_sizes=(4, 5, 6, 7, 8),
            policies=("fifo", "bucketed", "edf"),
            slo_target=0.95,
            session=SimulationSession(ppm_config=PPMConfig.tiny()),
            same_length_reuse_discount=PINNED_REUSE_DISCOUNT,
        )

    def test_attainment_improves_with_fleet_size(self, plan):
        for policy in plan.policies():
            curve = plan.attainment_curve(policy)
            sizes = [s for s, _ in curve]
            attainments = [a for _, a in curve]
            assert sizes == sorted(sizes)
            assert attainments[-1] >= attainments[0]
            assert attainments[-1] >= 0.95

    def test_minimal_fleet_fifo_needs_more_workers(self, plan):
        """The planner finds the minimal 95%-SLO fleet, and smarter policies
        need fewer workers than FIFO — the capacity-planning payoff."""
        fifo = plan.minimal_fleet("fifo")
        edf = plan.minimal_fleet("edf")
        bucketed = plan.minimal_fleet("bucketed")
        assert fifo is not None and edf is not None and bucketed is not None
        assert fifo.fleet.num_workers == 7
        assert edf.fleet.num_workers == 6
        assert bucketed.fleet.num_workers == 6
        overall = plan.minimal_fleet()
        assert overall.fleet.num_workers == 6
        cheapest = plan.cheapest_plan()
        assert cheapest is not None
        assert cheapest.report.slo_attainment >= 0.95

    def test_heterogeneous_base_fleet_fails_before_prefetch(self):
        pool, _ = mixture_lengths([(24, 1.0)])
        trace = poisson_trace(rate_rps=10.0, num_requests=5, length_pool=pool, seed=0)
        mixed = FleetSpec(
            groups=(WorkerGroup("lightnobel", 1), WorkerGroup("h100", 1)),
            name="mixed",
        )
        with pytest.raises(ValueError, match="homogeneous"):
            plan_capacity(trace, base_fleet=mixed, fleet_sizes=(1, 2))

    def test_stateful_scheduler_instance_gets_a_fresh_copy_per_cell(self, tiny_session):
        """A BucketedScheduler instance carries bucket cursors/quota; every
        grid cell must replay against a fresh copy so the cell's report
        matches a standalone replay (regression: state leaked across cells)."""
        pool, weights = mixture_lengths(PINNED_MIX)
        trace = bursty_trace(
            rate_rps=300.0, num_requests=150, length_pool=pool,
            length_weights=weights, slo=PINNED_SLO, seed=3,
        )
        base = FleetSpec.homogeneous("h100-chunk", 1)
        shared_instance = BucketedScheduler(min_bucket=64, batch_size=4)
        plan = plan_capacity(
            trace, base_fleet=base, fleet_sizes=(2, 4),
            policies=(shared_instance,), session=tiny_session,
        )
        times = prefetch_service_times(trace, base, session=tiny_session)
        for point in plan.points:
            standalone = replay_trace(
                trace, point.fleet,
                scheduler=BucketedScheduler(min_bucket=64, batch_size=4),
                service_times=times,
            )
            assert point.report == standalone

    @pytest.mark.parametrize("router", [None, "cost-greedy"])
    @pytest.mark.parametrize("policy", ["fifo", "edf", "bucketed"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_planners_share_one_grid(self, tiny_session, seed, policy, router):
        """plan_capacity is compare_fleets over the resized base fleet, and a
        scenario with no faults and no controllers plans like its trace."""
        pool, weights = mixture_lengths(PINNED_MIX)
        trace = bursty_trace(
            rate_rps=300.0, num_requests=150, length_pool=pool,
            length_weights=weights, slo=PINNED_SLO, seed=seed,
        )
        base = FleetSpec.homogeneous("h100-chunk", 1)
        sizes = (1, 2, 4)
        grid = dict(
            policies=(policy,), session=tiny_session,
            same_length_reuse_discount=PINNED_REUSE_DISCOUNT,
        )
        plan = plan_capacity(
            trace, base_fleet=base, fleet_sizes=sizes, router=router, **grid
        )
        comparison = compare_fleets(
            trace, [base.with_size(s) for s in sizes], router=router, **grid
        )
        assert len(plan.points) == len(sizes)
        assert plan.points == comparison.points
        if router is None:
            plans = plan_capacity_under_scenarios(
                [ClusterScenario(name="plain", trace=trace)],
                base_fleet=base, fleet_sizes=sizes, **grid,
            )
            assert plans == {"plain": plan}

    def test_unmeetable_slo_returns_none(self, tiny_session):
        pool, weights = mixture_lengths(PINNED_MIX)
        trace = bursty_trace(
            rate_rps=2000.0, num_requests=100, length_pool=pool,
            length_weights=weights, slo=SLOPolicy(base_seconds=1e-4), seed=1,
        )
        plan = plan_capacity(
            trace, fleet_sizes=(1,), policies=("fifo",),
            base_fleet=FleetSpec.homogeneous("h100-chunk", 1),
            session=tiny_session, slo_target=0.99,
        )
        assert plan.minimal_fleet() is None
        assert plan.cheapest_plan() is None

    def test_cluster_capacity_dse_entry_point(self, tiny_session):
        pool, weights = mixture_lengths([(24, 0.7), (48, 0.3)])
        trace = poisson_trace(
            rate_rps=250.0, num_requests=60, length_pool=pool,
            length_weights=weights,
            slo=SLOPolicy(base_seconds=0.03, per_residue_seconds=2e-4), seed=2,
        )
        plan = cluster_capacity_dse(
            trace, backend="h100-chunk", fleet_sizes=(1, 2, 4),
            config=PPMConfig.tiny(),
        )
        assert {p.policy for p in plan.points} == {"fifo", "edf"}
        minimal = plan.minimal_fleet()
        assert minimal is not None
        assert minimal.fleet.num_workers <= 4


# ----------------------------------------------- serving log -> trace round trip
def log_record(
    ticket_id,
    arrival,
    length=32,
    priority=0,
    deadline=None,
    outcome="ok",
    backend="lightnobel",
):
    from repro.serving import RequestLogRecord

    return RequestLogRecord(
        ticket_id=ticket_id,
        backend=backend,
        sequence_length=length,
        priority=priority,
        deadline_seconds=deadline,
        arrival_seconds=arrival,
        outcome=outcome,
        coalesced=False,
        queue_seconds=0.0,
        service_seconds=1e-3,
    )


class TestTraceDuration:
    def test_duration_of_unsorted_trace_is_the_max_arrival(self):
        # Regression: duration_seconds used to read requests[-1], which is
        # wrong for traces not sorted by arrival (merged or log-imported).
        requests = (
            Request(id=0, arrival_seconds=5.0, sequence_length=32),
            Request(id=1, arrival_seconds=1.0, sequence_length=32),
            Request(id=2, arrival_seconds=3.0, sequence_length=32),
        )
        trace = RequestTrace(name="unsorted", requests=requests, seed=0, offered_rps=1.0)
        assert trace.duration_seconds == 5.0

    def test_duration_of_empty_trace_is_zero(self):
        trace = RequestTrace(name="empty", requests=(), seed=0, offered_rps=0.0)
        assert trace.duration_seconds == 0.0


class TestServingLogRoundTrip:
    def test_sorts_by_arrival_and_renumbers(self):
        # Fulfillment order differs from arrival order (a short protein
        # finishes before a long one that arrived earlier).
        records = [
            log_record(1, arrival=2.0, length=24),
            log_record(0, arrival=1.0, length=96),
            log_record(2, arrival=3.0, length=48),
        ]
        trace = RequestTrace.from_serving_log(records, rebase_arrivals=False)
        assert [r.id for r in trace] == [0, 1, 2]
        assert [r.arrival_seconds for r in trace] == [1.0, 2.0, 3.0]
        assert [r.sequence_length for r in trace] == [96, 24, 48]

    def test_rebase_shifts_first_arrival_to_zero_and_keeps_gaps(self):
        records = [
            log_record(0, arrival=10.0, deadline=0.5),
            log_record(1, arrival=10.25, deadline=0.75),
        ]
        trace = RequestTrace.from_serving_log(records)
        assert trace.requests[0].arrival_seconds == 0.0
        assert trace.requests[1].arrival_seconds == pytest.approx(0.25)
        # Deadlines are relative in the log, absolute in the trace.
        assert trace.requests[0].deadline_seconds == pytest.approx(0.5)
        assert trace.requests[1].deadline_seconds == pytest.approx(0.25 + 0.75)
        assert trace.requests[0].deadline_slack_seconds == pytest.approx(0.5)

    def test_priority_and_missing_deadline_are_preserved(self):
        records = [
            log_record(0, arrival=0.0, priority=2, deadline=None),
            log_record(1, arrival=0.5, priority=0, deadline=1.0),
        ]
        trace = RequestTrace.from_serving_log(records)
        assert trace.requests[0].priority == 2
        assert trace.requests[0].deadline_seconds is None
        assert trace.requests[1].priority == 0
        assert trace.requests[1].deadline_seconds == pytest.approx(1.5)

    def test_errors_are_dropped_by_default_and_kept_on_request(self):
        records = [
            log_record(0, arrival=0.0),
            log_record(1, arrival=0.5, outcome="error"),
            log_record(2, arrival=1.0),
        ]
        assert len(RequestTrace.from_serving_log(records)) == 2
        kept = RequestTrace.from_serving_log(records, include_errors=True)
        assert len(kept) == 3

    def test_empty_log_builds_an_empty_trace(self):
        trace = RequestTrace.from_serving_log([])
        assert len(trace) == 0
        assert trace.duration_seconds == 0.0
        assert trace.offered_rps == 0.0

    def test_offered_rps_matches_the_log_span(self):
        records = [log_record(i, arrival=0.5 * i) for i in range(5)]
        trace = RequestTrace.from_serving_log(records)
        assert trace.offered_rps == pytest.approx(5 / 2.0)

    def test_digest_is_stable_within_and_across_processes(self):
        import subprocess
        import sys

        records = [
            log_record(i, arrival=0.125 * i, length=24 + 8 * (i % 3), priority=i % 2,
                       deadline=0.5 + 0.01 * i)
            for i in range(6)
        ]
        trace = RequestTrace.from_serving_log(records)
        assert trace.config_digest() == RequestTrace.from_serving_log(records).config_digest()
        script = (
            "from repro.cluster import RequestTrace\n"
            "from tests.test_cluster import log_record\n"
            "records = [log_record(i, arrival=0.125 * i, length=24 + 8 * (i % 3),"
            " priority=i % 2, deadline=0.5 + 0.01 * i) for i in range(6)]\n"
            "print(RequestTrace.from_serving_log(records).config_digest())\n"
        )
        other = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, check=True,
        )
        assert other.stdout.strip() == trace.config_digest()

    def test_live_service_log_replays_bit_identically(self, tiny_session):
        with LatencyService(
            ppm_config=PPMConfig.tiny()
        ) as service:
            tickets = service.submit_batch(
                [
                    ("h100-chunk", n)
                    for n in (24, 40, 24, 40)
                ]
            )
            for ticket in tickets:
                service.result(ticket, timeout=120.0).raise_for_error()
            records = service.request_log()
        trace = RequestTrace.from_serving_log(records)
        assert len(trace) == 4
        assert sorted(trace.lengths()) == [24, 24, 40, 40]
        assert trace.config_digest() == RequestTrace.from_serving_log(records).config_digest()
        fleet = FleetSpec.homogeneous("h100-chunk", 2)
        times = prefetch_service_times(trace, fleet, session=tiny_session)
        first = replay_trace(trace, fleet, scheduler="edf", service_times=times)
        again = replay_trace(trace, fleet, scheduler="edf", service_times=times)
        assert first == again  # bit-identical, every field
        assert first.completed == first.requests == 4


class TestLogTraceProperties:
    """Hypothesis: any serving log round-trips to a bit-stable replayable trace."""

    from hypothesis import given, settings
    from hypothesis import strategies as st

    logs = st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            st.sampled_from([24, 32, 48, 96]),
            st.integers(min_value=0, max_value=2),
            st.one_of(st.none(), st.floats(min_value=1e-3, max_value=10.0)),
        ),
        min_size=1,
        max_size=25,
    )

    @given(entries=logs)
    @settings(max_examples=30, deadline=None)
    def test_round_trip_replays_bit_identically(self, entries):
        records = [
            log_record(i, arrival=a, length=n, priority=p, deadline=d)
            for i, (a, n, p, d) in enumerate(entries)
        ]
        trace = RequestTrace.from_serving_log(records)
        assert len(trace) == len(entries)
        assert trace.config_digest() == RequestTrace.from_serving_log(records).config_digest()
        arrivals = [r.arrival_seconds for r in trace]
        assert arrivals == sorted(arrivals)
        assert arrivals[0] == 0.0
        fleet = FleetSpec.homogeneous("lightnobel", 2)
        times = {(0, n): 0.001 * n for n in trace.distinct_lengths()}
        first = replay_trace(trace, fleet, scheduler="edf", service_times=times)
        again = replay_trace(trace, fleet, scheduler="edf", service_times=times)
        assert first == again
        assert first.completed == len(trace)
