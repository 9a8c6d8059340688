"""Latency-serving layer: coalescing, ordering, service ≡ session parity, stats."""

import dataclasses
import multiprocessing
import sys
import threading
import time

import pytest

from repro import _digest as digest_module
from repro._memo import CONFIG_MEMO, ConfigMemo
from repro.analysis import hardware_dse, latency_breakdown
from repro.analysis.latency import compare_hardware_on_lengths
from repro.gpu import EndToEndComparison
from repro.hardware import LightNobelAccelerator, LightNobelConfig
from repro.obs.tracing import Tracer
from repro.ppm import PPMConfig
from repro.serving import (
    LatencyRequest,
    LatencyService,
    LatencyServiceError,
)
from repro.serving import service as service_module
from repro.sim import SimulationSession

LENGTHS = (24, 40)
TIMEOUT = 120.0


@pytest.fixture()
def config() -> PPMConfig:
    return PPMConfig.tiny()


def make_service(config, **kwargs) -> LatencyService:
    return LatencyService(ppm_config=config, **kwargs)


@pytest.fixture()
def count_accelerator_sims(monkeypatch):
    """Count how many (backend, length) points the accelerator actually prices.

    Every pricing call is a stacked pass (a single length is a one-segment
    stack) and each segment is one point — so the count is invariant to
    whether the service batched.
    """
    calls = {"n": 0}
    original_stack = LightNobelAccelerator.simulate_stack

    def counting_stack(self, stack):
        calls["n"] += stack.num_segments
        return original_stack(self, stack)

    monkeypatch.setattr(LightNobelAccelerator, "simulate_stack", counting_stack)
    return calls


class TestCoalescing:
    def test_identical_inflight_requests_share_one_simulation(
        self, config, count_accelerator_sims
    ):
        service = make_service(config, autostart=False)
        tickets = service.submit_batch(
            [LatencyRequest("lightnobel", LENGTHS[0])] * 8
        )
        assert service.queue_depth() == 1  # one unique job for 8 requests
        service.start()
        responses = [service.result(t, timeout=TIMEOUT) for t in tickets]
        assert count_accelerator_sims["n"] == 1
        assert service.stats.simulations == 1
        assert service.stats.coalesced == 7
        assert sum(r.coalesced for r in responses) == 7
        totals = {r.report.total_seconds for r in responses}
        assert len(totals) == 1
        service.close()

    def test_mixed_batch_coalesces_by_key(self, config, count_accelerator_sims):
        service = make_service(config, autostart=False)
        requests = [
            LatencyRequest("lightnobel", n) for n in (LENGTHS * 3)
        ]  # 6 requests, 2 unique keys
        tickets = service.submit_batch(requests)
        assert service.queue_depth() == 2
        service.start()
        for ticket in tickets:
            service.result(ticket, timeout=TIMEOUT).raise_for_error()
        assert count_accelerator_sims["n"] == 2
        assert service.stats.coalesced == 4
        service.close()

    def test_duplicated_mixed_batch_coalesces_stacks_and_matches_session(self, config):
        # Four specs (three names and a config) x two lengths, the whole batch
        # submitted twice and staged before the dispatcher starts, so every
        # copy is in flight with its original: the copies must coalesce and
        # each spec's misses must be priced by one stacked pass.
        specs = ("lightnobel", "h100", "h100-chunk", LightNobelConfig(num_rmpus=8))
        requests = [LatencyRequest(spec, n) for spec in specs for n in (24, 48)] * 2
        unique = len(requests) // 2
        service = make_service(config, autostart=False)
        tickets = service.submit_batch(requests)
        with service:
            responses = [service.result(t, timeout=TIMEOUT) for t in tickets]
            report = service.capacity_report()
        reference = SimulationSession(ppm_config=config)
        for response in responses:
            response.raise_for_error()
            direct = reference.simulate(
                response.request.sequence_length, backend=response.request.backend
            )
            assert response.report.total_seconds == direct.total_seconds
        assert report.coalesced >= len(requests) - unique
        assert report.stacked_points == unique
        assert report.errors == 0

    def test_case_variants_of_a_name_coalesce(self, config):
        service = make_service(config, autostart=False)
        service.submit_batch([("H100", LENGTHS[0]), ("h100", LENGTHS[0])])
        assert service.queue_depth() == 1
        service.start()
        service.join(timeout=TIMEOUT)
        assert service.stats.coalesced == 1
        service.close()

    def test_distinct_recycle_flags_do_not_coalesce(self, config):
        service = make_service(config, autostart=False)
        service.submit_batch(
            [
                LatencyRequest("lightnobel", LENGTHS[0], include_recycles=False),
                LatencyRequest("lightnobel", LENGTHS[0], include_recycles=True),
            ]
        )
        assert service.queue_depth() == 2
        # Wait for the drain: its two simulations must not land in the next
        # test's class-level simulation counter.
        service.close()

    def test_late_duplicate_is_a_memo_hit(self, config, count_accelerator_sims):
        with make_service(config) as service:
            first = service.query("lightnobel", LENGTHS[0], timeout=TIMEOUT)
            again = service.query("lightnobel", LENGTHS[0], timeout=TIMEOUT)
            assert again.total_seconds == first.total_seconds
            assert count_accelerator_sims["n"] == 1
            assert service.stats.memo_hits == 1
            assert service.stats.coalesced == 0


class TestSpecKeys:
    @pytest.fixture(autouse=True)
    def fresh_memo(self):
        # Spec keys are memoized per process: start from none.
        CONFIG_MEMO.clear()

    def test_batch_digests_each_spec_object_once(self, config, monkeypatch):
        calls = {"n": 0}
        original = service_module._spec_key

        def counting(spec):
            calls["n"] += 1
            return original(spec)

        monkeypatch.setattr(service_module, "_spec_key", counting)
        specs = [LightNobelConfig(num_rmpus=r) for r in range(1, 21)]
        lengths = [16 + 4 * i for i in range(16)]
        with make_service(config) as service:
            reports = service.query_batch(
                [LatencyRequest(spec, n) for spec in specs for n in lengths],
                timeout=TIMEOUT,
            )
        assert len(reports) == 320
        assert calls["n"] == 20

    def test_each_config_value_is_digested_once_across_batches(self, config, monkeypatch):
        digested = []
        original = digest_module.stable_digest

        def counting(kind, value):
            if isinstance(value, LightNobelConfig):
                digested.append(value)
            return original(kind, value)

        monkeypatch.setattr(digest_module, "stable_digest", counting)
        with make_service(config) as service:
            # Fresh but equal config objects in every request, as
            # hardware_dse builds them on every call.
            for _ in range(3):
                service.query_batch(
                    [(LightNobelConfig(num_rmpus=r), n) for r in (3, 5) for n in LENGTHS],
                    timeout=TIMEOUT,
                )
            assert service.stats.simulations == 4
        assert digested == [LightNobelConfig(num_rmpus=3), LightNobelConfig(num_rmpus=5)]

    def test_spec_key_memo_is_bounded_and_skips_unhashable_specs(self):
        @dataclasses.dataclass
        class MutableSpec:  # eq without frozen: unhashable
            rmpus: int

        memo = ConfigMemo(limit=1)
        first, second = LightNobelConfig(num_rmpus=3), LightNobelConfig(num_rmpus=5)
        key = service_module._spec_key
        assert memo.get(("spec_key", first), key, first) == key(first)
        assert memo.get(("spec_key", first), key, first) == key(first)
        assert len(memo) == 1
        assert memo.get(("spec_key", second), key, second) == key(second)
        assert len(memo) == 1  # the oldest entry made room
        spec = MutableSpec(2)
        assert memo.get(("spec_key", spec), key, spec) == key(spec)
        assert len(memo) == 1
        with pytest.raises(ValueError):
            ConfigMemo(limit=0)

    def test_a_fresh_service_rekeys_no_spec_and_rebuilds_no_constants(self, config, monkeypatch):
        # Every dse-sweep pass opens a fresh service over the Fig. 12 grid;
        # the second pays neither spec digests nor group-parameter builds.
        counts = {"keys": 0, "builds": 0}
        key, build = service_module._spec_key, LightNobelAccelerator._build_group_parameters

        def counting_key(spec):
            counts["keys"] += 1
            return key(spec)

        def counting_build(self, groups):
            counts["builds"] += 1
            return build(self, groups)

        monkeypatch.setattr(service_module, "_spec_key", counting_key)
        monkeypatch.setattr(LightNobelAccelerator, "_build_group_parameters", counting_build)
        kwargs = dict(sequence_lengths=LENGTHS, config=config)
        with make_service(config) as service:
            first = hardware_dse(service=service, **kwargs)
        assert counts["keys"] > 0 and counts["builds"] > 0
        counts.update(keys=0, builds=0)
        with make_service(config) as service:
            assert hardware_dse(service=service, **kwargs) == first
            assert service.stats.simulations > 0  # a fresh memo: every point priced
        assert counts == {"keys": 0, "builds": 0}

    def test_equal_configs_in_distinct_objects_coalesce_within_a_batch(self, config):
        first, second = LightNobelConfig(num_rmpus=8), LightNobelConfig(num_rmpus=8)
        assert first is not second
        service = make_service(config, autostart=False)
        service.submit_batch([(first, LENGTHS[0]), (second, LENGTHS[0])])
        assert service.queue_depth() == 1
        assert service.stats.coalesced == 1
        service.close()

    def test_equal_configs_in_distinct_objects_coalesce_across_batches(self, config):
        service = make_service(config, autostart=False)
        service.submit_batch([(LightNobelConfig(num_rmpus=8), LENGTHS[0])])
        service.submit_batch([(LightNobelConfig(num_rmpus=8), LENGTHS[0])])
        assert service.queue_depth() == 1
        assert service.stats.coalesced == 1
        service.close()


class TestTicketWaits:
    """Tickets wait on the service's condition, not on per-ticket primitives."""

    def test_fig12_batch_builds_no_sync_objects_per_ticket(self, config, monkeypatch):
        with make_service(config) as service:
            service.start()
            threads = (threading.current_thread(), service._thread)
            built = []
            for name in ("Event", "Condition"):
                original = getattr(threading, name)

                class Counting(original):
                    def __init__(self, *args, _name=name, **kwargs):
                        if threading.current_thread() in threads:
                            built.append(_name)
                        super().__init__(*args, **kwargs)

                monkeypatch.setattr(threading, name, Counting)
            served = hardware_dse(
                LENGTHS, rmpu_counts=(1, 2, 4), vvpu_counts=(1, 2), config=config,
                service=service,
            )
            monkeypatch.undo()
            assert service.stats.completed == 5 * len(LENGTHS)
        assert built == []
        assert served == hardware_dse(
            LENGTHS, rmpu_counts=(1, 2, 4), vvpu_counts=(1, 2), config=config
        )

    def test_waiter_is_woken_when_the_dispatcher_fulfils(self, config):
        service = make_service(config, autostart=False)
        ticket = service.submit(("lightnobel", LENGTHS[0]))
        woken = {}
        waiter = threading.Thread(
            target=lambda: woken.setdefault("response", service.result(ticket, timeout=10.0))
        )
        waiter.start()
        time.sleep(0.05)  # let it block: the dispatcher has not started
        assert service.ticket_state(ticket) == "pending"
        service.start()
        waiter.join(5.0)  # well inside its own timeout
        assert not waiter.is_alive()
        assert woken["response"].ok and service.stats.timeouts == 0
        service.close()

    def test_waiter_on_a_coalesced_memo_hit_is_woken(self, config):
        """A duplicate attached to a hit being answered at submit wakes too."""
        with make_service(config) as service:
            service.query("lightnobel", LENGTHS[0], timeout=TIMEOUT)
            duplicate = {}
            original = service._fulfill

            def racing_fulfill(jobs, results, started, inline=False):
                # Another client submits the same key while this hit is
                # still pending, then blocks on it from its own thread.
                if inline and not duplicate:
                    ticket = service.submit(("lightnobel", LENGTHS[0]))
                    duplicate["waiter"] = threading.Thread(
                        target=lambda: duplicate.setdefault(
                            "response", service.result(ticket, timeout=10.0)
                        )
                    )
                    duplicate["waiter"].start()
                    time.sleep(0.05)
                original(jobs, results, started, inline=inline)

            service._fulfill = racing_fulfill
            first = service.submit(("lightnobel", LENGTHS[0]))
            duplicate["waiter"].join(5.0)  # well inside its own timeout
            assert not duplicate["waiter"].is_alive()
            assert duplicate["response"].coalesced and duplicate["response"].ok
            assert service.result(first, timeout=0).ok


class TestQueueOrdering:
    def test_jobs_complete_in_submission_order(self, config):
        service = make_service(config, autostart=False)
        requests = [
            LatencyRequest(spec, n)
            for spec in ("lightnobel", "h100", "a100-chunk")
            for n in LENGTHS
        ]
        tickets = service.submit_batch(requests)
        assert service.queue_depth() == len(requests)
        service.start()
        responses = [service.result(t, timeout=TIMEOUT) for t in tickets]
        order = [r.completed_index for r in responses]
        assert order == sorted(order)
        assert len(set(order)) == len(requests)
        service.close()

    def test_coalesced_requests_share_the_completed_index(self, config):
        service = make_service(config, autostart=False)
        tickets = service.submit_batch([("lightnobel", LENGTHS[0])] * 3)
        service.start()
        indices = {
            service.result(t, timeout=TIMEOUT).completed_index for t in tickets
        }
        assert len(indices) == 1
        service.close()

    def test_service_timings_are_ordered(self, config):
        with make_service(config) as service:
            ticket = service.submit(LatencyRequest("lightnobel", LENGTHS[1]))
            response = service.result(ticket, timeout=TIMEOUT)
        assert 0.0 <= response.queue_seconds <= response.service_seconds


class TestWorkerPoolParity:
    """Specs that could never cross a process boundary are served in-process."""

    def test_pool_unsafe_specs_still_served(self, config):
        # A live backend instance cannot be shipped to a worker process; the
        # service must evaluate it serially instead of failing.
        backend = LightNobelAccelerator(ppm_config=config)
        backend.unpicklable = threading.Lock()
        with make_service(config) as service:
            report = service.query(backend, LENGTHS[0], timeout=TIMEOUT)
        direct = SimulationSession(ppm_config=config).simulate(
            LENGTHS[0], backend="lightnobel"
        )
        assert report.total_seconds == direct.total_seconds


class TestSynchronousAndErrors:
    def test_query_returns_simreport(self, config):
        with make_service(config) as service:
            report = service.query("h100", LENGTHS[0], timeout=TIMEOUT)
        assert report.backend == "h100"
        assert report.total_seconds > 0

    def test_unknown_backend_is_an_error_response_not_a_crash(self, config):
        with make_service(config) as service:
            ticket = service.submit(LatencyRequest("not-a-backend", LENGTHS[0]))
            response = service.result(ticket, timeout=TIMEOUT)
            assert not response.ok
            assert "not-a-backend" in response.error
            with pytest.raises(LatencyServiceError):
                response.raise_for_error()
            # The service keeps serving after an error.
            assert service.query("h100", LENGTHS[0], timeout=TIMEOUT).total_seconds > 0
            assert service.stats.errors == 1

    def test_nonpositive_length_rejected_at_request_construction(self):
        with pytest.raises(ValueError):
            LatencyRequest("lightnobel", 0)

    def test_poll_semantics(self, config):
        service = make_service(config, autostart=False)
        ticket = service.submit(LatencyRequest("lightnobel", LENGTHS[0]))
        assert service.poll(ticket) is None  # not started yet
        service.start()
        service.join(timeout=TIMEOUT)
        response = service.poll(ticket)
        assert response is not None and response.ok
        with pytest.raises(KeyError):  # consumed
            service.poll(ticket)
        service.close()

    def test_submit_after_close_raises(self, config):
        service = make_service(config)
        service.close()
        with pytest.raises(RuntimeError):
            service.submit(LatencyRequest("lightnobel", LENGTHS[0]))

    def test_close_drains_pending_requests(self, config):
        service = make_service(config, autostart=False)
        tickets = service.submit_batch([("lightnobel", n) for n in LENGTHS])
        service.start()
        service.close(wait=True)
        for ticket in tickets:
            assert service.result(ticket, timeout=0.0).ok

    def test_close_drains_even_if_dispatcher_never_started(self, config):
        # Regression: close() on a staged-but-never-started service must
        # still fulfill the queued tickets, not strand them forever.
        service = make_service(config, autostart=False)
        ticket = service.submit(LatencyRequest("lightnobel", LENGTHS[0]))
        service.close(wait=True)
        assert service.result(ticket, timeout=0.0).ok

    def test_session_settings_rejected_alongside_session(self, config):
        session = SimulationSession(ppm_config=config)
        with pytest.raises(ValueError):
            LatencyService(session=session, include_recycles=True)
        with pytest.raises(ValueError):
            LatencyService(session=session, backends=("lightnobel",))

    def test_session_config_mismatch_raises(self, config):
        session = SimulationSession(ppm_config=config)
        with pytest.raises(ValueError):
            LatencyService(ppm_config=PPMConfig.small(), session=session)


class TestMemoHitsAtSubmit:
    """A memo hit is answered on the submitting thread, through ``_fulfill``."""

    def test_warm_hit_is_fulfilled_before_submit_returns(self, config):
        tracer = Tracer()
        with make_service(config, tracer=tracer) as service:
            service.query("lightnobel", LENGTHS[0], timeout=TIMEOUT)
            assert service.join(timeout=TIMEOUT)
            batches, busy = service.stats.batches, service.stats.busy_seconds
            ticket = service.submit(
                LatencyRequest("lightnobel", LENGTHS[0], trace_id="warm-hit")
            )
            assert service.ticket_state(ticket) == "fulfilled"
            response = service.poll(ticket)
            assert response.ok and response.queue_seconds == 0.0
            assert service.stats.memo_hits == 1
            assert service.stats.batches == batches  # batches stay dispatcher batches
            assert service.stats.busy_seconds > busy  # inline time is busy time
            log = service.request_log()
            assert log[-1].ticket_id == ticket and log[-1].outcome == "ok"
        root = tracer.to_dict("warm-hit")["tree"][0]
        assert root["attributes"]["path"] == "memo-hit"
        assert root["attributes"]["ticket_id"] == ticket

    def test_hit_on_a_never_started_service_is_answered_at_submit(self, config):
        session = SimulationSession(ppm_config=config)
        session.simulate(LENGTHS[0])
        service = LatencyService(session=session, autostart=False)
        ticket = service.submit(LatencyRequest("lightnobel", LENGTHS[0]))
        assert service.ticket_state(ticket) == "fulfilled"
        assert service.queue_depth() == 0 and service.stats.batches == 0
        service.close()

    def test_busy_session_queues_the_hit_for_the_dispatcher(self, config):
        tracer = Tracer()
        with make_service(config, tracer=tracer) as service:
            service.query("lightnobel", LENGTHS[0], timeout=TIMEOUT)
            assert service.join(timeout=TIMEOUT)
            batches = service.stats.batches
            held, release = threading.Event(), threading.Event()

            def hold_session():
                with service._session_lock:
                    held.set()
                    assert release.wait(TIMEOUT)

            holder = threading.Thread(target=hold_session)
            holder.start()
            assert held.wait(TIMEOUT)
            ticket = service.submit(
                LatencyRequest("lightnobel", LENGTHS[0], trace_id="busy-hit")
            )
            assert service.ticket_state(ticket) == "pending"
            release.set()
            holder.join()
            assert service.result(ticket, timeout=TIMEOUT).ok
            assert service.stats.memo_hits == 1
            assert service.stats.batches == batches + 1
        root = tracer.to_dict("busy-hit")["tree"][0]
        assert root["attributes"]["path"] == "memo-hit"

    def test_unknown_backend_on_a_warm_service_gets_the_dispatcher_error(self, config):
        with make_service(config) as service:
            service.query("lightnobel", LENGTHS[0], timeout=TIMEOUT)
            assert service.join(timeout=TIMEOUT)
            batches = service.stats.batches
            ticket = service.submit(LatencyRequest("not-a-backend", LENGTHS[0]))
            response = service.result(ticket, timeout=TIMEOUT)
            assert not response.ok and "not-a-backend" in response.error
            assert service.stats.batches == batches + 1
            assert service.stats.errors == 1

    def test_concurrent_submitters_and_dispatcher_lose_no_update(self, config):
        lengths = (24, 32, 40, 48, 56)
        threads, per_thread = 6, 40
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with make_service(config) as service:
                failures = []

                def tenant(offset):
                    try:
                        for i in range(per_thread):
                            length = lengths[(i + offset) % len(lengths)]
                            ticket = service.submit(LatencyRequest("lightnobel", length))
                            assert service.result(ticket, timeout=TIMEOUT).ok
                    except Exception as exc:  # surfaced below
                        failures.append(exc)

                workers = [
                    threading.Thread(target=tenant, args=(k,)) for k in range(threads)
                ]
                for worker in workers:
                    worker.start()
                for worker in workers:
                    worker.join(TIMEOUT)
                assert not any(worker.is_alive() for worker in workers)
                assert failures == []
                report = service.capacity_report()
                log = service.request_log()
        finally:
            sys.setswitchinterval(switch)
        issued = threads * per_thread
        assert report.requests == report.completed == issued == len(log)
        assert len({record.ticket_id for record in log}) == issued
        assert report.simulations == len(lengths)
        assert report.coalesced + report.memo_hits + report.simulations == issued

    def test_a_miss_is_looked_up_once_before_pricing(self, config):
        """One memo lookup per distinct key at submit, however many requests share it."""
        bare = SimulationSession(ppm_config=config)
        with make_service(config) as service:
            counts = {}
            for name, session in (("bare", bare), ("service", service.session)):
                original = session._peek  # every memo lookup goes through it

                def counting(*point, _original=original, _name=name):
                    counts[_name] = counts.get(_name, 0) + 1
                    return _original(*point)

                session._peek = counting
            bare.simulate(LENGTHS[0])
            service.query("lightnobel", LENGTHS[0], timeout=TIMEOUT)
            # Submit's peek, then whatever the session's own pricing checks.
            assert counts["service"] == counts["bare"] + 1
            assert service.stats.simulations == 1 and service.stats.memo_hits == 0
            # A thousand duplicates of one new key: still one lookup at submit.
            looked_up = counts["service"]
            reports = service.query_batch([("lightnobel", LENGTHS[1])] * 1000, timeout=TIMEOUT)
            assert counts["service"] - looked_up == counts["bare"] + 1
            assert len(reports) == 1000 and len({id(report) for report in reports}) == 1
            assert service.stats.simulations == 2 and service.stats.coalesced == 999


class TestStatsAndCapacity:
    def test_counters_and_percentiles(self, config):
        with make_service(config) as service:
            service.query_batch(
                [("lightnobel", n) for n in LENGTHS] * 3, timeout=TIMEOUT
            )
            report = service.capacity_report()
        assert report.requests == 6
        assert report.completed == 6
        assert report.errors == 0
        assert report.simulations == 2
        assert report.coalesced + report.memo_hits == 4
        assert report.hit_rate == pytest.approx(4 / 6)
        assert report.queue_depth == 0
        assert report.peak_queue_depth >= 1
        assert report.busy_seconds > 0
        assert report.queries_per_second > 0
        labels = {row.backend for row in report.backends}
        assert "lightnobel" in labels
        for row in report.backends:
            assert row.requests > 0
            assert 0 <= row.p50_seconds <= row.p99_seconds

    def test_queue_depth_tracks_staged_load(self, config):
        service = make_service(config, autostart=False)
        # Hold the dispatcher inside its first batch, after it drained the
        # queue, so a recorded copy of the depth would read stale.
        running, release = threading.Event(), threading.Event()
        execute = service._execute

        def gated(jobs):
            running.set()
            assert release.wait(TIMEOUT)
            return execute(jobs)

        service._execute = gated

        def readings():
            prom = service.stats.metrics_registry().get("repro_serving_queue_depth")
            return (
                service.stats.queue_depth,
                service.stats.snapshot()["queue_depth"],
                service.capacity_report().queue_depth,
                int(prom.value),
            )

        service.submit_batch([("lightnobel", n) for n in LENGTHS])
        assert service.stats.peak_queue_depth == 2
        assert readings() == (2, 2, 2, 2)
        service.start()
        assert running.wait(TIMEOUT)
        assert service.queue_depth() == 0
        assert readings() == (0, 0, 0, 0)  # read live, not recorded at submit
        release.set()
        assert service.join(timeout=TIMEOUT)
        assert service.stats.peak_queue_depth == 2
        service.close()


class TestRewiredEntryPoints:
    def test_latency_breakdown_matches_session_path(self, config):
        with make_service(config) as service:
            via_service = latency_breakdown(LENGTHS[0], config=config, service=service)
        direct = latency_breakdown(
            LENGTHS[0], session=SimulationSession(ppm_config=config)
        )
        assert via_service.phase_fractions == direct.phase_fractions
        assert via_service.subphase_fractions == direct.subphase_fractions

    def test_compare_hardware_matches_session_path(self, config):
        with make_service(config) as service:
            via_service = compare_hardware_on_lengths(
                "dataset", LENGTHS, config=config, service=service
            )
        direct = compare_hardware_on_lengths(
            "dataset",
            LENGTHS,
            session=SimulationSession(ppm_config=config),
        )
        assert via_service.lightnobel_seconds == direct.lightnobel_seconds
        assert via_service.gpu_seconds == direct.gpu_seconds
        assert via_service.out_of_memory == direct.out_of_memory

    def test_hardware_dse_matches_sweep_path(self, config):
        kwargs = dict(
            sequence_lengths=[LENGTHS[0]],
            rmpu_counts=(8, 32),
            vvpu_counts=(2, 4),
            config=config,
        )
        with make_service(config) as service:
            via_service = hardware_dse(service=service, **kwargs)
        direct = hardware_dse(**kwargs)
        for key in ("vvpu_sweep", "rmpu_sweep"):
            assert [p.average_latency_seconds for p in via_service[key]] == [
                p.average_latency_seconds for p in direct[key]
            ]

    def test_end_to_end_comparison_matches_session_path(self, config):
        with make_service(config) as service:
            via_service = EndToEndComparison(service=service).compare(LENGTHS)
        direct = EndToEndComparison(
            session=SimulationSession(ppm_config=config)
        ).compare(LENGTHS)
        assert via_service == direct

    def test_service_session_mismatch_raises(self, config):
        with make_service(config) as service:
            other = SimulationSession(ppm_config=config)
            with pytest.raises(ValueError):
                latency_breakdown(
                    LENGTHS[0], config=config, session=other, service=service
                )
            with pytest.raises(ValueError):
                hardware_dse(
                    [LENGTHS[0]], config=PPMConfig.small(), service=service
                )

    def test_concurrent_tenants_share_coalesced_work(self, config):
        # Two "tenants" submit overlapping grids from different threads; the
        # service must answer both with consistent numbers and coalesce the
        # overlap whenever the queue still holds the duplicate.
        results = {}

        def tenant(name, service):
            results[name] = [
                r.total_seconds
                for r in service.query_batch(
                    [("lightnobel", n) for n in LENGTHS * 2], timeout=TIMEOUT
                )
            ]

        with make_service(config) as service:
            threads = [
                threading.Thread(target=tenant, args=(i, service)) for i in range(3)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert service.stats.simulations == len(LENGTHS)
        assert results[0] == results[1] == results[2]


class TestWorkerPoolLifecycle:
    """Latency pricing never leaves the process."""

    def test_serial_service_never_creates_a_pool(self, config):
        grid = [(spec, n) for spec in ("lightnobel", "h100", "h100-chunk") for n in LENGTHS]
        before = set(multiprocessing.active_children())
        with make_service(config) as service:
            service.query_batch(grid, timeout=TIMEOUT)
            assert set(multiprocessing.active_children()) <= before


class TestPriorityDeadlineDispatch:
    """LatencyRequest priority/deadline fields steer the dispatcher queue."""

    def test_higher_priority_dispatches_first(self, config):
        service = make_service(config, autostart=False, max_batch=2)
        low = service.submit_batch(
            [LatencyRequest("lightnobel", n) for n in (24, 32, 40, 48)]
        )
        high = service.submit(LatencyRequest("h100", 24, priority=3))
        service.start()
        high_index = service.result(high, timeout=TIMEOUT).completed_index
        low_indices = [
            service.result(t, timeout=TIMEOUT).completed_index for t in low
        ]
        service.close()
        # Submitted last, dispatched first.
        assert high_index < min(low_indices)
        # Default-priority requests keep FIFO order among themselves.
        assert low_indices == sorted(low_indices)

    def test_earlier_deadline_wins_within_a_priority(self, config):
        service = make_service(config, autostart=False, max_batch=1)
        no_deadline = service.submit_batch(
            [LatencyRequest("lightnobel", n) for n in (24, 32, 40)]
        )
        late = service.submit(LatencyRequest("h100", 40, deadline_seconds=60.0))
        soon = service.submit(LatencyRequest("h100", 24, deadline_seconds=0.5))
        service.start()
        soon_index = service.result(soon, timeout=TIMEOUT).completed_index
        late_index = service.result(late, timeout=TIMEOUT).completed_index
        rest = [service.result(t, timeout=TIMEOUT).completed_index for t in no_deadline]
        service.close()
        # Any finite deadline beats no deadline; earlier beats later.
        assert soon_index < late_index
        assert late_index < min(rest)

    def test_priority_beats_deadline(self, config):
        service = make_service(config, autostart=False, max_batch=1)
        deadline = service.submit(
            LatencyRequest("lightnobel", 24, deadline_seconds=0.001)
        )
        priority = service.submit(LatencyRequest("h100", 24, priority=1))
        service.start()
        p = service.result(priority, timeout=TIMEOUT).completed_index
        d = service.result(deadline, timeout=TIMEOUT).completed_index
        service.close()
        assert p < d

    def test_coalesced_duplicate_tightens_job_urgency(self, config):
        service = make_service(config, autostart=False, max_batch=1)
        slow = service.submit(LatencyRequest("lightnobel", 24))
        filler = service.submit(LatencyRequest("lightnobel", 32))
        # A high-priority duplicate of the first job coalesces onto it and
        # must drag the shared job ahead of the filler.
        dup = service.submit(LatencyRequest("lightnobel", 24, priority=9))
        assert service.queue_depth() == 2
        service.start()
        slow_index = service.result(slow, timeout=TIMEOUT).completed_index
        dup_index = service.result(dup, timeout=TIMEOUT).completed_index
        filler_index = service.result(filler, timeout=TIMEOUT).completed_index
        service.close()
        assert slow_index == dup_index  # one shared job
        assert slow_index < filler_index

    def test_deadline_validation(self):
        with pytest.raises(ValueError):
            LatencyRequest("lightnobel", 24, deadline_seconds=0.0)
        with pytest.raises(ValueError):
            LatencyRequest("lightnobel", 24, deadline_seconds=-1.0)

    def test_default_requests_still_complete_in_submission_order(self, config):
        # The dispatch-order sort is stable for all-default traffic: this is
        # the same FIFO contract TestQueueOrdering pins, re-checked with a
        # small max_batch so multiple drains happen.
        service = make_service(config, autostart=False, max_batch=2)
        tickets = service.submit_batch(
            [LatencyRequest("lightnobel", n) for n in (24, 32, 40, 48, 56)]
        )
        service.start()
        order = [service.result(t, timeout=TIMEOUT).completed_index for t in tickets]
        service.close()
        assert order == sorted(order)


class TestPoolableVariantSpecs:
    """Duck-typed variant specs over live backends are served in-process."""

    def test_unpoolable_multichip_job_runs_serially_without_pool_teardown(self, config):
        from repro.cluster import MultiChipVariant

        with make_service(config) as service:
            service.query_batch([("h100", n) for n in LENGTHS], timeout=TIMEOUT)
            # A node spec wrapping a live backend is priced like any other.
            live_node = MultiChipVariant(base=LightNobelAccelerator(ppm_config=config), chips=2)
            report = service.query(live_node, LENGTHS[0], timeout=TIMEOUT)
            assert report.details["chips"] == 2.0
            assert service.stats.errors == 0


class TestServiceResilience:
    """Result timeouts and dispatcher crashes stay contained."""

    def test_result_timeout_is_counted_and_leaves_the_ticket_claimable(self, config):
        service = make_service(config, autostart=False)
        ticket = service.submit(LatencyRequest("lightnobel", LENGTHS[0]))
        with pytest.raises(TimeoutError):
            service.result(ticket, timeout=0.01)  # dispatcher never started
        assert service.stats.timeouts == 1
        assert service.capacity_report().timed_out == 1
        service.start()
        response = service.result(ticket, timeout=TIMEOUT)  # still claimable
        assert response.ok
        service.close()

    def test_dispatcher_survives_an_execute_crash(self, config, monkeypatch):
        service = make_service(config, autostart=False)
        real_execute = service._execute
        calls = {"n": 0}

        def crashing_execute(jobs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("session corrupted")
            return real_execute(jobs)

        monkeypatch.setattr(service, "_execute", crashing_execute)
        ticket = service.submit(LatencyRequest("lightnobel", LENGTHS[0]))
        service.start()
        response = service.result(ticket, timeout=TIMEOUT)
        # The crashed batch surfaces as per-request errors, not a hang...
        assert not response.ok
        assert "dispatcher error" in response.error
        assert "session corrupted" in response.error
        # ...and the dispatcher thread is still alive to serve what follows.
        report = service.query("lightnobel", LENGTHS[1], timeout=TIMEOUT)
        assert report.total_seconds > 0
        assert service.stats.errors == 1
        service.close()


class TestPercentileEdgeCases:
    """The explicit contract of repro.serving.stats.percentile."""

    def test_empty_input_is_zero(self):
        from repro.serving.stats import percentile

        assert percentile([], 50.0) == 0.0
        assert percentile((), 0.0) == 0.0
        assert percentile([], 100.0) == 0.0

    def test_single_sample_is_every_percentile(self):
        from repro.serving.stats import percentile

        for q in (0.0, 1.0, 50.0, 99.0, 100.0):
            assert percentile([0.125], q) == 0.125

    def test_q0_is_min_and_q100_is_max(self):
        from repro.serving.stats import percentile

        values = [5.0, 1.0, 3.0, 2.0, 4.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 100.0) == 5.0

    def test_nearest_rank_interior(self):
        from repro.serving.stats import percentile

        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 50.0) == 2.0  # rank ceil(0.5 * 4) = 2
        assert percentile(values, 99.0) == 4.0

    def test_out_of_range_or_nan_raises(self):
        from repro.serving.stats import percentile

        for bad in (-0.1, 100.1, float("nan")):
            with pytest.raises(ValueError):
                percentile([1.0], bad)

    def test_input_is_not_mutated(self):
        from repro.serving.stats import percentile

        values = [3.0, 1.0, 2.0]
        percentile(values, 50.0)
        assert values == [3.0, 1.0, 2.0]


class TestLateResults:
    """A completion landing after every waiter gave up is counted, not lost."""

    def test_late_result_is_counted_and_reapable(self, config):
        service = make_service(config, autostart=False)
        ticket = service.submit(LatencyRequest("lightnobel", LENGTHS[0]))
        with pytest.raises(TimeoutError):
            service.result(ticket, timeout=0.01)  # dispatcher never started
        service.start()
        assert service.join(timeout=TIMEOUT)
        # The completion landed with no waiter attached: counted as late in
        # stats (the satellite-2 leak), response still reclaimable.
        assert service.stats.late_results == 1
        report = service.capacity_report()
        assert report.late_results == 1
        assert report.completed == 1
        reaped = service.reap_abandoned()
        assert len(reaped) == 1
        assert reaped[0].ok
        assert service.reap_abandoned() == []  # consumed, table is clean
        service.close()

    def test_reclaimed_ticket_is_not_reapable_twice(self, config):
        service = make_service(config, autostart=False)
        ticket = service.submit(LatencyRequest("lightnobel", LENGTHS[0]))
        with pytest.raises(TimeoutError):
            service.result(ticket, timeout=0.01)
        service.start()
        response = service.result(ticket, timeout=TIMEOUT)  # still claimable
        assert response.ok
        assert service.reap_abandoned() == []  # result() consumed the ticket
        service.close()

    def test_reaped_ids_are_kept_as_merged_ranges(self, config):
        """Reaping in any order keeps one range per run of adjacent reaped ids."""
        with make_service(config) as service:
            service.query("lightnobel", LENGTHS[0], timeout=TIMEOUT)
            tickets = service.submit_batch([("lightnobel", LENGTHS[0])] * 12)
            kept = {tickets[4], tickets[9]}  # claimed: they split the reaped runs
            order = [7, 2, 0, 11, 5, 1, 10, 3, 6, 8]  # joins left, right and both ways
            for slot in order:
                service.abandon(tickets[slot])
                assert len(service.reap_abandoned()) == 1
            for ticket in kept:
                assert service.poll(ticket).ok
            assert service.ticket_counts()["reaped"] == len(order)
            assert len(service._reaped_firsts) == 3  # 0-3, 5-8, 10-11
            for slot, ticket in enumerate(tickets):
                assert service.ticket_state(ticket) == ("consumed" if slot in (4, 9) else "reaped")
            assert service.ticket_state(tickets[-1] + 1) == "unknown"

    def test_on_time_results_count_no_late_completions(self, config):
        with make_service(config) as service:
            service.query_batch([("lightnobel", n) for n in LENGTHS], timeout=TIMEOUT)
            assert service.stats.late_results == 0
            assert service.capacity_report().late_results == 0
            assert service.reap_abandoned() == []


class TestRequestLog:
    """The structured per-request log behind RequestTrace.from_serving_log."""

    def test_log_records_the_request_annotations(self, config):
        service = make_service(config, autostart=False)
        ticket = service.submit(
            LatencyRequest(
                "lightnobel", LENGTHS[0], priority=1, deadline_seconds=5.0
            )
        )
        service.start()
        service.result(ticket, timeout=TIMEOUT).raise_for_error()
        (record,) = service.request_log()
        assert record.ticket_id == ticket
        assert record.backend == "lightnobel"
        assert record.sequence_length == LENGTHS[0]
        assert record.priority == 1
        assert record.deadline_seconds == 5.0  # relative, as submitted
        assert record.outcome == "ok" and record.ok
        assert record.arrival_seconds >= 0.0
        assert record.queue_seconds >= 0.0
        assert record.service_seconds > 0.0
        service.close()

    def test_log_is_in_fulfillment_order_and_complete(self, config):
        with make_service(config) as service:
            service.query_batch(
                [("lightnobel", n) for n in LENGTHS] * 2, timeout=TIMEOUT
            )
        log = service.request_log()
        assert len(log) == 4
        completed_order = [r.ticket_id for r in log]
        assert len(set(completed_order)) == 4

    def test_request_log_limit_bounds_the_log(self, config):
        service = make_service(config, request_log_limit=3, autostart=False)
        tickets = service.submit_batch(
            [("lightnobel", LENGTHS[i % 2]) for i in range(5)]
        )
        service.start()
        for ticket in tickets:
            service.result(ticket, timeout=TIMEOUT)
        log = service.request_log()
        assert len(log) == 3  # oldest two fell out FIFO
        service.close()

    def test_failed_requests_log_an_error_outcome(self, config, monkeypatch):
        service = make_service(config, autostart=False)
        monkeypatch.setattr(
            service,
            "_execute",
            lambda jobs: (_ for _ in ()).throw(RuntimeError("boom")),
        )
        ticket = service.submit(LatencyRequest("lightnobel", LENGTHS[0]))
        service.start()
        response = service.result(ticket, timeout=TIMEOUT)
        assert not response.ok
        (record,) = service.request_log()
        assert record.outcome == "error"
        assert not record.ok
        service.close()
