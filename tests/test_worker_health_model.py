"""Model-checked worker-health state machine of the closed-loop cluster replay.

Hypothesis draws micro traces, fleets of one or two groups with one to
three workers each, crash schedules (with and without restart or warm-up),
straggler windows, a retry budget of 0–2, and admission control and the
autoscaler each on or off.  ``service_times`` is given directly, so no
simulator runs.  A small reference model then walks the replay's
:class:`~repro.obs.timeline.TimelineRecorder` events in order and checks
every worker transition against the lifecycle of
:class:`~repro.cluster.fleet.WorkerHealth`:

* a dispatch goes only to an idle live worker whose group can serve the
  length, and a warming worker is healthy once it has served;
* a crash hits only a live worker, and the abort that may follow names
  exactly that worker's running request;
* a recovery happens only to a dead worker;
* a retired worker was idle and healthy (never warming, busy or dead);
* every request ends exactly once, in a completion or a drop, and is
  retried at most ``max_retries`` times.

The report must then agree with the model's event counts: ``completed``,
``retried``, ``shed``, ``oom_dropped`` and ``failed``; ``events_processed``
equals the number of queue-depth samples; ``peak_fleet_size`` equals the
model's largest count of non-retired workers.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import (
    AdmissionController,
    Autoscaler,
    FaultSchedule,
    FleetSpec,
    RecoveryPolicy,
    Request,
    RequestTrace,
    StragglerWindow,
    WorkerCrash,
    WorkerGroup,
    replay_trace,
)
from repro.obs.timeline import TimelineRecorder

LENGTHS = (32, 64)
BACKENDS = ("lightnobel", "h100-chunk")

#: Instants on a quarter-second grid, so arrivals, crashes and ticks tie often.
INSTANTS = st.integers(min_value=0, max_value=32).map(lambda k: k / 4.0)
#: Service seconds per (group, length); None is an out-of-memory group.
SECONDS = st.sampled_from((None, 0.5, 1.0, 1.25, 2.0))


@st.composite
def micro_traces(draw) -> RequestTrace:
    count = draw(st.integers(min_value=1, max_value=10))
    requests = []
    for i in range(count):
        arrival = draw(INSTANTS)
        slack = draw(st.sampled_from((None, 1.0, 3.0)))
        requests.append(
            Request(
                id=i,
                arrival_seconds=arrival,
                sequence_length=draw(st.sampled_from(LENGTHS)),
                priority=draw(st.integers(min_value=0, max_value=1)),
                deadline_seconds=None if slack is None else arrival + slack,
            )
        )
    return RequestTrace(name="model", requests=tuple(requests), seed=0, offered_rps=1.0)


@st.composite
def fault_schedules(draw, num_workers: int) -> FaultSchedule:
    crashes = [
        WorkerCrash(
            # One id past the fleet: the replay must ignore it.
            worker_id=draw(st.integers(min_value=0, max_value=num_workers)),
            at_seconds=draw(INSTANTS),
            restart_after_seconds=draw(st.sampled_from((None, 0.25, 1.0, 3.0))),
            detection_lag_seconds=draw(st.sampled_from((0.0, 0.25, 1.0))),
            warmup_seconds=draw(st.sampled_from((0.0, 0.5, 2.0))),
        )
        for _ in range(draw(st.integers(min_value=0, max_value=4)))
    ]
    stragglers = []
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        start = draw(INSTANTS)
        stragglers.append(
            StragglerWindow(
                worker_id=draw(st.integers(min_value=0, max_value=num_workers - 1)),
                start_seconds=start,
                end_seconds=start + draw(st.sampled_from((0.5, 2.0))),
                slowdown_factor=2.0,
            )
        )
    return FaultSchedule(crashes=tuple(crashes), stragglers=tuple(stragglers))


@st.composite
def closed_loop_cases(draw):
    sizes = draw(st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=2))
    fleet = FleetSpec(
        groups=tuple(
            WorkerGroup(backend=BACKENDS[gi], count=count)
            for gi, count in enumerate(sizes)
        ),
        name="model",
    )
    service_times = {
        (gi, n): draw(SECONDS) for gi in range(len(sizes)) for n in LENGTHS
    }
    options = dict(
        service_times=service_times,
        scheduler=draw(st.sampled_from(("fifo", "edf", "sjf"))),
        router=draw(st.sampled_from((None, "memory-fit"))),
        same_length_reuse_discount=draw(st.sampled_from((0.0, 0.25))),
        faults=draw(fault_schedules(sum(sizes))),
        recovery=RecoveryPolicy(
            max_retries=draw(st.integers(min_value=0, max_value=2)),
            backoff_base_seconds=draw(st.sampled_from((0.0, 0.25))),
        ),
    )
    if draw(st.booleans()):
        options["admission"] = AdmissionController(
            max_queue_depth=draw(st.integers(min_value=1, max_value=4))
        )
    if draw(st.booleans()):
        options["autoscaler"] = Autoscaler(
            min_workers=1,
            max_workers=draw(st.integers(min_value=1, max_value=4)),
            interval_seconds=draw(st.sampled_from((0.5, 1.0))),
            scale_up_queue_per_worker=1.0,
            scale_down_queue_per_worker=0.5,
            slo_target=draw(st.sampled_from((None, 0.9))),
            attainment_window=draw(st.integers(min_value=1, max_value=5)),
            scale_up_lag_seconds=draw(st.sampled_from((0.0, 0.5, 1.5))),
        )
    return draw(micro_traces()), fleet, options


class WorkerModel:
    """Reference lifecycle: idle -> busy -> idle, live -> dead -> idle
    (maybe warming), idle and healthy -> retired; requests end once."""

    def __init__(self, group_of, options) -> None:
        self.group_of: List[int] = list(group_of)
        self.state: List[str] = ["idle"] * len(group_of)
        self.warming: List[bool] = [False] * len(group_of)
        self.running: Dict[int, int] = {}  # worker -> request id
        self.crashes = options["faults"].crashes
        self.service_times = options["service_times"]
        self.max_retries = options["recovery"].max_retries
        self.arrived: set = set()
        self.ended: Dict[int, str] = {}  # request id -> "complete" or drop reason
        self.retries: Dict[int, int] = {}
        self.lost: set = set()  # aborted requests awaiting their retry
        self.pending_abort: Optional[int] = None  # crashed busy worker
        self.killed_by: Dict[int, WorkerCrash] = {}
        self.provisioned = self.peak = len(group_of)
        self.retried = 0
        self.samples = 0

    def _end(self, request_id: int, how: str) -> None:
        assert request_id in self.arrived, f"request {request_id} ended unseen"
        assert request_id not in self.ended, f"request {request_id} ended twice"
        assert request_id not in self.running.values()
        self.ended[request_id] = how

    def walk(self, events) -> None:
        for event in events:
            kind = event[0]
            if self.pending_abort is not None:
                assert kind == "abort", f"crashed busy worker, then {kind}"
            getattr(self, "on_" + kind)(*event[1:])
        assert self.pending_abort is None
        assert not self.running, "work still running after the replay"
        assert not self.lost, "an aborted request was never retried or failed"

    def on_arrival(self, t, request_id, length, priority) -> None:
        assert request_id not in self.arrived
        self.arrived.add(request_id)

    def on_dispatch(self, start, finish, worker, request_id, length) -> None:
        assert self.state[worker] == "idle", (worker, self.state[worker])
        assert request_id in self.arrived and request_id not in self.ended
        assert request_id not in self.lost
        assert request_id not in self.running.values()
        assert self.service_times[(self.group_of[worker], length)] is not None
        assert finish >= start
        self.state[worker] = "busy"
        self.warming[worker] = False  # its first service paid the warm-up
        self.running[worker] = request_id

    def on_complete(self, t, worker, request_id, met) -> None:
        assert self.state[worker] == "busy"
        assert self.running.pop(worker) == request_id
        self.state[worker] = "idle"
        self._end(request_id, "complete")

    def on_drop(self, t, request_id, reason) -> None:
        assert reason in ("shed", "oom", "failed", "starved"), reason
        if reason == "failed":
            assert request_id in self.lost
            assert self.retries.get(request_id, 0) == self.max_retries
            self.lost.discard(request_id)
        else:
            assert request_id not in self.lost
        self._end(request_id, reason)

    def on_crash(self, t, worker) -> None:
        assert self.state[worker] in ("idle", "busy"), (worker, self.state[worker])
        # Same-instant crashes of one worker land in schedule order, so the
        # first one is the one that killed it.
        self.killed_by[worker] = next(
            c for c in self.crashes if c.worker_id == worker and c.at_seconds == t
        )
        if self.state[worker] == "busy":
            self.pending_abort = worker
        self.state[worker] = "dead"

    def on_abort(self, t, worker, request_id) -> None:
        assert self.pending_abort == worker, "abort of a worker that did not just crash"
        assert self.running.pop(worker) == request_id
        self.pending_abort = None
        self.lost.add(request_id)

    def on_recover(self, t, worker) -> None:
        assert self.state[worker] == "dead", (worker, self.state[worker])
        crash = self.killed_by.pop(worker)
        assert crash.restart_after_seconds is not None
        assert t == crash.at_seconds + crash.restart_after_seconds
        self.state[worker] = "idle"
        self.warming[worker] = crash.warmup_seconds > 0

    def on_retry(self, t, request_id) -> None:
        assert request_id in self.lost
        self.lost.discard(request_id)
        self.retries[request_id] = self.retries.get(request_id, 0) + 1
        assert self.retries[request_id] <= self.max_retries
        self.retried += 1

    def on_scale_up(self, t, worker, group) -> None:
        assert worker == len(self.state), "scaled-up worker ids are fresh and dense"
        self.group_of.append(group)
        self.state.append("idle")
        self.warming.append(False)
        self.provisioned += 1
        self.peak = max(self.peak, self.provisioned)

    def on_retire(self, t, worker) -> None:
        assert self.state[worker] == "idle", (worker, self.state[worker])
        assert not self.warming[worker], f"retired warming worker {worker}"
        self.state[worker] = "retired"
        self.provisioned -= 1

    def on_autoscale(self, t) -> None:
        pass

    def on_queue_depth(self, t, depth) -> None:
        assert depth >= 0
        self.samples += 1

    def count(self, *reasons: str) -> int:
        return sum(1 for how in self.ended.values() if how in reasons)


def warming_worker_at_a_scale_down():
    """Worker 1 restarts warming at 0.25 s; the 0.5 s tick finds the fleet
    over ``max_workers`` with worker 1 the highest idle id, yet only the
    healthy worker 0 may be retired."""
    trace = RequestTrace(
        name="model",
        requests=(Request(id=0, arrival_seconds=0.0, sequence_length=32),),
        seed=0,
        offered_rps=1.0,
    )
    options = dict(
        service_times={(0, 32): None, (0, 64): None},
        faults=FaultSchedule(
            crashes=(
                WorkerCrash(1, 0.0, restart_after_seconds=0.25,
                            detection_lag_seconds=0.0, warmup_seconds=0.5),
                WorkerCrash(0, 0.0, restart_after_seconds=0.25,
                            detection_lag_seconds=0.0),
            )
        ),
        recovery=RecoveryPolicy(max_retries=0),
        autoscaler=Autoscaler(min_workers=1, max_workers=1, interval_seconds=0.5),
    )
    return trace, FleetSpec.homogeneous("lightnobel", 2, name="model"), options


@settings(max_examples=250, deadline=None)
@given(case=closed_loop_cases())
@example(case=warming_worker_at_a_scale_down())
def test_worker_health_follows_the_reference_model(case):
    trace, fleet, options = case
    timeline = TimelineRecorder()
    report = replay_trace(trace, fleet, timeline=timeline, **options)
    model = WorkerModel(fleet.worker_groups(), options)
    model.walk(timeline.events)

    assert set(model.ended) == {r.id for r in trace}, "a request never ended"
    assert report.completed == model.count("complete")
    assert report.retried == model.retried
    assert report.shed == model.count("shed")
    assert report.oom_dropped == model.count("oom")
    assert report.failed == model.count("failed", "starved")
    assert report.dropped == len(trace) - report.completed
    assert report.events_processed == model.samples
    assert report.peak_fleet_size == model.peak
