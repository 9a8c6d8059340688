"""Deterministic discrete-event replay of a trace against a fleet + policy.

:func:`replay_trace` is the cluster-level sibling of
:meth:`repro.sim.session.SimulationSession.simulate`: where the session
answers "how long does one request take on one chip", the replay answers
"what latency distribution, utilization and SLO attainment does this *fleet*
deliver under this *traffic* with this *scheduler*".

The split keeps replay cheap and bit-deterministic:

1. **Prefetch** — every distinct (worker-group backend, protein length) pair
   is simulated once through the shared
   :class:`~repro.sim.session.SimulationSession` (or a
   :class:`~repro.serving.service.LatencyService`) — the only stage that
   touches a simulator.
2. **Replay** — a pure-Python event loop.  Arrivals are read from the
   trace in arrival order (sorted once if the trace is not already) and
   merged with a heap that holds only completions and (when closed-loop
   features are on) crash / recovery / retry / scale / autoscaler-tick
   events.  Ties break on (time, kind, sequence) — an arrival's sequence
   is its trace index — and idle workers are claimed lowest-id-first, so a
   given (trace, fleet, policy, faults, controllers) tuple replays to the
   bit-identical :class:`ClusterReport` on every run, machine and process
   — the property the golden tests pin.  Arrivals, retries, completions
   and dispatch run inline in the loop; a crash, a recovery, an arrived
   scale-up and an autoscaler tick are one method each of the replay's
   state object, which keeps each fact once: a busy worker's request is
   its queued completion, and the autoscaler's attainment window is the
   last finished rows.  The loop records one plain row per finished
   request; the report is aggregated from the rows after the loop, and
   only :func:`replay_trace_outcomes` turns them into
   :class:`RequestOutcome` objects.

Requests whose backend reports out-of-memory at their length are *dropped*
(counted, and counted against SLO attainment), never silently served.
Drops split into three buckets — ``oom_dropped`` (backend cannot serve the
length), ``shed`` (turned away by the :class:`~repro.cluster.control.AdmissionController`),
and ``failed`` (lost to a crash past the retry budget, or starved behind a
permanently dead fleet) — with ``dropped`` remaining their sum, so
``drop_rate`` means what it always did.

``same_length_reuse_discount`` models the shape-reuse effect the lower
layers measure directly (a cached operator table / compiled shape makes a
repeated length far cheaper than a cold one): a request served on a worker
whose *previous* request had the same length runs at a discount, and the
dispatcher prefers shape-matching idle workers.  Length-aware schedulers
form same-length runs and harvest the discount; FIFO interleaves shapes and
mostly does not — the capacity argument for length-bucketed batching.

Closed-loop extensions (all optional; every default preserves the open-loop
replay bit-for-bit):

* ``faults=`` a :class:`~repro.cluster.faults.FaultSchedule` injects worker
  crashes (in-flight work lost, detected after a lag, requeued under the
  ``recovery=`` :class:`~repro.cluster.faults.RecoveryPolicy`), straggler
  windows (dispatch reroutes around them via
  :func:`~repro.cluster.scheduler.select_worker`; an unavoidable straggler
  serves slower), and degraded-link windows (requests on a multi-chip group
  pay the interconnect delta of
  :meth:`~repro.cluster.fleet.MultiChipBackend.degraded_communication_seconds`).
* ``admission=`` an :class:`~repro.cluster.control.AdmissionController`
  bounds the queue with priority-aware shedding.
* ``autoscaler=`` an :class:`~repro.cluster.control.Autoscaler` resizes the
  fleet at fixed simulated-time ticks from observed queue depth and rolling
  SLO attainment, with scale-up lag; the report then prices the replay by
  time-weighted provisioned worker-hours instead of the static fleet rate.

Fault schedules address *base-fleet* worker ids; autoscaled workers never
crash or straggle (the conservative-for-the-autoscaler simplification).
"""

from __future__ import annotations

import heapq
from bisect import insort
from dataclasses import dataclass, field
from itertools import count, islice
from operator import attrgetter, gt, itemgetter
from typing import Dict, List, Mapping, Optional, Tuple, TYPE_CHECKING

from ..obs.timeline import TimelineRecorder
from ..ppm.config import PPMConfig
from ..serving.stats import percentile
from ..sim.session import SimulationSession, session_for
from .control import AdmissionController, Autoscaler
from .faults import FaultSchedule, RecoveryPolicy
from .fleet import FleetSpec, MultiChipVariant, WorkerHealth
from .routing import RouterSpec, create_router, group_infos, router_name
from .scheduler import SchedulerSpec, create_scheduler, scheduler_name, select_worker
from .trace import Request, RequestTrace

if TYPE_CHECKING:  # service routing is optional; avoid an import cycle at runtime
    from ..serving.service import LatencyService

#: Event kinds, in tie-break order at one timestamp.  Completions order
#: before arrivals so a worker freed at time t can serve a request arriving
#: at exactly t (the PR 5 invariant — no-fault replays only ever see
#: ``_COMPLETION`` and ``_ARRIVAL``, whose relative order is preserved).
#: Recoveries and arrived scale-ups land *before* arrivals (capacity that
#: comes back at t serves traffic arriving at t); retries land after
#: arrivals (a requeued request queues behind a same-instant fresh arrival);
#: autoscaler ticks observe everything else that happened at their instant.
_COMPLETION, _RECOVER, _CRASH, _SCALE_UP, _ARRIVAL, _RETRY, _AUTOSCALE = range(7)

_NONE_STRAGGLING: frozenset = frozenset()

#: One finished request as the event loop records it: (request, start,
#: finish, met deadline, drop reason or None when served, crash-requeues).
_Row = Tuple[Request, float, float, bool, Optional[str], int]


@dataclass(frozen=True)
class ClusterReport:
    """Fleet-level outcome of one trace replay (the capacity-planning unit).

    ``utilization`` maps each worker-group label to busy-time over the
    group's provisioned capacity (``makespan * workers`` open-loop;
    time-weighted provisioned seconds under an autoscaler);
    ``slo_attainment`` is the fraction of *all* requests (dropped ones
    included) that completed within their deadline — deadline-free requests
    count as met when completed.  ``cost_per_million_requests`` prices the
    replay at the fleet's hourly rate over the makespan (open-loop) or over
    provisioned worker-hours (autoscaled).

    Resilience accounting: ``dropped == oom_dropped + shed + failed``;
    ``retried`` counts requeues after crashes (a request retried twice
    counts twice); ``downtime_seconds`` is summed worker-seconds spent dead;
    ``availability`` is provisioned-minus-dead over provisioned worker-time.
    ``mean_fleet_size`` / ``peak_fleet_size`` / ``worker_hours`` describe
    the provisioned fleet over time (constant open-loop, varying under an
    autoscaler).
    """

    trace_name: str
    fleet_name: str
    policy: str
    num_workers: int
    requests: int
    completed: int
    dropped: int
    makespan_seconds: float
    offered_rps: float
    throughput_rps: float
    mean_latency_seconds: float
    p50_latency_seconds: float
    p99_latency_seconds: float
    mean_wait_seconds: float
    p99_wait_seconds: float
    slo_attainment: float
    deadlines_missed: int
    max_queue_depth: int
    mean_queue_depth: float
    utilization: Mapping[str, float] = field(default_factory=dict)
    per_priority_attainment: Mapping[int, float] = field(default_factory=dict)
    cost_per_million_requests: float = 0.0
    #: Group-routing policy of the replay ("none" = group-oblivious dispatch).
    router: str = "none"
    events_processed: int = 0
    retried: int = 0
    shed: int = 0
    oom_dropped: int = 0
    failed: int = 0
    downtime_seconds: float = 0.0
    availability: float = 1.0
    mean_fleet_size: float = 0.0
    peak_fleet_size: int = 0
    worker_hours: float = 0.0
    shed_by_priority: Mapping[int, int] = field(default_factory=dict)

    @property
    def drop_rate(self) -> float:
        return self.dropped / self.requests if self.requests else 0.0

    @property
    def admitted(self) -> int:
        """Requests past admission control (the shed-conservation partner)."""
        return self.requests - self.shed


#: (group index, sequence length) -> service seconds, or None when the
#: backend cannot serve that length (out of memory).
ServiceTimes = Dict[Tuple[int, int], Optional[float]]

#: (group index, sequence length) -> healthy per-request interconnect
#: seconds (0.0 for single-chip groups) — the base the degraded-link
#: surcharge scales from.
CommunicationTimes = Dict[Tuple[int, int], float]


def prefetch_service_times(
    trace: RequestTrace,
    fleet: FleetSpec,
    ppm_config: Optional[PPMConfig] = None,
    session: Optional[SimulationSession] = None,
    service: Optional["LatencyService"] = None,
    length_bucket_size: Optional[int] = None,
) -> ServiceTimes:
    """Simulate every distinct (worker-group backend, length) pair once.

    With ``service=`` the pairs route through a shared
    :class:`~repro.serving.service.LatencyService` (its coalescing and memo
    apply); otherwise a session prices them with
    :meth:`~repro.sim.session.SimulationSession.batch_total_seconds` — one
    stacked totals-only pass per backend over the whole length mix
    (bit-identical to the per-length loop).

    ``length_bucket_size`` trades exactness for fewer simulated points: each
    distinct trace length maps to its shape bucket's *longest* member
    (:meth:`RequestTrace.bucketed_lengths`) and only representatives are
    simulated, so every (group, length) entry carries its representative's
    (conservative, never under-priced) service time.  ``None`` (default)
    keeps the exact per-length behavior.
    """
    representative = trace.bucketed_lengths(length_bucket_size)
    lengths = sorted(set(representative.values()))
    specs = [group.backend for group in fleet.groups]
    times: ServiceTimes = {}
    if service is not None:
        if ppm_config is not None and service.session.ppm_config != ppm_config:
            raise ValueError("ppm_config does not match service.session.ppm_config")
        reports = service.query_batch(
            [(spec, n) for spec in specs for n in lengths]
        )
        by_rep = {}
        for gi in range(len(specs)):
            for li, n in enumerate(lengths):
                report = reports[gi * len(lengths) + li]
                by_rep[(gi, n)] = None if report.out_of_memory else report.total_seconds
        for gi in range(len(specs)):
            for n, rep in representative.items():
                times[(gi, n)] = by_rep[(gi, rep)]
        return times
    # The planner only reads the scalar total per (group, length), so take
    # the totals-only stacked fast path — one engine pass per backend, no
    # per-length report assembly.
    session = session_for(ppm_config, session, backends=())
    totals = session.batch_total_seconds(lengths, backends=specs)
    index = {n: j for j, n in enumerate(lengths)}
    for gi in range(len(specs)):
        for n, rep in representative.items():
            times[(gi, n)] = totals[gi][index[rep]]
    return times


def prefetch_communication_seconds(
    trace: RequestTrace,
    fleet: FleetSpec,
    ppm_config: Optional[PPMConfig] = None,
) -> CommunicationTimes:
    """Healthy per-request interconnect time for every (group, length) pair.

    Pure arithmetic (no simulator): multi-chip groups report
    :meth:`~repro.cluster.fleet.MultiChipBackend.communication_seconds`,
    single-chip groups report 0.0 — which is why degraded-link fault windows
    cannot touch them.  The faulty replay charges
    ``comm * (1 / bandwidth_factor - 1)`` on top of the healthy prefetched
    service time, so fault injection never re-simulates anything.
    """
    lengths = trace.distinct_lengths()
    times: CommunicationTimes = {}
    for gi, group in enumerate(fleet.groups):
        spec = group.backend
        backend = None
        if callable(getattr(spec, "communication_seconds", None)):
            backend = spec
        elif isinstance(spec, MultiChipVariant):
            backend = spec.build(ppm_config)
        for n in lengths:
            times[(gi, n)] = (
                backend.communication_seconds(n) if backend is not None else 0.0
            )
    return times


@dataclass(frozen=True)
class RequestOutcome:
    """Per-request record of one replay (policy-invariant tests read these).

    ``drop_reason`` is ``None`` for served requests and one of ``"oom"``,
    ``"shed"``, ``"failed"`` or ``"starved"`` for dropped ones (``"failed"``
    is a crash past the retry budget; ``"starved"`` is a request still
    queued when the replay ends with no worker ever able to serve it — both
    land in the report's ``failed`` bucket).  ``retries`` counts how many
    times a crash requeued this request before it completed or was dropped.
    """

    request_id: int
    sequence_length: int
    priority: int
    arrival_seconds: float
    start_seconds: float
    finish_seconds: float
    met_deadline: bool
    dropped: bool = False
    drop_reason: Optional[str] = None
    retries: int = 0

    @property
    def wait_seconds(self) -> float:
        return self.start_seconds - self.arrival_seconds


def replay_trace(
    trace: RequestTrace,
    fleet: FleetSpec,
    scheduler: SchedulerSpec = "fifo",
    **options,
) -> ClusterReport:
    """Replay ``trace`` against ``fleet`` under ``scheduler``; emit a report.

    The options are keyword-only and declared once, on the event loop
    :func:`_replay`; an unknown one raises :class:`TypeError`.

    ``service_times`` short-circuits the prefetch (the planner reuses one
    prefetch across every fleet size and policy it sweeps); ``ppm_config``,
    ``session`` and ``service`` configure the prefetch otherwise
    (:func:`prefetch_service_times`).  ``same_length_reuse_discount`` (in
    [0, 1)) is the service-time fraction saved when a worker serves the same
    length twice in a row (shape/table reuse — 0 models a stateless worker).

    ``router`` selects a group-aware routing policy for heterogeneous fleets
    (:mod:`repro.cluster.routing`): ``None`` keeps the group-oblivious
    baseline (bit-identical to earlier replays), a name/instance routes each
    request to a feasible worker group — requests whose feasible groups are
    all busy wait instead of OOM-dropping.

    ``faults`` / ``recovery`` / ``admission`` / ``autoscaler`` switch on the
    closed-loop extensions (see the module docstring); all default to off,
    in which case the replay is bit-identical to the open-loop one.
    ``autoscaler`` accepts one :class:`~repro.cluster.control.Autoscaler`
    (applied independently to every worker group) or a sequence with one per
    group.  ``communication_times`` short-circuits the degraded-link
    prefetch (:func:`prefetch_communication_seconds`).

    ``timeline`` attaches a :class:`~repro.obs.timeline.TimelineRecorder`
    that captures the replay's event stream for Chrome trace-event /
    Perfetto export.  Recording is append-only observation — the report is
    bit-identical with or without it.
    """
    return _replay(trace, fleet, scheduler, **options)[0]


def replay_trace_outcomes(
    trace: RequestTrace,
    fleet: FleetSpec,
    scheduler: SchedulerSpec = "fifo",
    **options,
) -> Tuple[ClusterReport, Tuple[RequestOutcome, ...]]:
    """:func:`replay_trace` plus the per-request :class:`RequestOutcome` log."""
    report, rows = _replay(trace, fleet, scheduler, **options)
    return report, tuple(
        RequestOutcome(
            request_id=request.id,
            sequence_length=request.sequence_length,
            priority=request.priority,
            arrival_seconds=request.arrival_seconds,
            start_seconds=start,
            finish_seconds=finish,
            met_deadline=met,
            dropped=reason is not None,
            drop_reason=reason,
            retries=retries,
        )
        for request, start, finish, met, reason, retries in rows
    )


class _Replay:
    """The mutable state of one replay, with one handler per closed-loop event.

    The event loop in :func:`_replay` handles the hot kinds (arrivals,
    retries, completions and dispatch) inline, through local aliases of
    the lists kept here.  A crash, a recovery, an arrived scale-up and an
    autoscaler tick each call one method.  Every list is changed in place
    only, so the loop's aliases stay valid, and :meth:`report` aggregates
    the finished rows after the loop.
    """

    def __init__(self, fleet: FleetSpec, recovery, autoscalers, queued_feasible, timeline):
        self.recovery = recovery
        self.autoscalers = autoscalers
        self.queued_feasible = queued_feasible
        self.timeline = timeline
        # Per worker: base-fleet ids first, scale-ups appended.
        self.group_of = group_of = fleet.worker_groups()
        n = self.base_workers = len(group_of)
        self.idle: List[int] = list(range(n))  # kept sorted (lowest id first)
        self.busy_seconds = [0.0] * n
        self.last_length: List[Optional[int]] = [None] * n
        self.health = [WorkerHealth.HEALTHY] * n
        self.generation = [0] * n  # bumped per crash; stale-completion guard
        self.provision_start = [0.0] * n
        self.warmup: Dict[int, float] = {}  # restarted worker -> surcharge, read while warming
        self.down_since: Dict[int, float] = {}
        self.attempts: Dict[int, int] = {}  # request id -> crash-requeues so far
        #: Completions and control events.  No arrival is ever in the heap,
        #: so an arrival and the heap top never tie on (time, kind).  A busy
        #: worker's request is the payload of its current-generation completion.
        self.events: List[Tuple[float, int, int, object]] = []
        self.sequence = count()
        self.rows: List[_Row] = []
        # Per group: live (healthy or warming) workers, kept on crash,
        # recover, scale-up and retire so a tick never scans the fleet;
        # requested-but-not-yet-arrived workers; retired workers' seconds.
        self.alive = [group_of.count(g) for g in range(len(fleet.groups))]
        self.pending_up = [0] * len(fleet.groups)
        self.provisioned_done = [0.0] * len(fleet.groups)
        self.active = self.peak_fleet = n  # provisioned (non-retired) workers
        self.retried = 0
        self.downtime = 0.0

    def push(self, at: float, kind: int, payload) -> None:
        heapq.heappush(self.events, (at, kind, next(self.sequence), payload))

    def drop(self, request, now: float, reason: str, start: Optional[float] = None) -> None:
        self.rows.append((
            request, now if start is None else start, now, False, reason,
            self.attempts.get(request.id, 0),
        ))
        if self.timeline is not None:
            self.timeline.drop(now, request.id, reason)

    def crash(self, now: float, crash) -> None:
        """A live worker dies: its request is lost, then retried or failed
        once the crash is detected, and a restart is scheduled if any."""
        w = crash.worker_id
        if self.health[w] not in (WorkerHealth.HEALTHY, WorkerHealth.WARMING):
            return
        running = (w, self.generation[w])
        victim = next(
            (e for e in self.events if e[1] == _COMPLETION and e[3][:2] == running), None
        )
        self.health[w] = WorkerHealth.DEAD
        self.alive[self.group_of[w]] -= 1
        self.generation[w] += 1  # its completion, still queued, is now stale
        self.down_since[w] = now
        if self.timeline is not None:
            self.timeline.crash(now, w)
        if w in self.idle:
            self.idle.remove(w)
        if victim is not None:
            finish, _, _, (_, _, request, start) = victim
            if self.timeline is not None:
                self.timeline.abort(now, w, request.id)
            self.busy_seconds[w] -= finish - now  # unserved remainder
            detect = now + crash.detection_lag_seconds
            used = self.attempts.get(request.id, 0)
            if self.recovery.gives_up(used):
                self.drop(request, detect, "failed", start=start)
            else:
                self.attempts[request.id] = used + 1
                self.retried += 1
                self.push(detect + self.recovery.backoff_seconds(used), _RETRY, request)
        if crash.restart_after_seconds is not None:
            self.push(now + crash.restart_after_seconds, _RECOVER, crash)

    def recover(self, now: float, crash) -> None:
        """A dead worker restarts cold, warming if the crash says so."""
        w = crash.worker_id
        if self.health[w] is not WorkerHealth.DEAD:
            return
        self.downtime += now - self.down_since.pop(w)
        self.warmup[w] = crash.warmup_seconds
        warming = crash.warmup_seconds > 0
        self.health[w] = WorkerHealth.WARMING if warming else WorkerHealth.HEALTHY
        self.alive[self.group_of[w]] += 1
        self.last_length[w] = None  # restarted cold: no shape to reuse
        insort(self.idle, w)
        if self.timeline is not None:
            self.timeline.recover(now, w)

    def scale_up(self, now: float, group: int) -> None:
        """A requested worker arrives, idle and healthy, with the next id."""
        self.pending_up[group] -= 1
        w = len(self.group_of)
        self.group_of.append(group)
        self.busy_seconds.append(0.0)
        self.last_length.append(None)
        self.health.append(WorkerHealth.HEALTHY)
        self.generation.append(0)
        self.provision_start.append(now)
        self.alive[group] += 1
        self.active += 1
        self.peak_fleet = max(self.peak_fleet, self.active)
        insort(self.idle, w)
        if self.timeline is not None:
            self.timeline.scale_up(now, w, group)

    def tick(self, now: float, depth: int, more) -> None:
        """Evaluate every group's autoscaler, then tick again while the heap
        or ``more`` (arrivals or queued requests left) has work to react to."""
        if self.timeline is not None:
            self.timeline.autoscale(now)
        autoscalers = self.autoscalers
        window = self.rows[-autoscalers[0].attainment_window:]
        attainment = sum(map(itemgetter(3), window)) / len(window) if window else 1.0
        for gi, scaler in enumerate(autoscalers):
            # One group reads the whole queue and the whole fleet.
            signal = depth if self.queued_feasible is None else self.queued_feasible[gi]
            delta = scaler.desired_delta(
                signal, self.alive[gi], self.pending_up[gi], attainment
            )
            if delta > 0:
                arrive = now + scaler.scale_up_lag_seconds
                for _ in range(delta):
                    self.push(arrive, _SCALE_UP, gi)
                self.pending_up[gi] += delta
            elif delta < 0:
                # Retire idle healthy workers only, highest id first — never
                # a busy, warming, or dead one (a dead worker may still owe
                # a restart; retiring it would double-account its lifetime).
                retirable = [
                    w for w in reversed(self.idle)
                    if self.health[w] is WorkerHealth.HEALTHY and self.group_of[w] == gi
                ][:-delta]
                for w in retirable:
                    self.idle.remove(w)
                    self.health[w] = WorkerHealth.RETIRED
                    self.alive[gi] -= 1
                    self.provisioned_done[gi] += now - self.provision_start[w]
                    self.active -= 1
                    if self.timeline is not None:
                        self.timeline.retire(now, w)
        # The tick just popped was the only one, so every heap entry is a
        # non-tick event (ticks never count themselves, or the loop would
        # self-sustain forever).  An in-flight request's completion is in
        # the heap, so the heap speaks for running work too.
        if self.events or more:
            self.push(now + autoscalers[0].interval_seconds, _AUTOSCALE, None)

    def report(
        self, trace: RequestTrace, fleet: FleetSpec, scheduler, router, makespan: float,
        events_processed: int, max_queue_depth: int, queue_depth_sum: int,
    ) -> ClusterReport:
        """Aggregate the finished rows and the fleet's lifetime into a report."""
        downtime_total = self.downtime
        for since in self.down_since.values():
            downtime_total += max(0.0, makespan - since)
        group_of, health, num_workers = self.group_of, self.health, self.base_workers
        provisioned_by_group = [
            self.provisioned_done[g]
            + sum(
                max(0.0, makespan - self.provision_start[w])
                for w in range(len(group_of))
                if group_of[w] == g and health[w] is not WorkerHealth.RETIRED
            )
            for g in range(len(fleet.groups))
        ]
        provisioned_total = sum(provisioned_by_group)

        latencies: List[float] = []
        waits: List[float] = []
        met_by_priority: Dict[int, int] = {}
        total_by_priority: Dict[int, int] = {}
        shed_by_priority: Dict[int, int] = {}
        completed = deadlines_missed = shed = oom_dropped = failed = 0
        for request, start, finish, met, reason, _ in self.rows:
            priority = request.priority
            total_by_priority[priority] = total_by_priority.get(priority, 0) + 1
            if reason is None:
                completed += 1
                latencies.append(finish - request.arrival_seconds)
                waits.append(start - request.arrival_seconds)
                if met:
                    met_by_priority[priority] = met_by_priority.get(priority, 0) + 1
                else:
                    deadlines_missed += 1
                continue
            if request.deadline_seconds is not None:
                deadlines_missed += 1
            if reason == "shed":
                shed += 1
                shed_by_priority[priority] = shed_by_priority.get(priority, 0) + 1
            elif reason == "oom":
                oom_dropped += 1
            else:  # "failed" or "starved" — the lost-to-the-fleet bucket
                failed += 1

        requests = len(trace)
        autoscaled = self.autoscalers is not None
        utilization = {}
        for index, label in enumerate(fleet.group_labels()):
            members = [w for w, g in enumerate(group_of) if g == index]
            busy = sum(self.busy_seconds[w] for w in members)
            capacity = provisioned_by_group[index] if autoscaled else len(members) * makespan
            utilization[label] = busy / capacity if capacity > 0 else 0.0

        if not autoscaled:
            hours = makespan / 3600.0
            cost = fleet.cost_per_hour * hours / completed * 1e6 if completed else 0.0
            worker_hours = num_workers * makespan / 3600.0
            mean_fleet = float(num_workers)
        else:
            # Worker-hours priced per group at that group's per-worker rate;
            # one group reduces to exactly the fleet's per-worker rate times worker-hours.
            provisioned_dollars = sum(
                (group.hourly_cost / group.count) * (provisioned_by_group[g] / 3600.0)
                for g, group in enumerate(fleet.groups)
            )
            cost = provisioned_dollars / completed * 1e6 if completed else 0.0
            worker_hours = provisioned_total / 3600.0
            mean_fleet = provisioned_total / makespan if makespan > 0 else float(num_workers)

        attained = sum(met_by_priority.values())
        return ClusterReport(
            trace_name=trace.name,
            fleet_name=fleet.name,
            policy=scheduler_name(scheduler),
            num_workers=num_workers,
            requests=requests,
            completed=completed,
            dropped=len(self.rows) - completed,
            makespan_seconds=makespan,
            offered_rps=trace.offered_rps,
            throughput_rps=completed / makespan if makespan > 0 else 0.0,
            mean_latency_seconds=sum(latencies) / len(latencies) if latencies else 0.0,
            p50_latency_seconds=percentile(latencies, 50.0),
            p99_latency_seconds=percentile(latencies, 99.0),
            mean_wait_seconds=sum(waits) / len(waits) if waits else 0.0,
            p99_wait_seconds=percentile(waits, 99.0),
            slo_attainment=attained / requests if requests else 0.0,
            deadlines_missed=deadlines_missed,
            max_queue_depth=max_queue_depth,
            mean_queue_depth=(
                queue_depth_sum / events_processed if events_processed else 0.0
            ),
            utilization=utilization,
            per_priority_attainment={
                priority: met_by_priority.get(priority, 0) / total
                for priority, total in sorted(total_by_priority.items())
            },
            cost_per_million_requests=cost,
            router=router_name(router),
            events_processed=events_processed,
            retried=self.retried,
            shed=shed,
            oom_dropped=oom_dropped,
            failed=failed,
            downtime_seconds=downtime_total,
            availability=(
                max(0.0, 1.0 - downtime_total / provisioned_total)
                if provisioned_total > 0
                else 1.0
            ),
            mean_fleet_size=mean_fleet,
            peak_fleet_size=self.peak_fleet,
            worker_hours=worker_hours,
            shed_by_priority=dict(sorted(shed_by_priority.items())),
        )


def _replay(
    trace: RequestTrace,
    fleet: FleetSpec,
    scheduler: SchedulerSpec = "fifo",
    *,
    ppm_config: Optional[PPMConfig] = None,
    session: Optional[SimulationSession] = None,
    service: Optional["LatencyService"] = None,
    same_length_reuse_discount: float = 0.0,
    service_times: Optional[ServiceTimes] = None,
    faults: Optional[FaultSchedule] = None,
    recovery: Optional[RecoveryPolicy] = None,
    admission: Optional[AdmissionController] = None,
    autoscaler=None,
    communication_times: Optional[CommunicationTimes] = None,
    router: RouterSpec = None,
    timeline: Optional[TimelineRecorder] = None,
) -> Tuple[ClusterReport, List[_Row]]:
    """The event loop behind both public replays: the report plus one
    :data:`_Row` per finished request, in the order requests finished."""
    if not 0.0 <= same_length_reuse_discount < 1.0:
        raise ValueError("same_length_reuse_discount must be in [0, 1)")
    if faults is not None and not faults:
        faults = None  # an empty schedule IS the healthy path, bit-for-bit
    if faults is not None and recovery is None:
        recovery = RecoveryPolicy()
    if admission is not None and admission.max_queue_depth is None:
        admission = None  # admit-everything IS the open-loop path
    num_groups = len(fleet.groups)
    # One Autoscaler applies per-group (the same reactive policy sizing each
    # group independently); a sequence supplies one per group.  All groups
    # share one tick chain, so intervals and attainment windows must agree.
    autoscalers: Optional[List[Autoscaler]] = None
    if autoscaler is not None:
        if isinstance(autoscaler, Autoscaler):
            autoscalers = [autoscaler] * num_groups
        else:
            autoscalers = list(autoscaler)
            if len(autoscalers) != num_groups:
                raise ValueError(
                    f"need one autoscaler per worker group "
                    f"({num_groups}), got {len(autoscalers)}"
                )
        first_scaler = autoscalers[0]
        if any(
            a.interval_seconds != first_scaler.interval_seconds
            or a.attainment_window != first_scaler.attainment_window
            for a in autoscalers
        ):
            raise ValueError(
                "per-group autoscalers must share interval_seconds and "
                "attainment_window (they ride one tick chain)"
            )
    policy = create_scheduler(scheduler)
    router_obj = create_router(router)
    if service_times is None:
        service_times = prefetch_service_times(
            trace, fleet, ppm_config=ppm_config, session=session, service=service
        )
    #: length -> router's group-preference order (None = group-oblivious).
    pref_of: Optional[Dict[int, Tuple[int, ...]]] = None
    if router_obj is not None:
        infos = group_infos(fleet, service_times, trace)
        pref_of = {
            n: tuple(router_obj.preference(n, infos))
            for n in trace.distinct_lengths()
        }
    # Per-group queue-depth signal for multi-group autoscaling: a queued
    # request counts toward every group that could serve its length.  One
    # group reads the queue depth itself.
    queued_feasible: Optional[List[int]] = None
    feasible_of: Optional[Dict[int, Tuple[int, ...]]] = None
    if autoscalers is not None and num_groups > 1:
        queued_feasible = [0] * num_groups
        feasible_of = {
            n: (
                pref_of[n]
                if pref_of is not None
                else tuple(
                    gi
                    for gi in range(num_groups)
                    if service_times.get((gi, n)) is not None
                )
            )
            for n in trace.distinct_lengths()
        }
    if faults is not None and faults.degraded_links and communication_times is None:
        cfg = ppm_config
        if cfg is None and session is not None:
            cfg = session.ppm_config
        if cfg is None and service is not None:
            cfg = service.session.ppm_config
        communication_times = prefetch_communication_seconds(trace, fleet, ppm_config=cfg)

    state = _Replay(fleet, recovery, autoscalers, queued_feasible, timeline)
    group_of = state.group_of
    if timeline is not None:
        timeline.configure(
            trace_name=trace.name,
            fleet_name=fleet.name,
            group_labels=fleet.group_labels(),
            group_of=tuple(group_of),
        )
    if faults is not None:
        for crash in faults.crashes:
            if crash.worker_id < state.base_workers:
                state.push(crash.at_seconds, _CRASH, crash)
    if autoscalers is not None:
        state.push(first_scaler.interval_seconds, _AUTOSCALE, None)

    # Arrivals are merged from the trace rather than pushed into the heap.
    # An arrival's heap key would be (arrival, _ARRIVAL, trace index), so
    # the cursor walks the trace in (arrival, index) order: a stable sort,
    # needed only when the trace is out of arrival order.
    by_arrival = trace.requests
    arrivals = list(map(attrgetter("arrival_seconds"), by_arrival))
    if any(map(gt, arrivals, islice(arrivals, 1, None))):
        order = sorted(range(len(arrivals)), key=arrivals.__getitem__)
        by_arrival = [by_arrival[k] for k in order]
        arrivals = [arrivals[k] for k in order]
    num_arrivals = len(arrivals)
    next_arrival = 0

    # The hot kinds run on local aliases of the state's lists.
    events, next_sequence = state.events, state.sequence.__next__
    heappush, heappop = heapq.heappush, heapq.heappop
    idle, health, generation = state.idle, state.health, state.generation
    busy_seconds, last_length = state.busy_seconds, state.last_length
    warmup, attempts = state.warmup, state.attempts
    rows, drop = state.rows, state.drop
    events_processed = 0
    depth = len(policy)  # queued requests, counted here rather than asked
    max_queue_depth = 0
    queue_depth_sum = 0
    last_time = trace.duration_seconds
    push, pop = policy.push, policy.pop
    prefer_shape = same_length_reuse_discount > 0.0
    reuse_factor = 1.0 - same_length_reuse_discount

    while True:
        if next_arrival < num_arrivals and (
            not events or (arrivals[next_arrival], _ARRIVAL) < events[0]
        ):
            # Arrivals never move last_time: it starts at the latest one.
            time_now = arrivals[next_arrival]
            request = by_arrival[next_arrival]
            next_arrival += 1
            if timeline is not None:
                timeline.arrival(
                    time_now, request.id, request.sequence_length, request.priority
                )
            if admission is not None and not admission.admits(request.priority, depth):
                drop(request, time_now, "shed")
            else:
                push(request)
                depth += 1
                if queued_feasible is not None:
                    for qgi in feasible_of[request.sequence_length]:
                        queued_feasible[qgi] += 1
        elif events:
            time_now, kind, _, payload = heappop(events)
            if kind == _COMPLETION:
                worker, gen, request, start = payload
                if gen != generation[worker]:
                    continue  # the worker crashed mid-service; the crash handled it
                # Control-plane events (crashes, recoveries, scale changes,
                # ticks) move state but not the clock the makespan reads — a
                # restart long after the last request must not inflate it.
                if time_now > last_time:
                    last_time = time_now
                insort(idle, worker)
                met = (
                    request.deadline_seconds is None
                    or time_now <= request.deadline_seconds + 1e-12
                )
                rows.append(
                    (request, start, time_now, met, None, attempts.get(request.id, 0))
                )
                if timeline is not None:
                    timeline.complete(time_now, worker, request.id, met)
            elif kind == _RETRY:
                if time_now > last_time:
                    last_time = time_now
                if timeline is not None:
                    timeline.retry(time_now, payload.id)
                push(payload)  # retries bypass admission: already accepted
                depth += 1
                if queued_feasible is not None:
                    for qgi in feasible_of[payload.sequence_length]:
                        queued_feasible[qgi] += 1
            elif kind == _CRASH:
                state.crash(time_now, payload)
            elif kind == _RECOVER:
                state.recover(time_now, payload)
            elif kind == _SCALE_UP:
                state.scale_up(time_now, payload)
            else:  # _AUTOSCALE
                state.tick(time_now, depth, next_arrival < num_arrivals or depth)
        else:
            break
        events_processed += 1

        # Dispatch: only a queued request and an idle worker can move work.
        if idle and depth:
            straggling = (
                faults.straggling_workers(time_now) if faults is not None
                else _NONE_STRAGGLING
            )
            #: Popped requests whose feasible groups are all busy (routed
            #: mode): requeued after the drain so they keep their queue
            #: position and the scheduler can offer the *next* request to
            #: the still-idle workers.
            deferred: List = []
            while idle and depth:
                request = pop(time_now)
                depth -= 1
                length = request.sequence_length
                if queued_feasible is not None:
                    for qgi in feasible_of[length]:
                        queued_feasible[qgi] -= 1
                if pref_of is not None:
                    prefs = pref_of[length]
                    if not prefs:
                        # No group in the fleet can ever hold this length.
                        drop(request, time_now, "oom")
                        continue
                    worker = None
                    for candidate_group in prefs:
                        tier = [w for w in idle if group_of[w] == candidate_group]
                        if tier:
                            worker = select_worker(
                                tier, length, last_length, prefer_shape, straggling
                            )
                            idle.remove(worker)
                            break
                    if worker is None:
                        deferred.append(request)
                        continue
                    gi = group_of[worker]
                    seconds = service_times[(gi, length)]
                else:
                    worker = select_worker(
                        idle, length, last_length, prefer_shape, straggling
                    )
                    gi = group_of[worker]
                    seconds = service_times[(gi, length)]
                    if seconds is None:
                        # The claimed worker's group cannot serve this length;
                        # the group-oblivious baseline drops it (pass
                        # ``router=`` to retry other groups).  The worker
                        # itself stays idle.
                        insort(idle, worker)
                        drop(request, time_now, "oom")
                        continue
                if last_length[worker] == length:
                    seconds *= reuse_factor
                last_length[worker] = length
                extra = 0.0
                if faults is not None:
                    slowdown = faults.slowdown_at(worker, time_now)
                    if slowdown != 1.0:
                        seconds *= slowdown
                    link_factor = faults.link_factor_at(gi, time_now)
                    if link_factor < 1.0 and communication_times is not None:
                        comm = communication_times[(gi, length)]
                        seconds += comm * (1.0 / link_factor - 1.0)
                    if health[worker] is WorkerHealth.WARMING:
                        health[worker] = WorkerHealth.HEALTHY
                        extra = warmup[worker]
                finish = time_now + seconds + extra
                busy_seconds[worker] += seconds + extra
                heappush(
                    events,
                    (finish, _COMPLETION, next_sequence(),
                     (worker, generation[worker], request, time_now)),
                )
                if timeline is not None:
                    timeline.dispatch(time_now, finish, worker, request.id, length)
            # Reversed so repeated requeue-at-head restores the original order.
            for request in reversed(deferred):
                policy.requeue(request)
                depth += 1
                if queued_feasible is not None:
                    for qgi in feasible_of[request.sequence_length]:
                        queued_feasible[qgi] += 1

        if depth > max_queue_depth:
            max_queue_depth = depth
        queue_depth_sum += depth
        if timeline is not None:
            timeline.queue_depth(time_now, depth)

    # Requests still queued were starved: every worker (routed mode: every
    # worker of their feasible groups) is dead with no restart coming, or
    # retired, so nothing will ever serve them.
    while depth:
        request = pop(last_time)
        depth -= 1
        drop(request, last_time, "starved")
    report = state.report(
        trace, fleet, scheduler, router, last_time,
        events_processed, max_queue_depth, queue_depth_sum,
    )
    return report, rows
