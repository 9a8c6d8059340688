"""`LatencyService`: a latency/capacity query service over `repro.sim`.

The serving layer turns the single-tenant :class:`~repro.sim.session.SimulationSession`
into something that answers concurrent, multi-tenant traffic:

* **request queue** — clients :meth:`~LatencyService.submit` typed
  :class:`~repro.serving.api.LatencyRequest` objects and poll/await
  :class:`~repro.serving.api.LatencyResponse` tickets; a dispatcher thread
  drains the queue in FIFO order,
* **coalescing** — duplicate in-flight (backend, length) queries attach to
  the first one's job, so N identical concurrent requests cost exactly one
  simulation (the NeMo-style same-shape batching, applied to sim points),
* **shape-bucketed batch admission** — serial-path jobs that share a backend
  spec (and recycles flag) are grouped by length bucket
  (:func:`repro.serving.api.length_bucket`; ``length_bucket_size=None`` =
  one shared bucket) and each multi-length group is priced by **one**
  vectorized stacked pass through
  :meth:`repro.sim.session.SimulationSession.simulate_batch`, seeding the
  shared memo for every member — bit-identical to per-length simulation,
* **worker pool** — each drained batch of *unique* jobs is evaluated either
  serially through the shared session (memo + disk cache) or, with
  ``workers > 1``, sharded via :func:`repro.sim.sweep.sweep` across a
  **long-lived process pool** owned by the service (created lazily on the
  first pooled batch, reused for every batch after, shut down when the
  dispatcher drains out — no per-batch executor standup); pool results are
  seeded back into the session memo (and the ``REPRO_SIM_CACHE_DIR`` disk
  cache) so the service warms up like any other session user,
* **dispatch order** — requests carry ``priority``/``deadline_seconds``
  (:func:`repro.serving.api.dispatch_order_key`): the dispatcher drains
  higher-priority, earlier-deadline jobs first and falls back to FIFO for
  all-default traffic — the same semantics the cluster simulator's EDF
  scheduler applies (:mod:`repro.cluster.scheduler`).

Both execution paths run the identical per-point simulation code, so pooled
and serial services return bit-identical numbers — asserted by
``tests/test_serving.py`` and the CI smoke (:mod:`repro.serving.smoke`).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, is_dataclass
from pathlib import Path
from typing import Any, Deque, Dict, Iterable, List, Optional, Tuple, Union

from .._digest import stable_digest
from ..gpu.gpu_config import GPUS, GPUSpec
from ..hardware.config import LightNobelConfig
from ..obs.tracing import Tracer
from ..ppm.config import PPMConfig
from ..sim.backend import (
    AcceleratorVariant,
    GPUVariant,
    SimReport,
    available_backends,
)
from ..sim.session import DEFAULT_BACKENDS, SimulationSession
from ..sim.sweep import SweepPoint, resolve_workers, sweep
from .api import (
    CapacityReport,
    LatencyRequest,
    LatencyResponse,
    LatencyServiceError,
    RequestLogRecord,
    dispatch_order_key,
    length_bucket,
)
from .stats import ServiceStats

RequestLike = Union[LatencyRequest, Tuple[Any, int]]


def create_service(**kwargs) -> "LatencyService":
    """Factory twin of :class:`LatencyService` (same keyword arguments).

    The serving sibling of :func:`repro.sim.backend.create_backend`,
    :func:`repro.cluster.create_scheduler` / ``create_router`` /
    ``create_trace`` and :func:`repro.serving.http.create_front_door` — one
    consistent ``create_*`` naming across the facade.
    """
    return LatencyService(**kwargs)


def _as_request(request: RequestLike) -> LatencyRequest:
    if isinstance(request, LatencyRequest):
        return request
    spec, length = request
    return LatencyRequest(backend=spec, sequence_length=int(length))


def _spec_key(spec: Any) -> Tuple[str, object]:
    """Coalescing identity of a backend spec, computed without building it.

    Strings fold case; config dataclasses and variant specs hash canonically
    via :mod:`repro._digest`; opaque backend instances expose their own
    ``config_digest``.  Anything else falls back to object identity — such
    requests never coalesce with each other, but still execute correctly.
    """
    if isinstance(spec, str):
        return ("name", spec.lower())
    digest = getattr(spec, "config_digest", None)
    if callable(digest):
        return ("digest", f"{type(spec).__name__}:{digest()}")
    try:
        return ("digest", stable_digest("serving-spec", spec))
    except TypeError:
        return ("id", id(spec))


def _poolable(spec: Any) -> bool:
    """Whether a spec can be rebuilt inside a sweep worker process.

    Registry names and frozen config/variant dataclasses ship cleanly across
    the process boundary; session-local registrations (digest-derived names)
    and live backend instances are evaluated serially instead.
    """
    if isinstance(spec, (AcceleratorVariant, GPUVariant, LightNobelConfig, GPUSpec)):
        return True
    # Variant-style frozen dataclasses with a build() factory (e.g.
    # repro.cluster.fleet.MultiChipVariant) pickle by value and rebuild in the
    # worker.  A spec that wraps a nested `base` spec (a multi-chip node over
    # some inner backend) is only pool-safe if that base would resolve in a
    # worker too — a session-local digest name or live backend instance
    # inside would fail worker-side and needlessly cost us the long-lived
    # pool, so such jobs run serially instead.
    if is_dataclass(spec) and not isinstance(spec, type) and callable(
        getattr(spec, "build", None)
    ):
        base = getattr(spec, "base", None)
        return base is None or _poolable(base)
    if isinstance(spec, str):
        key = spec.lower()
        if key in available_backends():
            return True
        base = key[: -len("-chunk")] if key.endswith("-chunk") else key
        return base.upper() in GPUS
    return False


def _backend_label(spec: Any, report: Optional[SimReport]) -> str:
    """Stable display label for per-backend stats."""
    if report is not None:
        return report.backend
    if isinstance(spec, str):
        return spec.lower()
    name = getattr(spec, "name", None)
    if isinstance(name, str) and name:
        return name
    return type(spec).__name__


#: Spans in one fulfilled request's trace batch (root + 3 children).
_REQUEST_SPANS = 4


def _request_spans(
    job: Tuple[str, str, bool, float, float],
    released: List[float],
    ticket_id: int,
    sequence_length: int,
    coalesced: bool,
    submitted: float,
):
    """One fulfilled request's span batch, built when its trace is read.

    ``job`` is (backend label, execution path, ok, started, end), shared by
    the job's tickets; ``released[0]`` is when the dispatch batch released
    its waiters.
    """
    backend, path, ok, started, end = job
    exec_name = "coalesce" if coalesced else path
    return (
        (
            "request",
            submitted,
            end,
            {
                "ticket_id": ticket_id,
                "backend": backend,
                "sequence_length": sequence_length,
                "coalesced": coalesced,
                "path": exec_name,
                "ok": ok,
            },
        ),
        ("queue-wait", submitted, started, None),
        (exec_name, started, end, None),
        ("fulfill", end, released[0], None),
    )


@dataclass
class _Ticket:
    """One submitted request awaiting fulfillment.

    ``abandoned`` flips on when a :meth:`LatencyService.result` waiter times
    out and back off when a waiter returns for the ticket; a fulfillment that
    lands while the flag is up is a *late result* — counted in stats and
    reclaimable via :meth:`LatencyService.reap_abandoned`, never a silent
    orphan in the ticket table.
    """

    id: int
    request: LatencyRequest
    submitted_at: float
    coalesced: bool
    done: threading.Event = field(default_factory=threading.Event)
    response: Optional[LatencyResponse] = None
    abandoned: bool = False


@dataclass
class _Job:
    """One unique (backend, length, recycles) simulation; owns its waiters.

    ``priority``/``deadline`` aggregate over the attached tickets (highest
    priority, earliest absolute deadline): a duplicate that coalesces onto a
    queued job can only move it *forward* in dispatch order, never starve it.
    """

    key: Tuple
    spec: Any
    sequence_length: int
    include_recycles: bool
    seq: int = 0
    priority: int = 0
    deadline: Optional[float] = None
    #: True while the job sits in the pending queue (dispatch bookkeeping).
    queued: bool = True
    #: Which execution path priced this job ("memo-hit", "pool-dispatch",
    #: "stacked-simulate", "simulate", "error") — the span name tracing gives
    #: the execution window of every non-coalesced ticket.
    path: str = "simulate"
    tickets: List[_Ticket] = field(default_factory=list)

    def dispatch_key(self) -> Tuple[int, float, int]:
        return dispatch_order_key(self.priority, self.deadline, self.seq)

    def is_default_order(self) -> bool:
        """Whether the job sorts exactly where FIFO would put it."""
        return self.priority == 0 and self.deadline is None

    def absorb(self, priority: int, deadline: Optional[float]) -> None:
        self.priority = max(self.priority, int(priority))
        if deadline is not None:
            self.deadline = deadline if self.deadline is None else min(self.deadline, deadline)


class LatencyService:
    """Request queue + coalescing + worker pool over one shared session.

    ``workers`` selects the execution path for each drained batch of unique
    jobs: ``None``/0/1 (or ``$REPRO_SIM_WORKERS``) evaluates serially through
    the shared :class:`~repro.sim.session.SimulationSession`; ``workers > 1``
    shards pool-safe jobs across :func:`repro.sim.sweep.sweep` and seeds the
    results back into the session memo.  ``cache_dir`` /
    ``REPRO_SIM_CACHE_DIR`` enable the shared disk cache exactly as on a bare
    session.

    On the serial path, jobs sharing a backend spec are additionally grouped
    by shape bucket (``length_bucket_size``; ``None`` = one shared bucket)
    and each multi-length group is priced in a single stacked pass — see the
    module docstring.  Results are bit-identical to per-length simulation, so
    the bucket width is purely a batching-granularity knob.

    ``tracer`` switches on per-request span tracing: every fulfilled ticket
    records a root ``request`` span with ``queue-wait``, an execution span
    named after the path that priced it (``memo-hit`` / ``pool-dispatch`` /
    ``stacked-simulate`` / ``simulate``, or ``coalesce`` for tickets that
    attached to an in-flight duplicate) and a ``fulfill`` span, keyed by the
    client's ``trace_id`` or the ticket id (see :mod:`repro.obs.tracing`).

    The dispatcher thread starts lazily on first submit (``autostart=True``)
    or explicitly via :meth:`start` — tests submit with ``autostart=False``
    to stage a concurrent batch deterministically.  The service is a context
    manager; leaving the ``with`` block drains the queue and stops the
    dispatcher.
    """

    def __init__(
        self,
        ppm_config: Optional[PPMConfig] = None,
        backends: Iterable = DEFAULT_BACKENDS,
        workers: Optional[int] = None,
        cache_dir: Optional[Path | str] = None,
        use_disk_cache: Optional[bool] = None,
        include_recycles: bool = False,
        session: Optional[SimulationSession] = None,
        max_batch: int = 64,
        autostart: bool = True,
        length_bucket_size: Optional[int] = None,
        request_log_limit: Optional[int] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if session is not None:
            if ppm_config is not None and ppm_config != session.ppm_config:
                raise ValueError(
                    "ppm_config does not match session.ppm_config; pass one or the other"
                )
            # A caller-supplied session carries its own backends/cache/recycle
            # settings; silently dropping conflicting kwargs would make e.g.
            # use_disk_cache=False a no-op, so reject them loudly.
            if (
                cache_dir is not None
                or use_disk_cache is not None
                or include_recycles
                or tuple(backends) != DEFAULT_BACKENDS
            ):
                raise ValueError(
                    "backends/cache_dir/use_disk_cache/include_recycles are "
                    "session settings; configure them on the session instead"
                )
            self.session = session
        else:
            self.session = SimulationSession(
                ppm_config=ppm_config,
                backends=backends,
                cache_dir=cache_dir,
                use_disk_cache=use_disk_cache,
                include_recycles=include_recycles,
            )
        self.workers = resolve_workers(workers)
        self.max_batch = int(max_batch)
        self.autostart = bool(autostart)
        #: Shape-bucket width for stacked batch admission (None = one bucket).
        self.length_bucket_size = length_bucket_size
        self.stats = ServiceStats(request_log_limit=request_log_limit)
        #: Optional per-request span tracing (:mod:`repro.obs.tracing`).
        #: ``None`` keeps the hot path untouched; a disabled tracer records
        #: nothing.  Spans are keyed by ``request.trace_id`` when the client
        #: supplied one, else by the integer ticket id.
        self.tracer = tracer

        self._cond = threading.Condition()
        self._session_lock = threading.RLock()
        #: Fulfillment listeners (see :meth:`add_result_listener`), invoked by
        #: the dispatcher thread outside the service lock.
        self._listeners: List = []
        self._queue: Deque[_Job] = deque()
        #: Queued jobs with non-default priority/deadline; while zero the
        #: dispatcher drains with the O(1) FIFO popleft fast path instead of
        #: sorting the whole queue per batch.
        self._urgent_queued = 0
        self._pending: Dict[Tuple, _Job] = {}
        self._tickets: Dict[int, _Ticket] = {}
        self._next_ticket = 0
        self._completed_index = 0
        self._executing = 0
        self._stopped = False
        self._thread: Optional[threading.Thread] = None
        #: Long-lived worker pool (created lazily by the dispatcher on the
        #: first pooled batch, reused for every batch after, shut down when
        #: the dispatcher drains out).  Owned exclusively by the dispatcher
        #: thread, so no lock guards it.
        self._pool: Optional[ProcessPoolExecutor] = None
        self._started_at = time.perf_counter()

    # ---------------------------------------------------------------- lifecycle
    def start(self) -> "LatencyService":
        """Start the dispatcher thread (idempotent)."""
        with self._cond:
            if self._stopped:
                raise RuntimeError("service is closed")
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._run, name="latency-service", daemon=True
                )
                self._thread.start()
        return self

    def close(self, wait: bool = True) -> None:
        """Stop accepting requests; the dispatcher drains the queue, then exits."""
        with self._cond:
            if self._thread is None and self._queue:
                # Never-started service with staged requests: start the
                # dispatcher late so the drain contract holds and no ticket
                # is left unfulfilled.
                self._thread = threading.Thread(
                    target=self._run, name="latency-service", daemon=True
                )
                self._thread.start()
            self._stopped = True
            self._cond.notify_all()
            thread = self._thread
        if wait and thread is not None:
            thread.join()
        if thread is None:
            # Never-started service: no dispatcher will run to release the
            # pool (it cannot exist yet, but keep the invariant explicit).
            self._shutdown_pool()

    def __enter__(self) -> "LatencyService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ submit
    def _job_key(self, request: LatencyRequest) -> Tuple:
        include = (
            self.session.include_recycles
            if request.include_recycles is None
            else bool(request.include_recycles)
        )
        return (_spec_key(request.backend), int(request.sequence_length), include)

    def submit(self, request: RequestLike) -> int:
        """Enqueue one request; returns a ticket id for :meth:`poll`/:meth:`result`.

        A request whose (backend, length, recycles) key matches a queued or
        in-flight job attaches to that job — sharing its single simulation —
        instead of enqueueing a new one.
        """
        return self.submit_batch((request,))[0]

    def submit_batch(self, requests: Iterable[RequestLike]) -> List[int]:
        """Enqueue many requests at once; returns ticket ids in input order.

        The whole batch is enqueued under one lock hold with one wake-up, so
        a running dispatcher drains it together rather than a slice at a time.
        """
        keyed = [(r, self._job_key(r)) for r in map(_as_request, requests)]
        if not keyed:
            return []
        now = time.perf_counter()
        ticket_ids: List[int] = []
        submits: List[Tuple[bool, int]] = []
        with self._cond:
            if self._stopped:
                raise RuntimeError("service is closed")
            for request, key in keyed:
                ticket_id = self._next_ticket
                self._next_ticket += 1
                job = self._pending.get(key)
                coalesced = job is not None
                ticket = _Ticket(
                    id=ticket_id, request=request, submitted_at=now, coalesced=coalesced
                )
                self._tickets[ticket_id] = ticket
                deadline = (
                    None
                    if request.deadline_seconds is None
                    else now + float(request.deadline_seconds)
                )
                if job is None:
                    include = key[2]
                    job = _Job(
                        key=key,
                        spec=request.backend,
                        sequence_length=int(request.sequence_length),
                        include_recycles=include,
                        seq=ticket_id,
                    )
                    self._pending[key] = job
                    self._queue.append(job)
                was_default = job.is_default_order()
                job.absorb(request.priority, deadline)
                if job.queued and was_default and not job.is_default_order():
                    self._urgent_queued += 1
                job.tickets.append(ticket)
                ticket_ids.append(ticket_id)
                submits.append((coalesced, len(self._queue)))
            self._cond.notify_all()
        for coalesced, depth in submits:
            self.stats.record_submit(coalesced=coalesced, queue_depth=depth)
        if self.autostart:
            self.start()
        return ticket_ids

    # ------------------------------------------------------------------- await
    def poll(self, ticket_id: int) -> Optional[LatencyResponse]:
        """The response for ``ticket_id`` if fulfilled, else ``None``.

        A fulfilled ticket is consumed: polling it again raises ``KeyError``.
        """
        with self._cond:
            ticket = self._tickets[ticket_id]
            if not ticket.done.is_set():
                return None
            del self._tickets[ticket_id]
            return ticket.response

    def result(
        self, ticket_id: int, timeout: Optional[float] = None
    ) -> LatencyResponse:
        """Block until ``ticket_id`` is fulfilled and return (and consume) it.

        On timeout the ticket is *not* consumed — a later ``result`` or
        :meth:`poll` may still claim it once fulfilled — but the give-up is
        counted (``timed_out`` in :meth:`capacity_report`) and the ticket is
        marked abandoned: if the job later completes with no waiter attached,
        the completion lands in stats as a *late result* (``late_results``)
        and its response stays reclaimable via :meth:`reap_abandoned`, so a
        client giving up never silently orphans finished work.
        """
        with self._cond:
            ticket = self._tickets[ticket_id]
            # A returning waiter re-arms the ticket: a completion that lands
            # while someone is actively waiting is on-time, not late.
            ticket.abandoned = False
        if not ticket.done.wait(timeout):
            with self._cond:
                ticket.abandoned = True
            self.stats.record_timeout()
            raise TimeoutError(f"request {ticket_id} not fulfilled within {timeout}s")
        with self._cond:
            self._tickets.pop(ticket_id, None)
        assert ticket.response is not None
        return ticket.response

    def abandon(self, ticket_id: int) -> bool:
        """Mark a ticket abandoned without blocking on it; returns whether it exists.

        The non-blocking half of the abandonment contract: a
        :meth:`result` timeout marks its ticket abandoned implicitly; a
        client (or a front end such as :class:`repro.serving.http`'s result
        reaper) that *knows* it will never claim a ticket calls this instead
        of waiting out a timeout.  An abandoned-and-fulfilled ticket is
        collected by the next :meth:`reap_abandoned`; polling or waiting on
        the ticket again un-abandons nothing — ``abandon`` is a one-way hint
        until a waiter returns via :meth:`result`, which re-arms it.
        """
        with self._cond:
            ticket = self._tickets.get(ticket_id)
            if ticket is None:
                return False
            ticket.abandoned = True
            return True

    def add_result_listener(self, listener) -> None:
        """Register ``listener(ticket_ids)`` to run after each fulfilled batch.

        Called from the dispatcher thread, outside the service lock, with the
        tuple of ticket ids fulfilled by one batch — *after* every ticket's
        response is readable via :meth:`poll`.  Listeners must be fast and
        must not raise (exceptions are swallowed to protect the dispatcher);
        the HTTP front door uses this to wake its event loop instead of
        polling.
        """
        with self._cond:
            self._listeners.append(listener)

    def reap_abandoned(self) -> List[LatencyResponse]:
        """Consume and return responses of fulfilled-but-abandoned tickets.

        The cleanup half of the late-result contract: tickets whose waiters
        all timed out stay in the table so their eventual responses are not
        lost; a long-lived service should periodically reap them (or poll the
        ids again) so the table cannot grow without bound.
        """
        with self._cond:
            ripe = [
                t for t in self._tickets.values()
                if t.abandoned and t.done.is_set()
            ]
            for ticket in ripe:
                del self._tickets[ticket.id]
        return [t.response for t in ripe if t.response is not None]

    def join(self, timeout: Optional[float] = None) -> bool:
        """Wait until the queue is empty and no batch is executing."""
        with self._cond:
            return self._cond.wait_for(
                lambda: not self._queue and self._executing == 0, timeout
            )

    # ------------------------------------------------------------- convenience
    def query(
        self,
        backend: Any,
        sequence_length: int,
        include_recycles: Optional[bool] = None,
        timeout: Optional[float] = None,
    ) -> SimReport:
        """Synchronous submit + await; raises :class:`LatencyServiceError` on failure."""
        ticket = self.submit(
            LatencyRequest(
                backend=backend,
                sequence_length=sequence_length,
                include_recycles=include_recycles,
            )
        )
        return self.result(ticket, timeout=timeout).raise_for_error().report

    def query_batch(
        self, requests: Iterable[RequestLike], timeout: Optional[float] = None
    ) -> List[SimReport]:
        """Submit a batch and await every report, aligned with the input order."""
        tickets = self.submit_batch(requests)
        return [
            self.result(ticket, timeout=timeout).raise_for_error().report
            for ticket in tickets
        ]

    def register_backend(self, spec: Any, name: Optional[str] = None):
        """Register a backend on the shared session (thread-safe).

        Entry points that pre-register custom design points (digest-named
        accelerator variants, reference GPUs) route through here so session
        mutation never races the dispatcher.
        """
        with self._session_lock:
            if name is None:
                return self.session.backend(spec)
            return self.session.add_backend(spec, name=name)

    # -------------------------------------------------------------- accounting
    def queue_depth(self) -> int:
        with self._cond:
            return len(self._queue)

    def request_log(self) -> Tuple[RequestLogRecord, ...]:
        """Structured log of fulfilled requests (fulfillment order).

        Each record carries the request's arrival (relative to service
        start), length, priority, relative deadline, and outcome — the exact
        fields :meth:`repro.cluster.trace.RequestTrace.from_serving_log`
        needs to replay this traffic through the cluster simulator.  Bounded
        by the ``request_log_limit`` constructor argument (``None`` keeps
        everything).
        """
        return self.stats.request_log()

    def capacity_report(self) -> CapacityReport:
        """Throughput/hit-rate/latency snapshot (see :class:`CapacityReport`)."""
        snap = self.stats.snapshot()
        busy = float(snap["busy_seconds"])  # type: ignore[arg-type]
        completed = int(snap["completed"])  # type: ignore[arg-type]
        return CapacityReport(
            requests=int(snap["submitted"]),
            completed=completed,
            errors=int(snap["errors"]),
            coalesced=int(snap["coalesced"]),
            memo_hits=int(snap["memo_hits"]),
            simulations=int(snap["simulations"]),
            queue_depth=self.queue_depth(),
            peak_queue_depth=int(snap["peak_queue_depth"]),
            wall_seconds=time.perf_counter() - self._started_at,
            busy_seconds=busy,
            queries_per_second=completed / busy if busy > 0 else 0.0,
            backends=tuple(self.stats.backend_summaries()),
            timed_out=int(snap["timeouts"]),
            late_results=int(snap["late_results"]),
            pool_rebuilds=int(snap["pool_rebuilds"]),
            stacked_batches=int(snap["stacked_batches"]),
            stacked_points=int(snap["stacked_points"]),
        )

    # -------------------------------------------------------------- dispatcher
    def _run(self) -> None:
        while True:
            with self._cond:
                while not self._queue and not self._stopped:
                    # Every wake source (submit, close) calls notify_all, so a
                    # plain wait needs no polling interval.
                    self._cond.wait()
                if not self._queue:
                    break  # stopped and drained; release the pool below
                # Drain up to max_batch jobs in dispatch order: priority desc,
                # then earliest deadline, then submission order (the shared
                # dispatch_order_key semantics).  While nothing queued carries
                # a non-default priority/deadline the queue is already in
                # dispatch order, so keep the O(1) FIFO popleft drain; sort
                # only when an urgent job is actually waiting.
                if self._urgent_queued == 0:
                    jobs = []
                    while self._queue and len(jobs) < self.max_batch:
                        jobs.append(self._queue.popleft())
                else:
                    ordered = sorted(self._queue, key=_Job.dispatch_key)
                    jobs = ordered[: self.max_batch]
                    if len(jobs) == len(self._queue):
                        self._queue.clear()
                    else:
                        chosen = {id(job) for job in jobs}
                        self._queue = deque(
                            job for job in self._queue if id(job) not in chosen
                        )
                for job in jobs:
                    job.queued = False
                    if not job.is_default_order():
                        self._urgent_queued -= 1
                self._executing = len(jobs)
            started = time.perf_counter()
            results: Dict[Tuple, Tuple[Optional[SimReport], Optional[str], bool]] = {}
            try:
                results = self._execute(jobs)
            except Exception as exc:
                # A dispatcher-level failure (pool machinery, session
                # corruption) must not kill this thread: a dead dispatcher
                # would hang every future poll()/result() forever.  Convert
                # the crash into per-ticket error responses and keep serving.
                for job in jobs:
                    results.setdefault(
                        job.key, (None, f"dispatcher error: {exc}", False)
                    )
            finally:
                # Fulfill even if _execute blew up: every drained ticket gets a
                # response (an error one, in the worst case), never a hang.
                self._fulfill(jobs, results, started)
        # The dispatcher owns the worker pool and releases it on the way out —
        # outside the condition lock, since joining worker processes can take
        # a while and must not stall concurrent poll()/stats readers.
        self._shutdown_pool()

    def _execute(
        self, jobs: List[_Job]
    ) -> Dict[Tuple, Tuple[Optional[SimReport], Optional[str], bool]]:
        """Evaluate unique jobs; returns key -> (report, error, memo_hit)."""
        results: Dict[Tuple, Tuple[Optional[SimReport], Optional[str], bool]] = {}
        pooled: List[_Job] = []
        serial: List[_Job] = []
        with self._session_lock:
            for job in jobs:
                try:
                    report = self.session.peek_report(
                        job.spec, job.sequence_length, job.include_recycles
                    )
                except Exception as exc:  # bad spec: resolution itself failed
                    results[job.key] = (None, str(exc), False)
                    job.path = "error"
                    continue
                if report is not None:
                    results[job.key] = (report, None, True)
                    job.path = "memo-hit"
                elif (
                    self.workers is not None
                    and self.workers > 1
                    and _poolable(job.spec)
                ):
                    pooled.append(job)
                else:
                    serial.append(job)
            # Shape-bucketed batch admission: serial jobs sharing a backend
            # spec (and recycles flag) within one length bucket are priced by
            # a single stacked pass; loners keep the plain per-job path.
            buckets: Dict[Tuple, List[_Job]] = {}
            for job in serial:
                bucket = (
                    job.key[0],
                    job.include_recycles,
                    length_bucket(job.sequence_length, self.length_bucket_size),
                )
                buckets.setdefault(bucket, []).append(job)
            for group in buckets.values():
                if len(group) > 1:
                    self._simulate_bucketed(group, results)
                else:
                    results[group[0].key] = self._simulate_serial(group[0])
            if len(pooled) == 1:
                # A single point gains nothing from a pool; keep it in-session.
                results[pooled[0].key] = self._simulate_serial(pooled[0])
            elif pooled:
                self._simulate_pooled(pooled, results)
        return results

    def _simulate_serial(
        self, job: _Job
    ) -> Tuple[Optional[SimReport], Optional[str], bool]:
        job.path = "simulate"
        try:
            report = self.session.simulate(
                job.sequence_length,
                backend=job.spec,
                include_recycles=job.include_recycles,
            )
        except Exception as exc:
            return (None, str(exc), False)
        self.stats.record_simulations(1)
        return (report, None, False)

    def _simulate_bucketed(
        self,
        jobs: List[_Job],
        results: Dict[Tuple, Tuple[Optional[SimReport], Optional[str], bool]],
    ) -> None:
        """Price one shape bucket (same spec, same recycles flag) in one pass.

        Delegates to :meth:`SimulationSession.simulate_batch`, which stacks
        the distinct lengths and evaluates the backend with one vectorized
        call (seeding the shared memo for every member).  Any
        failure falls back to the per-job serial path, so bucketing never
        costs correctness.
        """
        include = jobs[0].include_recycles
        lengths = sorted({job.sequence_length for job in jobs})
        try:
            batch = self.session.simulate_batch(
                lengths, backends=[jobs[0].spec], include_recycles=include
            )
            name = batch.backends[0]
            reports = {n: batch.report(name, n) for n in lengths}
        except Exception:
            for job in jobs:
                results[job.key] = self._simulate_serial(job)
            return
        self.stats.record_simulations(len(lengths))
        self.stats.record_stacked(batches=1, points=len(lengths))
        for job in jobs:
            results[job.key] = (reports[job.sequence_length], None, False)
            job.path = "stacked-simulate"

    def _ensure_pool(self) -> Optional[ProcessPoolExecutor]:
        """The long-lived worker pool, created lazily (``None`` if unavailable)."""
        if self._pool is None:
            try:
                self._pool = ProcessPoolExecutor(max_workers=self.workers)
            except Exception:
                return None
        return self._pool

    def _shutdown_pool(self, wait: bool = True) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=wait)

    def _simulate_pooled(
        self,
        jobs: List[_Job],
        results: Dict[Tuple, Tuple[Optional[SimReport], Optional[str], bool]],
    ) -> None:
        """Shard a batch of unique jobs across the long-lived worker pool.

        The pool is created once and reused across batches (no per-batch
        executor standup); jobs are grouped by recycles flag (a sweep-level
        setting).  A broken pool (workers OOM-killed, crashed mid-batch) is
        discarded and **rebuilt once** — a single dead worker must not cost
        the whole pooled path — and only if the fresh pool fails too does the
        batch degrade to the per-job serial path, so the service keeps the
        sweep module's never-have-to-care fallback contract.
        """
        by_include: Dict[bool, List[_Job]] = {}
        for job in jobs:
            by_include.setdefault(job.include_recycles, []).append(job)
        for include, group in by_include.items():
            points = [SweepPoint(job.spec, job.sequence_length) for job in group]
            reports = None
            for attempt in (0, 1):
                executor = self._ensure_pool()
                try:
                    reports = sweep(
                        points,
                        ppm_config=self.session.ppm_config,
                        workers=self.workers,
                        include_recycles=include,
                        executor=executor,
                    )
                    break
                except Exception:
                    if executor is not None:
                        # The pool itself may be broken (dead workers,
                        # pickling of a poisoned spec): discard it so the
                        # retry (and the next batch) starts clean rather
                        # than failing forever.
                        self._shutdown_pool(wait=False)
                    if attempt == 0 and executor is not None:
                        # One rebuild: _ensure_pool() stands up a fresh pool
                        # on the retry.  A pool that could not even be
                        # created (executor None) will not appear by trying
                        # again — go straight to the serial fallback.
                        self.stats.record_pool_rebuild()
                        continue
                    break
            if reports is None:
                for job in group:
                    results[job.key] = self._simulate_serial(job)
                continue
            self.stats.record_simulations(len(group))
            for job, report in zip(group, reports):
                # Seed the shared memo/disk cache so later duplicates are
                # memo hits, exactly as if the session had simulated them.
                try:
                    self.session.seed_report(
                        job.spec, job.sequence_length, report, include
                    )
                except Exception:
                    pass
                results[job.key] = (report, None, False)
                job.path = "pool-dispatch"

    def _fulfill(
        self,
        jobs: List[_Job],
        results: Dict[Tuple, Tuple[Optional[SimReport], Optional[str], bool]],
        started: float,
    ) -> None:
        end = time.perf_counter()
        tracer = self.tracer
        #: One deferred span row per ticket when tracing (Tracer.record_deferred).
        traced: Optional[List[tuple]] = (
            [] if tracer is not None and tracer.enabled else None
        )
        released = [0.0]  # when the waiters below are woken
        fulfilled: List[_Ticket] = []
        with self._cond:
            for job in jobs:
                report, error, memo_hit = results.get(
                    job.key, (None, "job aborted by dispatcher error", False)
                )
                self._pending.pop(job.key, None)
                index = self._completed_index
                self._completed_index += 1
                label = _backend_label(job.spec, report)
                job_spans = (label, job.path, error is None, started, end)
                for ticket in job.tickets:
                    ticket.response = LatencyResponse(
                        request_id=ticket.id,
                        request=ticket.request,
                        report=report,
                        error=error,
                        coalesced=ticket.coalesced,
                        queue_seconds=max(0.0, started - ticket.submitted_at),
                        service_seconds=max(0.0, end - ticket.submitted_at),
                        completed_index=index,
                    )
                    # Coalesced tickets are already counted at submit time;
                    # counting them as memo hits too would double-credit the
                    # hit rate.
                    self.stats.record_result(
                        label,
                        ticket.response.service_seconds,
                        error=error is not None,
                        memo_hit=memo_hit and not ticket.coalesced,
                    )
                    self.stats.record_request(
                        RequestLogRecord(
                            ticket_id=ticket.id,
                            backend=label,
                            sequence_length=ticket.request.sequence_length,
                            priority=ticket.request.priority,
                            deadline_seconds=ticket.request.deadline_seconds,
                            arrival_seconds=max(
                                0.0, ticket.submitted_at - self._started_at
                            ),
                            outcome="ok" if error is None else "error",
                            coalesced=ticket.coalesced,
                            queue_seconds=ticket.response.queue_seconds,
                            service_seconds=ticket.response.service_seconds,
                            trace_id=ticket.request.trace_id,
                        )
                    )
                    if traced is not None:
                        traced.append((
                            _request_spans, ticket.request.trace_id or ticket.id,
                            job_spans, released, ticket.id,
                            ticket.request.sequence_length, ticket.coalesced,
                            ticket.submitted_at,
                        ))
                    if ticket.abandoned:
                        # Every waiter gave up before this completion landed:
                        # count it so operators can see late work, and leave
                        # the response reclaimable (reap_abandoned / poll).
                        self.stats.record_late_result()
                    fulfilled.append(ticket)
            if traced:
                # Recorded before done.set() so a waiter that wakes on the
                # event always finds its trace complete.
                released[0] = time.perf_counter()
                tracer.record_deferred(traced, _REQUEST_SPANS)
            for ticket in fulfilled:
                ticket.done.set()
            self._executing = 0
            depth = len(self._queue)
            listeners = list(self._listeners)
            self._cond.notify_all()
        self.stats.record_batch(busy_seconds=end - started, queue_depth=depth)
        # Listener contract: fulfilled responses are already pollable, the
        # lock is released (a listener may call poll()/stats), and a listener
        # crash never takes the dispatcher down with it.
        ids = tuple(ticket.id for ticket in fulfilled)
        for listener in listeners:
            try:
                listener(ids)
            except Exception:
                pass
