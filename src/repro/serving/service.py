"""`LatencyService`: a latency/capacity query service over `repro.sim`.

The serving layer turns the single-tenant :class:`~repro.sim.session.SimulationSession`
into something that answers concurrent, multi-tenant traffic:

* **request queue** — clients :meth:`~LatencyService.submit` typed
  :class:`~repro.serving.api.LatencyRequest` objects and poll/await
  :class:`~repro.serving.api.LatencyResponse` tickets; a dispatcher thread
  drains the queue in FIFO order,
* **memo hits at submit** — a request whose report the session memo already
  holds is answered on the submitting thread before ``submit`` returns (also
  on an ``autostart=False`` service), through the same fulfilment, stats,
  request log and trace as queued work; only if the dispatcher is pricing at
  that moment does the hit queue and get answered by the dispatcher,
* **coalescing** — duplicate in-flight (backend, length) queries attach to
  the first one's job, so N identical concurrent requests cost exactly one
  simulation (the NeMo-style same-shape batching, applied to sim points),
* **stacked batch admission** — each drained batch of *unique* jobs is
  priced in-process through the shared session (memo + disk cache): jobs
  that share a backend spec and recycles flag are priced by **one**
  vectorized stacked pass through
  :meth:`repro.sim.session.SimulationSession.simulate_batch`, seeding the
  shared memo for every member — bit-identical to per-length simulation,
* **dispatch order** — requests carry ``priority``/``deadline_seconds``
  (:func:`repro.serving.api.dispatch_order_key`): the dispatcher drains
  higher-priority, earlier-deadline jobs first and falls back to FIFO for
  all-default traffic — the same semantics the cluster simulator's EDF
  scheduler applies (:mod:`repro.cluster.scheduler`).  The order applies to
  work that needs pricing; a memo hit answered at submit never waits behind
  it, so ``completed_index`` across hits and queued misses is fulfilment
  order.

A service returns the same bits as a bare session pricing the same points —
asserted by ``tests/test_serving.py`` and ``tests/test_sim_goldens.py``.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Deque, Dict, Iterable, List, Optional, Set, Tuple, Union

from .._digest import stable_digest
from ..obs.tracing import Tracer
from ..ppm.config import PPMConfig
from ..sim.backend import SimReport
from ..sim.session import DEFAULT_BACKENDS, SimulationSession
from .api import (
    CapacityReport,
    LatencyRequest,
    LatencyResponse,
    LatencyServiceError,
    RequestLogRecord,
    dispatch_order_key,
)
from .stats import ServiceStats

RequestLike = Union[LatencyRequest, Tuple[Any, int]]

#: Hashable spec values a service remembers the coalescing key of.
SPEC_KEY_MEMO_LIMIT = 1024


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
    return LatencyRequest(spec, int(length))  # positional: ~25% cheaper than keywords


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


def _request_spans(released: List[float], job: tuple, row: tuple):
    """One fulfilled request's span batch, built when its trace is read.

    ``released[0]`` is when the fulfilled batch released its waiters; ``job``
    is (backend label, execution path, ok, started, end), shared by the
    job's tickets; ``row`` is the request's log row (see ``_fulfill``).
    """
    backend, path, ok, started, end = job
    ticket_id, sequence_length, submitted, coalesced = row[0], row[2], row[5], row[7]
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

    ``fulfilled`` is set, with ``response``, under the service lock; waiters
    block on the service's ``_settled`` condition, not on a per-ticket event.
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
    fulfilled: bool = False
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
    #: True when submit found the key missing from the memo: the dispatcher
    #: prices it without looking again.  Jobs queued while the session was
    #: busy (or whose peek raised) are classified by the dispatcher.
    peeked: bool = False
    #: Which execution path priced this job ("memo-hit", "stacked-simulate",
    #: "simulate", "error") — the span name tracing gives
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
    """Request queue + coalescing + stacked pricing over one shared session.

    Every drained batch of unique jobs is priced in-process through the
    shared :class:`~repro.sim.session.SimulationSession`; jobs sharing a
    backend spec and recycles flag are priced in a single stacked pass — see
    the module docstring.  ``cache_dir`` / ``REPRO_SIM_CACHE_DIR`` enable the
    shared disk cache exactly as on a bare session.

    ``tracer`` switches on per-request span tracing: every fulfilled ticket
    records a root ``request`` span with ``queue-wait``, an execution span
    named after the path that priced it (``memo-hit`` /
    ``stacked-simulate`` / ``simulate``, or ``coalesce`` for tickets that
    attached to an in-flight duplicate) and a ``fulfill`` span, keyed by the
    client's ``trace_id`` or the ticket id (see :mod:`repro.obs.tracing`).

    The dispatcher thread starts lazily on first submit (``autostart=True``)
    or explicitly via :meth:`start` — tests submit with ``autostart=False``
    to stage a concurrent batch deterministically (memo hits are still
    answered at submit; only work that needs pricing stages).  The service
    is a context manager; leaving the ``with`` block drains the queue and
    stops the dispatcher.
    """

    def __init__(
        self,
        ppm_config: Optional[PPMConfig] = None,
        backends: Iterable = DEFAULT_BACKENDS,
        cache_dir: Optional[Path | str] = None,
        use_disk_cache: Optional[bool] = None,
        include_recycles: bool = False,
        session: Optional[SimulationSession] = None,
        max_batch: int = 64,
        autostart: bool = True,
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
        self.max_batch = int(max_batch)
        self.autostart = bool(autostart)
        self._started_at = time.perf_counter()
        self.stats = ServiceStats(request_log_limit=request_log_limit, epoch=self._started_at)
        self.stats.read_queue_depth = self.queue_depth
        #: Optional per-request span tracing (:mod:`repro.obs.tracing`).
        #: ``None`` keeps the hot path untouched; a disabled tracer records
        #: nothing.  Spans are keyed by ``request.trace_id`` when the client
        #: supplied one, else by the integer ticket id.
        self.tracer = tracer

        lock = threading.RLock()
        self._cond = threading.Condition(lock)  # queue, dispatcher and join() wake-ups
        #: result() wake-ups on the same lock: fulfilling a ticket never
        #: wakes an idle dispatcher.
        self._settled = threading.Condition(lock)
        self._session_lock = threading.RLock()
        #: Hashable spec value -> coalescing key (see :meth:`_spec_key`).
        self._spec_keys: Dict[Any, Tuple[str, object]] = {}
        #: Fulfillment listeners (see :meth:`add_result_listener`), invoked by
        #: the fulfilling thread outside the service lock.
        self._listeners: List = []
        self._queue: Deque[_Job] = deque()
        #: Queued jobs with non-default priority/deadline; while zero the
        #: dispatcher drains with the O(1) FIFO popleft fast path instead of
        #: sorting the whole queue per batch.
        self._urgent_queued = 0
        self._pending: Dict[Tuple, _Job] = {}
        #: Live tickets; an issued id neither live nor reaped was consumed.
        self._tickets: Dict[int, _Ticket] = {}
        #: Ids taken by :meth:`reap_abandoned` rather than claimed by a client.
        self._reaped: Set[int] = set()
        self._next_ticket = 0
        self._completed_index = 0
        self._executing = 0
        self._stopped = False
        self._thread: Optional[threading.Thread] = None

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

    def __enter__(self) -> "LatencyService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ submit
    def _spec_key(self, spec: Any) -> Tuple[str, object]:
        """:func:`_spec_key`, memoized by value like the session's spec memo."""
        try:
            key = self._spec_keys.get(spec)
        except TypeError:  # unhashable: keyed afresh
            return _spec_key(spec)
        if key is None:
            key = _spec_key(spec)
            if len(self._spec_keys) < SPEC_KEY_MEMO_LIMIT:
                self._spec_keys[spec] = key
        return key

    def submit(self, request: RequestLike) -> int:
        """Enqueue one request; returns a ticket id for :meth:`poll`/:meth:`result`.

        A request whose (backend, length, recycles) key matches a queued or
        in-flight job attaches to that job — sharing its single simulation —
        instead of enqueueing a new one; a memo hit comes back already
        fulfilled (see :meth:`submit_batch`).
        """
        return self.submit_batch((request,))[0]

    def submit_batch(self, requests: Iterable[RequestLike]) -> List[int]:
        """Enqueue many requests at once; returns ticket ids in input order.

        A new key whose report the session memo already holds is answered
        here, on the calling thread, before this returns: its ticket is
        ``"fulfilled"`` at once and the dispatcher never sees it.  The memo is
        only read while the session is idle; if the dispatcher is pricing,
        the request queues and the dispatcher answers it.  Everything queued
        by one call is enqueued under one lock hold with one wake-up, so a
        running dispatcher drains it together rather than a slice at a time.
        Each distinct spec object is keyed once per batch, and each distinct
        hashable spec value once per service.
        """
        spec_keys: Dict[int, Tuple[str, object]] = {}
        default_include = self.session.include_recycles
        keyed = []
        for request in map(_as_request, requests):
            spec_key = spec_keys.get(id(request.backend))
            if spec_key is None:
                spec_key = spec_keys[id(request.backend)] = self._spec_key(request.backend)
            include = (
                default_include
                if request.include_recycles is None
                else bool(request.include_recycles)
            )
            # Job key: (spec key, length, recycles flag).
            keyed.append((request, (spec_key, int(request.sequence_length), include)))
        if not keyed:
            return []
        #: id(spec) -> the session's backend for it: each spec object of the
        #: batch is resolved once, not once per peeked job.
        backends: Dict[int, Any] = {}
        now = time.perf_counter()
        ticket_ids: List[int] = []
        coalesced_count = 0
        hits: List[_Job] = []
        results: Dict[Tuple, Tuple[Optional[SimReport], Optional[str], bool]] = {}
        queued = False
        with self._cond:
            if self._stopped:
                raise RuntimeError("service is closed")
            # Never wait for the session: a busy one is pricing a batch, and
            # the dispatcher classifies whatever queues meanwhile.
            peek = self._session_lock.acquire(blocking=False)
            try:
                for request, key in keyed:
                    ticket_id = self._next_ticket
                    self._next_ticket += 1
                    job = self._pending.get(key)
                    coalesced = job is not None
                    ticket = _Ticket(ticket_id, request, now, coalesced)
                    self._tickets[ticket_id] = ticket
                    deadline = (
                        None
                        if request.deadline_seconds is None
                        else now + float(request.deadline_seconds)
                    )
                    if job is None:
                        job = _Job(
                            key=key, spec=request.backend, sequence_length=key[1],
                            include_recycles=key[2], seq=ticket_id, peeked=peek,
                        )
                        # Pending either way, so duplicates later in this
                        # batch coalesce onto it exactly as onto a queued job.
                        self._pending[key] = job
                        report = None
                        if peek:
                            try:
                                backend = backends.get(id(job.spec))
                                if backend is None:
                                    backend = backends[id(job.spec)] = self.session.backend(
                                        job.spec
                                    )
                                report = self.session.peek_report(
                                    backend, job.sequence_length, job.include_recycles
                                )
                            except Exception:
                                # Bad spec: the dispatcher reports the error.
                                job.peeked = False
                        if report is None:
                            self._queue.append(job)
                            queued = True
                        else:
                            job.queued = False
                            job.path = "memo-hit"
                            results[key] = (report, None, True)
                            hits.append(job)
                    if request.priority > 0 or deadline is not None:  # else a no-op
                        was_default = job.is_default_order()
                        job.absorb(request.priority, deadline)
                        if job.queued and was_default and not job.is_default_order():
                            self._urgent_queued += 1
                    job.tickets.append(ticket)
                    ticket_ids.append(ticket_id)
                    coalesced_count += coalesced
            finally:
                if peek:
                    self._session_lock.release()
            depth = len(self._queue)  # only grew in the loop: its peak
            if queued:
                self._cond.notify_all()
        self.stats.record_submits(len(ticket_ids), coalesced_count, depth)
        if hits:
            self._fulfill(hits, results, now, inline=True)
        if self.autostart and self._thread is None:  # start() is idempotent
            self.start()
        return ticket_ids

    # ------------------------------------------------------------------- await
    def poll(self, ticket_id: int) -> Optional[LatencyResponse]:
        """The response for ``ticket_id`` if fulfilled, else ``None``.

        A fulfilled ticket is consumed: polling it again raises ``KeyError``.
        """
        with self._cond:
            ticket = self._tickets[ticket_id]
            if not ticket.fulfilled:
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
            if ticket.fulfilled or self._settled.wait_for(lambda: ticket.fulfilled, timeout):
                self._tickets.pop(ticket_id, None)
                return ticket.response
            ticket.abandoned = True
        self.stats.record(timeouts=1)
        raise TimeoutError(f"request {ticket_id} not fulfilled within {timeout}s")

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

        Called outside the service lock, on the thread that fulfilled the
        batch, with the tuple of ticket ids it fulfilled — *after* every
        ticket's response is readable via :meth:`poll`.  That is the
        dispatcher thread for queued work and the submitter's own thread for
        memo hits answered at submit, in which case the listener runs before
        ``submit`` returns the ids.  Listeners must be fast and must not
        raise (exceptions are swallowed to protect the fulfilling thread);
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
                if t.abandoned and t.fulfilled
            ]
            for ticket in ripe:
                del self._tickets[ticket.id]
                self._reaped.add(ticket.id)
        return [t.response for t in ripe if t.response is not None]

    def ticket_state(self, ticket_id: int) -> str:
        """``"pending"``, ``"fulfilled"``, ``"consumed"``, ``"reaped"`` or ``"unknown"``.

        The lifecycle of :mod:`repro.serving.api`; ``"unknown"`` means never issued.
        """
        with self._cond:
            ticket = self._tickets.get(ticket_id)
            if ticket is not None:
                return "fulfilled" if ticket.fulfilled else "pending"
            if ticket_id in self._reaped:
                return "reaped"
            if 0 <= ticket_id < self._next_ticket:
                return "consumed"
            return "unknown"

    def ticket_counts(self) -> Dict[str, int]:
        """How many issued tickets were ``"consumed"`` and ``"reaped"``."""
        with self._cond:
            reaped = len(self._reaped)
            consumed = self._next_ticket - len(self._tickets) - reaped
            return {"consumed": consumed, "reaped": reaped}

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
        return self.stats.capacity_report(time.perf_counter() - self._started_at)

    # -------------------------------------------------------------- dispatcher
    def _run(self) -> None:
        while True:
            with self._cond:
                while not self._queue and not self._stopped:
                    # Every wake source (submit, close) calls notify_all, so a
                    # plain wait needs no polling interval.
                    self._cond.wait()
                if not self._queue:
                    break  # stopped and drained
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
                # A dispatcher-level failure (session corruption) must not
                # kill this thread: a dead dispatcher
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

    def _execute(
        self, jobs: List[_Job]
    ) -> Dict[Tuple, Tuple[Optional[SimReport], Optional[str], bool]]:
        """Evaluate unique jobs; returns key -> (report, error, memo_hit)."""
        results: Dict[Tuple, Tuple[Optional[SimReport], Optional[str], bool]] = {}
        # Stacked batch admission: misses sharing a backend spec and recycles
        # flag are priced by a single stacked pass; loners keep the plain
        # per-job path.
        buckets: Dict[Tuple, List[_Job]] = {}
        with self._session_lock:
            for job in jobs:
                if job.peeked:  # submit already found it missing from the memo
                    buckets.setdefault((job.key[0], job.include_recycles), []).append(job)
                    continue
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
                else:
                    buckets.setdefault((job.key[0], job.include_recycles), []).append(job)
            for group in buckets.values():
                if len(group) > 1:
                    self._simulate_bucketed(group, results)
                else:
                    results[group[0].key] = self._simulate_serial(group[0])
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
        self.stats.record(simulations=1)
        return (report, None, False)

    def _simulate_bucketed(
        self,
        jobs: List[_Job],
        results: Dict[Tuple, Tuple[Optional[SimReport], Optional[str], bool]],
    ) -> None:
        """Price one bucket (same spec, same recycles flag) in one pass.

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
        self.stats.record(
            simulations=len(lengths), stacked_batches=1, stacked_points=len(lengths)
        )
        for job in jobs:
            results[job.key] = (reports[job.sequence_length], None, False)
            job.path = "stacked-simulate"

    def _fulfill(
        self,
        jobs: List[_Job],
        results: Dict[Tuple, Tuple[Optional[SimReport], Optional[str], bool]],
        started: float,
        inline: bool = False,
    ) -> None:
        """Give every ticket of ``jobs`` its response, then tell the listeners.

        The one place a ticket gets its response, with one stats-lock hold
        per call.  The dispatcher calls it once per drained batch;
        :meth:`submit_batch` calls it with ``inline=True`` for the memo hits
        it answers itself, which leaves the dispatcher's ``_executing`` count
        and ``batches`` counter alone and wakes only :meth:`result` waiters.
        """
        end = time.perf_counter()
        tracer = self.tracer
        #: One deferred span row per ticket when tracing (Tracer.record_deferred).
        traced: Optional[List[tuple]] = (
            [] if tracer is not None and tracer.enabled else None
        )
        released = [0.0]  # when the waiters below are woken
        #: One request-log row per ticket (see ServiceStats.record_fulfilled).
        log: List[tuple] = []
        errors = memo_hits = late_results = 0
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
                outcome = "ok" if error is None else "error"
                errors += len(job.tickets) if error is not None else 0
                for ticket in job.tickets:
                    request, submitted = ticket.request, ticket.submitted_at
                    queue_seconds = max(0.0, started - submitted)
                    service_seconds = max(0.0, end - submitted)
                    ticket.response = LatencyResponse(
                        ticket_id=ticket.id, request=request, report=report, error=error,
                        coalesced=ticket.coalesced, queue_seconds=queue_seconds,
                        service_seconds=service_seconds, completed_index=index,
                    )
                    ticket.fulfilled = True
                    # A coalesced ticket was counted at submit; a memo hit too
                    # would double-credit the hit rate.
                    memo_hits += memo_hit and not ticket.coalesced
                    # Every waiter gave up before this landed: a late result,
                    # left reclaimable (reap_abandoned / poll).
                    late_results += ticket.abandoned
                    row = (
                        ticket.id, label, request.sequence_length, request.priority,
                        request.deadline_seconds, submitted, outcome, ticket.coalesced,
                        queue_seconds, service_seconds, request.trace_id,
                    )
                    log.append(row)
                    if traced is not None:
                        traced.append((request.trace_id or ticket.id, job_spans, row))
            self.stats.record_fulfilled(
                log, errors=errors, memo_hits=memo_hits, late_results=late_results,
                batches=0 if inline else 1, busy_seconds=end - started,
            )
            if traced:
                # Recorded before the lock is released so a woken waiter
                # always finds its trace complete.
                released[0] = time.perf_counter()
                tracer.record_deferred(
                    traced, _REQUEST_SPANS, functools.partial(_request_spans, released)
                )
            self._settled.notify_all()
            listeners = list(self._listeners)
            if not inline:
                self._executing = 0
                self._cond.notify_all()
        # Listener contract: fulfilled responses are already pollable, the
        # lock is released (a listener may call poll()/stats), and a listener
        # crash never takes the dispatcher down with it.
        fulfilled = tuple(row[0] for row in log)
        for listener in listeners:
            try:
                listener(fulfilled)
            except Exception:
                pass
