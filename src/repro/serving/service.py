"""`LatencyService`: a latency/capacity query service over `repro.sim`.

The serving layer turns the single-tenant :class:`~repro.sim.session.SimulationSession`
into something that answers concurrent, multi-tenant traffic:

* **batches** — clients :meth:`~LatencyService.submit_batch` typed
  :class:`~repro.serving.api.LatencyRequest` objects or ``(spec, length)``
  tuples (``submit`` is a one-slot batch) and poll/await the ticket ids; a
  dispatcher thread drains the queued work in FIFO order,
* **memo hits at submit** — a request whose report the session memo already
  holds is answered on the submitting thread before ``submit`` returns (also
  on an ``autostart=False`` service), through the same fulfilment, stats,
  request log and trace as queued work; only if the dispatcher is pricing at
  that moment does the hit queue and get answered by the dispatcher,
* **coalescing** — duplicate in-flight (backend, length) queries attach to
  the first one's job, so N identical concurrent requests cost exactly one
  simulation (the NeMo-style same-shape batching, applied to sim points),
* **stacked batch admission** — each drained batch of *unique* jobs is
  priced in-process through the shared session and its report memo: jobs
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

Ticket lifecycle, a batch at a time
-----------------------------------
The batch is the unit of the one lifecycle of :mod:`repro.serving.api`.  A
``submit_batch`` call takes one service-lock hold: it issues a contiguous id
range and one batch record, attaches each slot to a new or pending job,
peeks the memo for the batch's distinct new keys in one session-lock hold
(:meth:`~repro.sim.session.SimulationSession.peek_reports`, or
:meth:`~repro.sim.session.SimulationSession.peek_report` for a lone new
key), and fulfils the hits it finds: a warm request is issued and settled
in one service pass.  Fulfilment writes each job's outcome into its slots,
takes the stats lock once and each backend's latency histogram once, and
wakes waiters once per dispatched batch.
:meth:`~LatencyService.query_batch` waits once and claims the whole batch in
one hold, reading reports straight from the slots; ``result``/``poll`` claim
one slot and build its :class:`~repro.serving.api.LatencyResponse` on read.
``abandon``, ``reap_abandoned`` and ``ticket_state`` read and write the same
record, and a batch leaves the table with its last live slot.

A service returns the same bits as a bare session pricing the same points —
asserted by ``tests/test_serving.py`` and ``tests/test_sim_goldens.py``.
"""

from __future__ import annotations

import functools
import math
import threading
import time
from bisect import bisect_left, bisect_right
from collections import deque
from operator import itemgetter
from typing import Any, Deque, Dict, Iterable, List, Optional, Set, Tuple, Union

from .._digest import stable_digest
from .._memo import CONFIG_MEMO
from ..obs.tracing import Tracer
from ..ppm.config import PPMConfig
from ..report import SimReport
from ..sim.session import DEFAULT_BACKENDS, SimulationSession, refuse_disk_cache
from .api import (
    CapacityReport,
    LatencyRequest,
    LatencyResponse,
    RequestLogRecord,
    dispatch_order_key,
    non_empty,
    positive,
)
from .stats import ServiceStats

RequestLike = Union[LatencyRequest, Tuple[Any, int]]
#: A job's result: (report, error, memo_hit).
_Result = Tuple[Optional[SimReport], Optional[str], bool]


def create_service(**kwargs) -> "LatencyService":
    """Factory twin of :class:`LatencyService` (same keyword arguments).

    The serving sibling of :func:`repro.sim.backend.create_backend`,
    :func:`repro.cluster.create_scheduler` / ``create_router`` /
    ``create_trace`` and :func:`repro.serving.http.create_front_door` — one
    consistent ``create_*`` naming across the facade.
    """
    return LatencyService(**kwargs)


def _spec_key(spec: Any) -> Tuple[str, object]:
    """Coalescing identity of a backend spec, computed without building it.

    Strings fold case; config dataclasses and variant specs hash canonically
    via :mod:`repro._digest`; opaque backend instances expose their own
    ``config_digest``.  Anything else falls back to object identity — such
    requests never coalesce with each other, but still execute correctly.
    Submission memoizes the key by the spec's value in the process-wide
    :data:`repro._memo.CONFIG_MEMO`, so a fresh service does not digest a
    spec again that an earlier one keyed.
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


def _backend_label(spec: Any) -> str:
    """Stable display label for per-backend stats of a job that has no report."""
    if isinstance(spec, str):
        return spec.lower()
    name = getattr(spec, "name", None)
    if isinstance(name, str) and name:
        return name
    return type(spec).__name__


#: Spans in one fulfilled request's trace batch (root + 3 children).
_REQUEST_SPANS = 4


def _request_spans(released: float, *row):
    """One fulfilled request's span batch, built when its trace is read.

    ``released`` is when the fulfilled batch released its waiters; ``row``
    is the request's log row after its trace key (see ``_fulfill``), whose
    last field is its job's (backend label, execution path, ok, started, end).
    """
    backend, path, ok, started, end = row[11]
    ticket_id, sequence_length, submitted, coalesced = row[0], row[2], row[5], row[7]
    exec_name = "coalesce" if coalesced else path
    attributes = {
        "ticket_id": ticket_id, "backend": backend, "sequence_length": sequence_length,
        "coalesced": coalesced, "path": exec_name, "ok": ok,
    }
    return (
        ("request", submitted, end, attributes),
        ("queue-wait", submitted, started, None),
        (exec_name, started, end, None),
        ("fulfill", end, released, None),
    )


class _Batch:
    """One ``submit_batch`` call: ticket ids ``first .. first + len - 1``, one slot each.

    Per slot: the request — its :class:`LatencyRequest`, or ``(spec, length)``
    for a tuple request — its outcome, ``None`` while pending, then ``(report,
    error, completed_index, started, end, coalesced)``, and whether it is
    gone.  ``abandoned`` (``None`` until a waiter first gives up) holds the
    slots whose last waiter gave up: a fulfilment landing on one is a *late
    result*, counted and left for :meth:`LatencyService.reap_abandoned`,
    never a silent orphan.
    """

    __slots__ = ("first", "requests", "submitted", "outcomes", "gone", "abandoned",
                 "unfulfilled", "live")

    def __init__(self, first: int, requests: list, now: float):
        self.first, self.requests, self.submitted = first, requests, now
        size = len(requests)
        self.outcomes: List[Optional[tuple]] = [None] * size
        self.gone = bytearray(size)
        self.abandoned: Optional[Set[int]] = None
        self.unfulfilled = self.live = size

    def abandon(self, slots: Iterable[int]) -> None:
        if self.abandoned is None:
            self.abandoned = set()
        self.abandoned.update(slots)


class _Job:
    """One unique (backend, length, recycles) simulation; owns its waiting slots.

    ``priority``/``deadline`` aggregate over the attached requests (highest
    priority, earliest absolute deadline): a duplicate that coalesces onto a
    queued job can only move it *forward* in dispatch order, never starve it.
    ``queued`` is True while the job sits in the queue; ``peeked`` when
    submit found the key missing from the memo, so the dispatcher prices it
    without looking again; ``path`` names how it was priced ("memo-hit",
    "stacked-simulate", "simulate", "error") for tracing.
    """

    __slots__ = (
        "key", "spec", "sequence_length", "include_recycles", "seq", "priority",
        "deadline", "queued", "peeked", "path", "slots",
    )

    def __init__(self, key: Tuple, spec: Any, seq: int) -> None:
        self.key, self.spec, self.seq = key, spec, seq
        self.sequence_length, self.include_recycles = key[1], key[2]
        self.priority, self.deadline = 0, None
        self.queued, self.peeked, self.path = True, False, "simulate"
        #: (batch, slot) of every request waiting on this job.
        self.slots: List[Tuple[_Batch, int]] = []

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
    the module docstring.  The session's report memo is the service's one
    cache of reports; ``use_disk_cache`` accepts only ``False``, as on
    :class:`~repro.sim.session.SimulationSession`, and stays only for the
    perfbench callers that pass it.

    ``tracer`` switches on per-request span tracing: every fulfilled request
    records a root ``request`` span with ``queue-wait``, an execution span
    named after the path that priced it (``memo-hit`` / ``stacked-simulate``
    / ``simulate``, or ``coalesce``) and a ``fulfill`` span, keyed by the
    client's ``trace_id`` or the ticket id (see :mod:`repro.obs.tracing`).

    The dispatcher thread starts on first submit (``autostart=True``) or via
    :meth:`start`; ``autostart=False`` stages work that needs pricing (memo
    hits are still answered at submit).  Leaving the ``with`` block drains
    the queue and stops the dispatcher.
    """

    def __init__(
        self,
        ppm_config: Optional[PPMConfig] = None,
        backends: Iterable = DEFAULT_BACKENDS,
        include_recycles: bool = False,
        session: Optional[SimulationSession] = None,
        max_batch: int = 64,
        autostart: bool = True,
        request_log_limit: Optional[int] = None,
        tracer: Optional[Tracer] = None,
        *,
        use_disk_cache: bool = False,
    ) -> None:
        refuse_disk_cache(use_disk_cache)
        if session is not None:
            if ppm_config is not None and ppm_config != session.ppm_config:
                raise ValueError(
                    "ppm_config does not match session.ppm_config; pass one or the other"
                )
            # A caller-supplied session carries its own backends and recycle
            # setting; silently dropping conflicting kwargs would make them
            # no-ops, so reject them loudly.
            if include_recycles or tuple(backends) != DEFAULT_BACKENDS:
                raise ValueError(
                    "backends/include_recycles are session settings; "
                    "configure them on the session instead"
                )
            self.session = session
        else:
            self.session = SimulationSession(
                ppm_config=ppm_config,
                backends=backends,
                include_recycles=include_recycles,
            )
        self.max_batch = int(max_batch)
        self.autostart = bool(autostart)
        self._started_at = time.perf_counter()
        self.stats = ServiceStats(request_log_limit=request_log_limit, epoch=self._started_at)
        self.stats.read_queue_depth = self.queue_depth
        #: Optional span tracing; ``None`` or a disabled tracer records nothing.
        self.tracer = tracer

        lock = threading.RLock()
        self._cond = threading.Condition(lock)  # queue, dispatcher and join() wake-ups
        #: Claim wake-ups on the same lock: fulfilling never wakes an idle
        #: dispatcher.
        self._settled = threading.Condition(lock)
        self._session_lock = threading.RLock()
        self._listeners: List = []  # see add_result_listener
        self._queue: Deque[_Job] = deque()
        #: Queued jobs with non-default priority/deadline; while zero the
        #: dispatcher drains with the O(1) FIFO popleft fast path instead of
        #: sorting the whole queue per batch.
        self._urgent_queued = 0
        self._pending: Dict[Tuple, _Job] = {}
        #: Batches with a live slot, in id order, and their first ids (for
        #: bisect); an issued id neither live nor reaped was consumed.
        self._batches: List[_Batch] = []
        self._firsts: List[int] = []
        #: Ids taken by :meth:`reap_abandoned` rather than claimed by a client,
        #: as disjoint, non-adjacent ranges ``_reaped_firsts[i] .. _reaped_lasts[i]``
        #: in id order, and how many they hold.
        self._reaped_firsts: List[int] = []
        self._reaped_lasts: List[int] = []
        self._reaped = 0
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
            self._spawn()
        return self

    def _spawn(self) -> None:
        if self._thread is None:
            self._thread = threading.Thread(target=self._run, name="latency-service", daemon=True)
            self._thread.start()

    def close(self, wait: bool = True) -> None:
        """Stop accepting requests; the dispatcher drains the queue, then exits."""
        with self._cond:
            if self._queue:
                # A never-started service with staged requests starts its
                # dispatcher late, so no ticket is left unfulfilled.
                self._spawn()
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
    def submit(self, request: RequestLike) -> int:
        """Enqueue one request as a one-slot batch (see :meth:`submit_batch`); returns its id."""
        return self._submit((request,)).first

    def submit_batch(self, requests: Iterable[RequestLike]) -> List[int]:
        """Enqueue many requests as one batch; returns their contiguous ticket ids in order.

        A request whose (backend, length, recycles) key matches a queued or
        in-flight job attaches to that job, sharing its one simulation.  A
        new key whose report the session memo already holds is answered
        here, on the calling thread, before this returns: its ticket is
        ``"fulfilled"`` at once and the dispatcher never sees it.  The memo is
        read once per distinct new key, and only while the session is idle;
        if the dispatcher is pricing, the request queues and the dispatcher
        answers it.  Everything queued by one call is enqueued under one lock
        hold with one wake-up.  Each distinct spec object is keyed once per
        batch, and each distinct hashable spec value once per service.
        """
        batch = self._submit(requests)
        return [] if batch is None else list(range(batch.first, batch.first + len(batch.requests)))

    def _submit(self, requests: Iterable[RequestLike]) -> Optional[_Batch]:
        """Validate and key ``requests``, then issue them as one batch record.

        A ``(spec, length)`` tuple is rejected exactly as a
        :class:`LatencyRequest` of it would be, without building one.  Memo
        hits are fulfilled in the same service-lock hold that issues the
        batch.
        """
        spec_keys: Dict[int, Tuple[str, object]] = {}
        default_include = self.session.include_recycles
        specs: List[Any] = []
        originals: List[RequestLike] = []
        keys: List[Tuple] = []
        urgent: List[Tuple[int, LatencyRequest]] = []  # slots with priority/deadline
        for request in requests:
            if isinstance(request, LatencyRequest):
                spec, length = request.backend, int(request.sequence_length)
                include = request.include_recycles
                include = default_include if include is None else bool(include)
                if request.priority > 0 or request.deadline_seconds is not None:
                    urgent.append((len(keys), request))
            else:
                spec, length = request
                length = int(length)
                if not spec:
                    non_empty("backend", spec)
                if not 0 < length < math.inf:
                    positive("sequence_length", length)
                request, include = (spec, length), default_include  # no request object built
            spec_key = spec_keys.get(id(spec))
            if spec_key is None:
                spec_key = spec_keys[id(spec)] = CONFIG_MEMO.get(("spec_key", spec), _spec_key, spec)
            specs.append(spec)
            originals.append(request)
            keys.append((spec_key, length, include))  # the job key
        if not keys:
            return None
        now = time.perf_counter()
        fulfilled: Optional[Tuple[int, ...]] = None
        with self._cond:
            if self._stopped:
                raise RuntimeError("service is closed")
            first = self._next_ticket
            self._next_ticket += len(keys)
            batch = _Batch(first, originals, now)
            self._batches.append(batch)
            self._firsts.append(first)
            pending, fresh = self._pending, []
            for slot, key in enumerate(keys):
                job = pending.get(key)
                if job is None:
                    # Pending at once, so duplicates later in this batch
                    # coalesce onto it exactly as onto a queued job.
                    job = pending[key] = _Job(key, specs[slot], first + slot)
                    fresh.append(job)
                job.slots.append((batch, slot))
            results: Dict[Tuple, _Result] = {}
            hits: List[_Job] = []
            # Never wait for the session: a busy one is pricing a batch, and
            # the dispatcher classifies whatever queues meanwhile.
            if fresh and self._session_lock.acquire(blocking=False):
                try:
                    if len(fresh) == 1:  # a lone new key: the one-point lookup
                        job = fresh[0]
                        peeked = (self.session.peek_report(
                            job.spec, job.sequence_length, job.include_recycles
                        ),)
                    else:
                        peeked = self.session.peek_reports(
                            [(job.spec, job.sequence_length, job.include_recycles) for job in fresh]
                        )
                except Exception:  # the dispatcher looks again and reports it
                    peeked = ()
                finally:
                    self._session_lock.release()
                for job, report in zip(fresh, peeked):
                    if not isinstance(report, Exception):  # else the dispatcher reports it
                        job.peeked = True
                        if report is not None:
                            job.queued, job.path = False, "memo-hit"
                            results[job.key] = (report, None, True)
                            hits.append(job)
            for slot, request in urgent:
                job = pending[keys[slot]]
                was_default = job.is_default_order()
                deadline = request.deadline_seconds
                job.absorb(request.priority, None if deadline is None else now + float(deadline))
                if job.queued and was_default and not job.is_default_order():
                    self._urgent_queued += 1
            if len(hits) < len(fresh):
                self._queue.extend([job for job in fresh if job.queued] if hits else fresh)
                self._cond.notify_all()
            # The queue only grew here: its depth is the peak.
            self.stats.record_submits(len(keys), len(keys) - len(fresh), len(self._queue))
            if hits:
                fulfilled = self._fulfill(hits, results, now, inline=True)
        if fulfilled:
            self._notify(fulfilled)
        if self.autostart and self._thread is None:  # start() is idempotent
            self.start()
        return batch

    # ------------------------------------------------------------------- await
    def _slot(self, ticket_id: int) -> Tuple[_Batch, int]:
        """The batch and slot of a live ticket; ``KeyError`` if it is not live."""
        index = bisect_right(self._firsts, ticket_id) - 1
        if index >= 0:
            batch = self._batches[index]
            slot = ticket_id - batch.first
            if slot < len(batch.gone) and not batch.gone[slot]:
                return batch, slot
        raise KeyError(ticket_id)

    def _take(self, batch: _Batch, slot: int) -> None:
        """Mark a live slot consumed or reaped; a batch leaves with its last slot."""
        batch.gone[slot] = 1
        if batch.abandoned:
            batch.abandoned.discard(slot)
        batch.live -= 1
        if not batch.live:
            self._drop(batch)

    def _drop(self, batch: _Batch) -> None:
        index = bisect_left(self._firsts, batch.first)
        del self._firsts[index], self._batches[index]

    @staticmethod
    def _response(batch: _Batch, slot: int) -> LatencyResponse:
        """The :class:`LatencyResponse` of a fulfilled slot, built on read."""
        report, error, index, started, end, coalesced = batch.outcomes[slot]
        request = batch.requests[slot]
        if type(request) is tuple:
            request = LatencyRequest(*request)
        submitted = batch.submitted
        return LatencyResponse(
            batch.first + slot, request, report, error, coalesced,
            max(0.0, started - submitted), max(0.0, end - submitted), index,
        )

    def poll(self, ticket_id: int) -> Optional[LatencyResponse]:
        """The response for ``ticket_id`` if fulfilled, else ``None``.

        A fulfilled ticket is consumed: polling it again raises ``KeyError``.
        """
        with self._cond:
            batch, slot = self._slot(ticket_id)
            if batch.outcomes[slot] is None:
                return None
            self._take(batch, slot)
        return self._response(batch, slot)

    def result(self, ticket_id: int, timeout: Optional[float] = None) -> LatencyResponse:
        """Block until ``ticket_id`` is fulfilled and return (and consume) it.

        On timeout the ticket is *not* consumed, the give-up is counted
        (``timed_out``) and the ticket is marked abandoned: a completion that
        lands later is a *late result* (``late_results``), reclaimable via
        :meth:`reap_abandoned` or a later ``result``/:meth:`poll`.
        """
        with self._cond:
            batch, slot = self._slot(ticket_id)
            # A returning waiter re-arms the ticket: a completion that lands
            # while someone is actively waiting is on-time, not late.
            if batch.abandoned:
                batch.abandoned.discard(slot)
            outcomes = batch.outcomes
            fulfilled = outcomes[slot] is not None or self._settled.wait_for(
                lambda: outcomes[slot] is not None, timeout
            )
            if batch.gone[slot]:
                pass  # another waiter claimed it first
            elif fulfilled:
                self._take(batch, slot)
            else:
                batch.abandon((slot,))
        if not fulfilled:
            self.stats.record(timeouts=1)
            raise TimeoutError(f"request {ticket_id} not fulfilled within {timeout}s")
        return self._response(batch, slot)

    def abandon(self, ticket_id: int) -> bool:
        """Mark a ticket abandoned without waiting out a timeout; returns whether it is live.

        An abandoned-and-fulfilled ticket is collected by the next
        :meth:`reap_abandoned`; only a waiter returning via :meth:`result`
        re-arms it.
        """
        with self._cond:
            try:
                batch, slot = self._slot(ticket_id)
            except KeyError:
                return False
            batch.abandon((slot,))
            return True

    def add_result_listener(self, listener) -> None:
        """Register ``listener(ticket_ids)`` to run after each fulfilled batch.

        Called outside the service lock with the ids the batch fulfilled,
        once each is pollable, on the fulfilling thread: the dispatcher, or
        the submitter for memo hits answered at submit (before ``submit``
        returns).  Listeners must be fast; their exceptions are swallowed.
        The HTTP front door uses this to wake its event loop.
        """
        with self._cond:
            self._listeners.append(listener)

    def reap_abandoned(self) -> List[LatencyResponse]:
        """Consume and return responses of fulfilled-but-abandoned tickets.

        The cleanup half of the late-result contract: a long-lived service
        reaps periodically so abandoned tickets cannot pile up.
        """
        ripe: List[Tuple[_Batch, int]] = []
        with self._cond:
            for batch in [b for b in self._batches if b.abandoned]:
                for slot in sorted(batch.abandoned):
                    if batch.outcomes[slot] is not None:
                        self._take(batch, slot)
                        self._add_reaped(batch.first + slot)
                        ripe.append((batch, slot))
        return [self._response(batch, slot) for batch, slot in ripe]

    def _add_reaped(self, ticket_id: int) -> None:
        """Merge one reaped id into the reaped ranges (lock held)."""
        firsts, lasts = self._reaped_firsts, self._reaped_lasts
        index = bisect_right(firsts, ticket_id)  # ranges before it: [0, index)
        joins_left = index > 0 and lasts[index - 1] == ticket_id - 1
        joins_right = index < len(firsts) and firsts[index] == ticket_id + 1
        if joins_left and joins_right:
            lasts[index - 1] = lasts[index]
            del firsts[index], lasts[index]
        elif joins_left:
            lasts[index - 1] = ticket_id
        elif joins_right:
            firsts[index] = ticket_id
        else:
            firsts.insert(index, ticket_id)
            lasts.insert(index, ticket_id)
        self._reaped += 1

    def ticket_state(self, ticket_id: int) -> str:
        """``"pending"``, ``"fulfilled"``, ``"consumed"``, ``"reaped"`` or ``"unknown"``.

        The lifecycle of :mod:`repro.serving.api`; ``"unknown"`` means never issued.
        """
        with self._cond:
            try:
                batch, slot = self._slot(ticket_id)
            except KeyError:
                index = bisect_right(self._reaped_firsts, ticket_id) - 1
                if index >= 0 and ticket_id <= self._reaped_lasts[index]:
                    return "reaped"
                return "consumed" if 0 <= ticket_id < self._next_ticket else "unknown"
            return "pending" if batch.outcomes[slot] is None else "fulfilled"

    def ticket_counts(self) -> Dict[str, int]:
        """How many issued tickets were ``"consumed"`` and ``"reaped"``."""
        with self._cond:
            reaped = self._reaped
            live = sum(batch.live for batch in self._batches)
            return {"consumed": self._next_ticket - live - reaped, "reaped": reaped}

    def join(self, timeout: Optional[float] = None) -> bool:
        """Wait until the queue is empty and no batch is executing."""
        with self._cond:
            return self._cond.wait_for(
                lambda: not self._queue and self._executing == 0, timeout
            )

    # ------------------------------------------------------------- convenience
    def query(
        self, backend: Any, sequence_length: int,
        include_recycles: Optional[bool] = None, timeout: Optional[float] = None,
    ) -> SimReport:
        """Synchronous submit + await; raises :class:`LatencyServiceError` on failure."""
        request = LatencyRequest(backend, sequence_length, include_recycles)
        return self.query_batch((request,), timeout=timeout)[0]

    def query_batch(
        self, requests: Iterable[RequestLike], timeout: Optional[float] = None
    ) -> List[SimReport]:
        """Submit a batch and await every report, aligned with the input order.

        Waits once for the whole batch and claims every slot in one lock
        hold; no :class:`LatencyResponse` is built unless a slot failed, and
        :class:`LatencyServiceError` then names the first failure.
        ``timeout`` bounds the one wait: on expiry every unclaimed slot is
        abandoned (reclaimable via :meth:`reap_abandoned`), the give-up is
        counted once and ``TimeoutError`` is raised.
        """
        batch = self._submit(requests)
        if batch is None:
            return []
        with self._cond:
            fulfilled = not batch.unfulfilled or self._settled.wait_for(
                lambda: not batch.unfulfilled, timeout
            )
            if not fulfilled:
                batch.abandon(i for i, gone in enumerate(batch.gone) if not gone)
            elif batch.live:  # else other clients claimed or reaped every slot
                batch.gone[:] = b"\x01" * len(batch.gone)
                batch.abandoned = None
                batch.live = 0
                self._drop(batch)
        if not fulfilled:
            self.stats.record(timeouts=1)
            raise TimeoutError(f"requests {batch.first}.. not fulfilled within {timeout}s")
        for slot, outcome in enumerate(batch.outcomes):
            if outcome[1] is not None or outcome[0] is None:  # an error, or no report
                self._response(batch, slot).raise_for_error()
        return [outcome[0] for outcome in batch.outcomes]

    def register_backend(self, spec: Any, name: Optional[str] = None):
        """Register a backend on the shared session without racing the dispatcher."""
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

        Carries what :meth:`repro.cluster.trace.RequestTrace.from_serving_log`
        needs to replay the traffic; bounded by ``request_log_limit``.
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
                # Drain up to max_batch jobs in dispatch_order_key order.  With
                # no urgent job queued, FIFO is that order: pop, don't sort.
                if self._urgent_queued == 0:
                    jobs = []
                    while self._queue and len(jobs) < self.max_batch:
                        jobs.append(self._queue.popleft())
                else:
                    ordered = sorted(self._queue, key=_Job.dispatch_key)
                    jobs = ordered[: self.max_batch]
                    chosen = {id(job) for job in jobs}
                    self._queue = deque(job for job in self._queue if id(job) not in chosen)
                for job in jobs:
                    job.queued = False
                    if not job.is_default_order():
                        self._urgent_queued -= 1
                self._executing = len(jobs)
            started = time.perf_counter()
            results: Dict[Tuple, _Result] = {}
            try:
                results = self._execute(jobs)
            except Exception as exc:
                # A dispatcher-level failure (session corruption) must not
                # kill this thread: a dead dispatcher would hang every future
                # claim.  Every drained request gets an error response instead.
                for job in jobs:
                    results.setdefault(job.key, (None, f"dispatcher error: {exc}", False))
            finally:
                with self._cond:
                    fulfilled = self._fulfill(jobs, results, started)
                self._notify(fulfilled)

    def _execute(self, jobs: List[_Job]) -> Dict[Tuple, _Result]:
        """Evaluate unique jobs; returns key -> (report, error, memo_hit)."""
        results: Dict[Tuple, _Result] = {}
        # Stacked batch admission: misses sharing a backend spec and recycles
        # flag are priced by a single stacked pass; loners keep the plain
        # per-job path.
        buckets: Dict[Tuple, List[_Job]] = {}
        with self._session_lock:
            unpeeked = [job for job in jobs if not job.peeked]
            peeked = self.session.peek_reports(
                [(job.spec, job.sequence_length, job.include_recycles) for job in unpeeked]
            )
            for job, report in zip(unpeeked, peeked):
                if isinstance(report, Exception):  # bad spec: resolution failed
                    results[job.key] = (None, str(report), False)
                    job.path = "error"
                elif report is not None:
                    results[job.key] = (report, None, True)
                    job.path = "memo-hit"
            for job in jobs:
                if job.key not in results:
                    buckets.setdefault((job.key[0], job.include_recycles), []).append(job)
            for group in buckets.values():
                if len(group) > 1:
                    self._simulate_bucketed(group, results)
                else:
                    results[group[0].key] = self._simulate_serial(group[0])
        return results

    def _simulate_serial(self, job: _Job) -> _Result:
        job.path = "simulate"
        try:
            report = self.session.simulate(
                job.sequence_length, backend=job.spec, include_recycles=job.include_recycles
            )
        except Exception as exc:
            return (None, str(exc), False)
        self.stats.record(simulations=1)
        return (report, None, False)

    def _simulate_bucketed(self, jobs: List[_Job], results: Dict[Tuple, _Result]) -> None:
        """Price one bucket (same spec, same recycles flag) in one stacked pass.

        Any failure of :meth:`SimulationSession.simulate_batch` falls back to
        the per-job serial path, so bucketing never costs correctness.
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
        self, jobs: List[_Job], results: Dict[Tuple, _Result], started: float, inline: bool = False
    ) -> Optional[Tuple[int, ...]]:
        """Give every slot waiting on ``jobs`` its outcome (service lock held).

        The one place a ticket is fulfilled: each slot gets its job's outcome
        tuple (its response is built only when read), with one stats-lock
        hold and one hold per backend latency histogram per call.  The
        dispatcher calls it once per drained batch; :meth:`submit_batch`
        calls it with ``inline=True`` for the memo hits it answers itself,
        which leaves the dispatcher's ``_executing`` count and ``batches``
        counter alone and wakes nobody.  Returns the fulfilled ticket ids for
        :meth:`_notify` when a listener is registered.
        """
        end = time.perf_counter()
        #: One row per request, for the request log and the trace (see
        #: ServiceStats.record_fulfilled), and each backend's service times.
        log: List[tuple] = []
        latencies: Dict[str, List[float]] = {}
        errors = memo_hits = late_results = 0
        for job in jobs:
            report, error, memo_hit = results.get(
                job.key, (None, "job aborted by dispatcher error", False)
            )
            self._pending.pop(job.key, None)
            index = self._completed_index
            self._completed_index += 1
            label = report.backend if report is not None else _backend_label(job.spec)
            # The first slot made the job; every later one coalesced onto it.
            outcomes = (
                (report, error, index, started, end, False),
                (report, error, index, started, end, True),
            )
            job_spans = (label, job.path, error is None, started, end)
            status = "ok" if error is None else "error"
            errors += len(job.slots) if error is not None else 0
            observed = latencies.setdefault(label, [])
            coalesced = False
            for batch, slot in job.slots:
                batch.outcomes[slot] = outcomes[coalesced]
                batch.unfulfilled -= 1
                submitted = batch.submitted
                queue_seconds = started - submitted if started > submitted else 0.0
                service_seconds = end - submitted if end > submitted else 0.0
                # A coalesced request was counted at submit; a memo hit
                # too would double-credit the hit rate.
                memo_hits += memo_hit and not coalesced
                if batch.abandoned:  # every waiter gave up: a late result
                    late_results += slot in batch.abandoned
                request, ticket_id = batch.requests[slot], batch.first + slot
                log.append((
                    ticket_id, ticket_id, label, request[1], 0, None, submitted,
                    status, coalesced, queue_seconds, service_seconds, None, job_spans,
                ) if type(request) is tuple else (
                    request.trace_id or ticket_id, ticket_id, label,
                    request.sequence_length, request.priority, request.deadline_seconds,
                    submitted, status, coalesced, queue_seconds, service_seconds,
                    request.trace_id, job_spans,
                ))
                observed.append(service_seconds)
                coalesced = True
        self.stats.record_fulfilled(
            log, latencies, errors=errors, memo_hits=memo_hits,
            late_results=late_results, batches=0 if inline else 1,
            busy_seconds=end - started,
        )
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            # Recorded before the lock is released so a woken waiter
            # always finds its trace complete.
            released = time.perf_counter()
            tracer.record_deferred(
                log, _REQUEST_SPANS, functools.partial(_request_spans, released)
            )
        if not inline:
            # Inline hits need no wake-up: their ids were issued in this
            # same lock hold, so no claim can be waiting on them yet.
            self._settled.notify_all()
            self._executing = 0
            self._cond.notify_all()
        return tuple(map(itemgetter(1), log)) if self._listeners else None

    def _notify(self, ticket_ids: Optional[Tuple[int, ...]]) -> None:
        """Tell the result listeners which tickets a batch fulfilled (lock released).

        Listener contract: fulfilled responses are already pollable, the
        lock is released (a listener may call poll()/stats), and a listener
        crash never takes the fulfilling thread down with it.
        """
        if ticket_ids is None:
            return
        for listener in tuple(self._listeners):
            try:
                listener(ticket_ids)
            except Exception:
                pass
