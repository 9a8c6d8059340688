"""Seeded request traces: protein-length traffic with deadlines and priorities.

A cluster experiment starts from a :class:`RequestTrace` — a deterministic,
seed-reproducible stream of :class:`Request` objects, each an arrival time
plus a protein length plus SLO annotations (priority class, absolute
deadline).  Two arrival processes are provided:

* :func:`poisson_trace` — memoryless arrivals at a fixed offered rate, the
  steady-traffic baseline,
* :func:`bursty_trace` — a two-state (on/off) modulated Poisson process whose
  bursts are what separate scheduling policies: FIFO queues a burst behind
  whatever long protein arrived first, deadline/length-aware policies do not.

Lengths come from pluggable samplers: :func:`dataset_lengths` resamples the
empirical length distribution of a synthetic CAMEO/CASP catalogue
(:mod:`repro.proteins.datasets`), :func:`mixture_lengths` draws from an
explicit (length, weight) mix — the "90% short, 10% huge" traffic shape every
protein-serving fleet actually sees.

Deadlines follow the serving convention of per-token SLOs: a request's
deadline is ``arrival + base + per_residue * length``, so long proteins get
proportionally more headroom and "SLO attainment" compares like with like.
All randomness flows through one ``numpy`` generator seeded from the trace
seed, so a trace is bit-identical across processes and platforms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .._digest import stable_digest
from ..proteins.datasets import build_catalog


def length_bucket(sequence_length: int, bucket_size: Optional[int]) -> int:
    """Shape-bucket index of a sequence length.

    ``bucket_size=None`` (or 0) puts every length in one shared bucket.  A
    positive ``bucket_size`` groups lengths into ``(length - 1) //
    bucket_size`` buckets — the boundaries
    :meth:`RequestTrace.bucketed_lengths` prices each bucket's longest
    member by.
    """
    if not bucket_size or int(bucket_size) <= 0:
        return 0
    return (int(sequence_length) - 1) // int(bucket_size)


@dataclass(frozen=True)
class Request:
    """One serving request of a cluster trace.

    ``deadline_seconds`` is *absolute* trace time (``None`` = no deadline);
    ``priority`` follows :func:`repro.serving.api.dispatch_order_key`
    semantics (higher dispatches first).
    """

    id: int
    arrival_seconds: float
    sequence_length: int
    priority: int = 0
    deadline_seconds: Optional[float] = None

    @property
    def deadline_slack_seconds(self) -> Optional[float]:
        """Deadline headroom at arrival (``None`` when no deadline is set)."""
        if self.deadline_seconds is None:
            return None
        return self.deadline_seconds - self.arrival_seconds


@dataclass(frozen=True)
class SLOPolicy:
    """How a trace annotates requests with deadlines and priorities.

    ``deadline = arrival + base_seconds + per_residue_seconds * length`` —
    the per-token SLO shape.  ``priority_weights`` gives the class mix:
    ``(0.9, 0.1)`` makes 10% of requests priority 1 (higher), the rest
    priority 0.  ``(1.0,)`` (the default) is single-class traffic.
    """

    base_seconds: float = 0.05
    per_residue_seconds: float = 2.5e-4
    priority_weights: Tuple[float, ...] = (1.0,)

    def deadline_for(self, arrival_seconds: float, length: int) -> float:
        return arrival_seconds + self.base_seconds + self.per_residue_seconds * length


#: A no-deadline, single-class annotation (pure arrival/length traffic).
NO_SLO = SLOPolicy(base_seconds=0.0, per_residue_seconds=0.0)


@dataclass(frozen=True)
class RequestTrace:
    """A deterministic stream of requests plus the knobs that produced it."""

    name: str
    requests: Tuple[Request, ...]
    seed: int
    #: Mean offered request rate implied by the generator (requests/second).
    offered_rps: float

    def __len__(self) -> int:
        return len(self.requests)

    def __iter__(self) -> Iterator[Request]:
        return iter(self.requests)

    def lengths(self) -> List[int]:
        return [r.sequence_length for r in self.requests]

    def distinct_lengths(self) -> List[int]:
        return sorted(set(self.lengths()))

    def length_mix(self) -> Dict[int, int]:
        """Distinct length -> request count (the trace's traffic mix)."""
        mix: Dict[int, int] = {}
        for r in self.requests:
            mix[r.sequence_length] = mix.get(r.sequence_length, 0) + 1
        return dict(sorted(mix.items()))

    def bucketed_lengths(self, bucket_size: Optional[int]) -> Dict[int, int]:
        """Distinct length -> its shape-bucket representative length.

        The representative is the *longest* length in the bucket
        (:func:`length_bucket` boundaries), so bucketed service-time
        estimates are conservative — a bucket never under-prices its
        members.  ``bucket_size=None``/0 is the identity map (exact
        per-length simulation).
        """
        distinct = self.distinct_lengths()
        if not bucket_size or int(bucket_size) <= 0:
            return {n: n for n in distinct}
        by_bucket: Dict[int, int] = {}
        for n in distinct:  # ascending, so the last write is the bucket max
            by_bucket[length_bucket(n, bucket_size)] = n
        return {n: by_bucket[length_bucket(n, bucket_size)] for n in distinct}

    @property
    def duration_seconds(self) -> float:
        """Span from time zero to the latest arrival.

        Takes the max rather than trusting ``requests[-1]``: traces imported
        from serving logs (fulfillment order) or merged from several sources
        are not necessarily sorted by arrival.
        """
        if not self.requests:
            return 0.0
        return max(r.arrival_seconds for r in self.requests)

    @classmethod
    def from_serving_log(
        cls,
        records: Sequence,
        name: str = "serving-log",
        include_errors: bool = False,
        rebase_arrivals: bool = True,
    ) -> "RequestTrace":
        """Build a replayable trace from a ``LatencyService`` request log.

        ``records`` is any sequence of
        :class:`repro.serving.api.RequestLogRecord`-shaped objects (duck
        typed, so deserialized dicts-turned-namespaces work too).  The log is
        in *fulfillment* order with arrivals relative to service start and
        deadlines relative to submission; this converts to the trace
        convention — sorted by arrival (ties broken by ticket id), ids
        renumbered 0..n-1, deadlines made absolute
        (``arrival + relative deadline``).  ``rebase_arrivals`` shifts the
        first arrival to t=0 so a replay does not spend idle simulated time
        waiting out the service's warm-up gap; the shift preserves every
        inter-arrival gap and relative deadline.

        Error-outcome requests are dropped by default (they never executed a
        real simulation, so replaying them would model traffic that the
        service rejected); pass ``include_errors=True`` to keep them.

        The result is a plain deterministic :class:`RequestTrace`: building
        it twice from the same log — in the same process or another — yields
        identical ``config_digest()`` values, so replay results are cacheable
        and comparable across runs.
        """
        kept = [
            r
            for r in records
            if include_errors or getattr(r, "outcome", "ok") == "ok"
        ]
        ordered = sorted(
            kept, key=lambda r: (float(r.arrival_seconds), int(r.ticket_id))
        )
        base = float(ordered[0].arrival_seconds) if (ordered and rebase_arrivals) else 0.0
        requests = []
        for i, record in enumerate(ordered):
            arrival = float(record.arrival_seconds) - base
            relative_deadline = record.deadline_seconds
            requests.append(
                Request(
                    id=i,
                    arrival_seconds=arrival,
                    sequence_length=int(record.sequence_length),
                    priority=int(record.priority),
                    deadline_seconds=(
                        None
                        if relative_deadline is None
                        else arrival + float(relative_deadline)
                    ),
                )
            )
        trace = cls(
            name=name,
            requests=tuple(requests),
            seed=0,
            offered_rps=0.0,
        )
        duration = trace.duration_seconds
        if duration > 0:
            trace = cls(
                name=name,
                requests=trace.requests,
                seed=0,
                offered_rps=len(requests) / duration,
            )
        return trace

    def config_digest(self) -> str:
        """Stable content hash (cache key for replay/planner results)."""
        return stable_digest(
            "RequestTrace",
            {
                "name": self.name,
                "seed": self.seed,
                "requests": [
                    (
                        r.id,
                        r.arrival_seconds,
                        r.sequence_length,
                        r.priority,
                        r.deadline_seconds,
                    )
                    for r in self.requests
                ],
            },
        )


# ------------------------------------------------------------ length samplers
def dataset_lengths(
    dataset: str,
    count: int = 32,
    seed: int = 0,
    max_length: Optional[int] = None,
) -> Tuple[int, ...]:
    """Length pool resampled from a synthetic CAMEO/CASP catalogue.

    ``max_length`` truncates the pool the same way numeric experiments cap
    very long anchors (the 6,879-residue CASP16 target would dominate any
    small-config replay).
    """
    catalog = build_catalog(dataset, count=count, seed=seed)
    lengths = catalog.lengths()
    if max_length is not None:
        lengths = [min(n, int(max_length)) for n in lengths]
    return tuple(lengths)


def mixture_lengths(mix: Sequence[Tuple[int, float]]) -> Tuple[Tuple[int, ...], Tuple[float, ...]]:
    """Split an explicit (length, weight) mix into aligned pools/weights."""
    if not mix:
        raise ValueError("mixture must contain at least one (length, weight) pair")
    lengths = tuple(int(n) for n, _ in mix)
    raw = np.asarray([w for _, w in mix], dtype=float)
    if np.any(raw < 0) or raw.sum() <= 0:
        raise ValueError("mixture weights must be non-negative and sum > 0")
    return lengths, tuple(raw / raw.sum())


def _sample_lengths(
    rng: np.random.Generator,
    count: int,
    length_pool: Sequence[int],
    length_weights: Optional[Sequence[float]],
) -> np.ndarray:
    pool = np.asarray(list(length_pool), dtype=np.int64)
    if pool.size == 0:
        raise ValueError("length pool must not be empty")
    probabilities = None
    if length_weights is not None:
        probabilities = np.asarray(list(length_weights), dtype=float)
        if probabilities.shape != pool.shape:
            raise ValueError("length_weights must align with the length pool")
        probabilities = probabilities / probabilities.sum()
    return rng.choice(pool, size=count, p=probabilities)


def _sample_priorities(
    rng: np.random.Generator, count: int, weights: Sequence[float]
) -> np.ndarray:
    levels = np.arange(len(weights))
    probabilities = np.asarray(list(weights), dtype=float)
    probabilities = probabilities / probabilities.sum()
    return rng.choice(levels, size=count, p=probabilities)


def _annotate(
    arrivals: np.ndarray,
    lengths: np.ndarray,
    priorities: np.ndarray,
    slo: SLOPolicy,
) -> Tuple[Request, ...]:
    requests = []
    has_deadline = slo.base_seconds > 0 or slo.per_residue_seconds > 0
    for i, (arrival, length, priority) in enumerate(zip(arrivals, lengths, priorities)):
        deadline = slo.deadline_for(float(arrival), int(length)) if has_deadline else None
        requests.append(
            Request(
                id=i,
                arrival_seconds=float(arrival),
                sequence_length=int(length),
                priority=int(priority),
                deadline_seconds=deadline,
            )
        )
    return tuple(requests)


# --------------------------------------------------------- arrival generators
#: Registered arrival processes for :func:`create_trace`.
TRACE_GENERATORS: Dict[str, "object"] = {}


def _register_trace(name: str):
    def _wrap(fn):
        TRACE_GENERATORS[name] = fn
        return fn

    return _wrap


def create_trace(kind: str, **kwargs) -> RequestTrace:
    """Build a trace by generator name — the ``create_*`` factory of this module.

    ``kind`` is one of :data:`TRACE_GENERATORS` (``"poisson"``, ``"bursty"``,
    ``"diurnal"``); remaining keyword arguments go to the generator verbatim,
    e.g. ``create_trace("poisson", rate_rps=80.0, num_requests=500,
    length_pool=pool)``.  The same naming family as
    :func:`repro.sim.backend.create_backend`,
    :func:`repro.cluster.routing.create_router`,
    :func:`repro.cluster.scheduler.create_scheduler`, and
    :func:`repro.serving.service.create_service`.
    """
    try:
        generator = TRACE_GENERATORS[kind]
    except KeyError:
        known = ", ".join(sorted(TRACE_GENERATORS))
        raise ValueError(f"unknown trace kind {kind!r}; expected one of: {known}") from None
    return generator(**kwargs)


@_register_trace("poisson")
def poisson_trace(
    rate_rps: float,
    num_requests: int,
    length_pool: Sequence[int],
    length_weights: Optional[Sequence[float]] = None,
    slo: SLOPolicy = SLOPolicy(),
    seed: int = 0,
    name: str = "poisson",
) -> RequestTrace:
    """Poisson arrivals at ``rate_rps`` over a length pool (seed-deterministic)."""
    if rate_rps <= 0:
        raise ValueError("rate_rps must be positive")
    if num_requests <= 0:
        raise ValueError("num_requests must be positive")
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(scale=1.0 / rate_rps, size=num_requests)
    arrivals = np.cumsum(gaps)
    lengths = _sample_lengths(rng, num_requests, length_pool, length_weights)
    priorities = _sample_priorities(rng, num_requests, slo.priority_weights)
    return RequestTrace(
        name=name,
        requests=_annotate(arrivals, lengths, priorities, slo),
        seed=seed,
        offered_rps=float(rate_rps),
    )


@_register_trace("diurnal")
def diurnal_trace(
    rate_rps: float,
    num_requests: int,
    length_pool: Sequence[int],
    length_weights: Optional[Sequence[float]] = None,
    slo: SLOPolicy = SLOPolicy(),
    period_seconds: float = 60.0,
    amplitude: float = 0.6,
    flash_at_seconds: Optional[float] = None,
    flash_duration_seconds: float = 2.0,
    flash_factor: float = 6.0,
    seed: int = 0,
    name: str = "diurnal",
) -> RequestTrace:
    """Sinusoidally modulated arrivals with an optional flash crowd.

    The instantaneous rate is ``rate_rps * (1 + amplitude * sin(2*pi*t /
    period_seconds))`` — a compressed diurnal cycle (peak traffic
    ``(1+amplitude)x`` the mean, trough ``(1-amplitude)x``) — multiplied by
    ``flash_factor`` inside the optional flash-crowd window starting at
    ``flash_at_seconds``.  Arrivals are generated iteratively: each gap is
    exponential at the rate evaluated at the previous arrival (the standard
    piecewise approximation of an inhomogeneous Poisson process), all from
    one seeded generator, so the trace is bit-deterministic like its
    siblings.  This is the traffic shape the closed-loop scenario suite
    pins: the trough is where an autoscaler earns its keep, the flash crowd
    is where admission control does.
    """
    if rate_rps <= 0:
        raise ValueError("rate_rps must be positive")
    if num_requests <= 0:
        raise ValueError("num_requests must be positive")
    if not 0.0 <= amplitude < 1.0:
        raise ValueError("amplitude must be in [0, 1)")
    if period_seconds <= 0:
        raise ValueError("period_seconds must be positive")
    if flash_factor < 1.0:
        raise ValueError("flash_factor must be >= 1")
    if flash_duration_seconds <= 0:
        raise ValueError("flash_duration_seconds must be positive")
    rng = np.random.default_rng(seed)
    arrivals = np.empty(num_requests, dtype=float)
    t = 0.0
    two_pi = 2.0 * np.pi
    for i in range(num_requests):
        rate = rate_rps * (1.0 + amplitude * np.sin(two_pi * t / period_seconds))
        if (
            flash_at_seconds is not None
            and flash_at_seconds <= t < flash_at_seconds + flash_duration_seconds
        ):
            rate *= flash_factor
        t += float(rng.exponential(scale=1.0 / rate))
        arrivals[i] = t
    lengths = _sample_lengths(rng, num_requests, length_pool, length_weights)
    priorities = _sample_priorities(rng, num_requests, slo.priority_weights)
    return RequestTrace(
        name=name,
        requests=_annotate(arrivals, lengths, priorities, slo),
        seed=seed,
        offered_rps=float(rate_rps),
    )


@_register_trace("bursty")
def bursty_trace(
    rate_rps: float,
    num_requests: int,
    length_pool: Sequence[int],
    length_weights: Optional[Sequence[float]] = None,
    slo: SLOPolicy = SLOPolicy(),
    burst_factor: float = 8.0,
    burst_fraction: float = 0.25,
    mean_burst_requests: float = 12.0,
    seed: int = 0,
    name: str = "bursty",
) -> RequestTrace:
    """On/off modulated Poisson arrivals with mean offered rate ``rate_rps``.

    The process alternates between an *on* state arriving at
    ``burst_factor``-times the baseline-adjusted rate and an *off* state whose
    rate is scaled down so the long-run mean stays at ``rate_rps``;
    ``burst_fraction`` is the fraction of requests issued inside bursts and
    ``mean_burst_requests`` the geometric mean burst size.  Bursts are the
    trace feature that separates queueing policies: a burst landing behind one
    long protein is exactly the head-of-line blocking FIFO cannot undo.
    """
    if not 0.0 < burst_fraction < 1.0:
        raise ValueError("burst_fraction must be in (0, 1)")
    if burst_factor <= 1.0:
        raise ValueError("burst_factor must exceed 1")
    rng = np.random.default_rng(seed)
    # Per-state rates chosen so the request-weighted harmonic mean is rate_rps:
    #   burst_fraction / on_rate + (1 - burst_fraction) / off_rate = 1 / rate_rps
    on_rate = burst_factor * rate_rps
    off_rate = (1.0 - burst_fraction) / (1.0 / rate_rps - burst_fraction / on_rate)
    gaps = np.empty(num_requests, dtype=float)
    issued = 0
    in_burst = False
    while issued < num_requests:
        if in_burst:
            run = max(1, int(rng.geometric(1.0 / mean_burst_requests)))
            rate = on_rate
        else:
            mean_off = mean_burst_requests * (1.0 - burst_fraction) / burst_fraction
            run = max(1, int(rng.geometric(1.0 / mean_off)))
            rate = off_rate
        run = min(run, num_requests - issued)
        gaps[issued : issued + run] = rng.exponential(scale=1.0 / rate, size=run)
        issued += run
        in_burst = not in_burst
    arrivals = np.cumsum(gaps)
    lengths = _sample_lengths(rng, num_requests, length_pool, length_weights)
    priorities = _sample_priorities(rng, num_requests, slo.priority_weights)
    return RequestTrace(
        name=name,
        requests=_annotate(arrivals, lengths, priorities, slo),
        seed=seed,
        offered_rps=float(rate_rps),
    )
