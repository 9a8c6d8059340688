"""Shared machinery of the benchmark: metric tables, spans, patching, statistics.

The benchmark measures the library from the outside.  End-to-end metrics come
from untraced runs; a traced run installs span wrappers around public
functions of each layer (module functions and class methods, patched for the
duration of the traced segment and restored afterwards) and reads per-layer
numbers off the recorded spans.  Nothing in ``src/`` is modified.
"""

from __future__ import annotations

import hashlib
import math
import os
import resource
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: End-to-end metrics, reported by every workload's untraced run:
#: (name, unit, better).  The bounds live in BENCHMARK.json.
END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("work_per_s", "1/s", "higher"),
    ("task_p50_ms", "ms", "lower"),
)

#: DES event kinds a TimelineRecorder distinguishes (repro.obs.timeline).
DES_EVENT_KINDS: Tuple[str, ...] = (
    "arrival",
    "dispatch",
    "complete",
    "drop",
    "crash",
    "abort",
    "recover",
    "retry",
    "scale_up",
    "retire",
    "autoscale",
    "queue_depth",
)

#: Per-layer metrics, reported by every workload's traced run.  A layer the
#: workload does not run reads 0.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("http.healthz_rtt_us", "us", "lower"),
    ("http.query_rtt_us", "us", "lower"),
    ("http.unexplained_us", "us", "lower"),
    ("client.cpu_us_per_req", "us", "lower"),
    ("wire.request_decode_us", "us", "lower"),
    ("wire.response_encode_us", "us", "lower"),
    ("wire.response_decode_us", "us", "lower"),
    ("service.warm_query_us", "us", "lower"),
    ("service.miss_batch_ms", "ms", "lower"),
    ("service.memo_hit_ratio", "ratio", "higher"),
    ("service.coalesced_ratio", "ratio", "higher"),
    ("service.simulations", "count", "lower"),
    ("service.stacked_batches", "count", "lower"),
    ("service.peak_queue_depth", "count", "lower"),
    ("service.busy_s", "s", "lower"),
    ("session.memo_hit_us", "us", "lower"),
    ("session.simulate_batch_ms", "ms", "lower"),
    ("op_table.build_ms", "ms", "lower"),
    ("op_table.stack_ms", "ms", "lower"),
    ("op_table.rows", "count", "lower"),
    ("hardware.price_ns_per_row", "ns", "lower"),
    ("gpu.price_ns_per_row", "ns", "lower"),
    ("hardware.stack_totals_us", "us", "lower"),
    ("trace.generate_ms", "ms", "lower"),
    ("planner.prefetch_ms", "ms", "lower"),
    ("des.events_per_s.healthy", "1/s", "higher"),
    ("des.events_per_s.routed", "1/s", "higher"),
    ("des.events_per_s.faulty", "1/s", "higher"),
    *((f"des.events.{kind}", "count", "lower") for kind in DES_EVENT_KINDS),
    ("aaq.pack_ns_per_elem", "ns", "lower"),
    ("aaq.unpack_ns_per_elem", "ns", "lower"),
    ("ppm.folding_block_ms", "ms", "lower"),
    ("ppm.triangle_attention_ms", "ms", "lower"),
    ("bench.trace_overhead_frac", "ratio", "lower"),
)


@dataclass
class Result:
    """What one measured segment of a workload produced."""

    #: Wall seconds of each timed task (request, pass or prediction).
    tasks_s: List[float] = field(default_factory=list)
    #: Samples of work completed per second (requests, priced points, DES
    #: events or folded residues), one per task or time window.
    rates: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: Hex digest of the simulated outputs; repeats bit for bit per seed.
    digest: str = ""
    #: Peak RSS of the process running the program, when it is not this
    #: process's peak at the end of the run.
    peak_rss_mb: Optional[float] = None
    #: Workload-specific figures for the human-readable report.
    notes: Dict[str, float] = field(default_factory=dict)


# ------------------------------------------------------------------ statistics
def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]); 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered), max(1, math.ceil(q / 100.0 * len(ordered))))
    return float(ordered[rank - 1])


def digest_of(*parts: Any) -> str:
    """Short SHA-256 over the ``repr`` of ``parts`` (floats repr exactly)."""
    hasher = hashlib.sha256()
    for part in parts:
        hasher.update(repr(part).encode("utf-8"))
        hasher.update(b"\x00")
    return hasher.hexdigest()[:16]


#: The reference loop: a fixed pure-Python integer loop.  How long it takes
#: now, against how long it takes on an uncontended core, says how fast the
#: shared machine runs at the moment.
REFERENCE_ITERATIONS = 200_000
#: Seconds the reference loop takes on an uncontended core of the 2-core
#: x86-64 container (CPython 3.11) the benchmark was tuned on.
REFERENCE_LOOP_S = 0.00725


def reference_loop_s() -> float:
    """Median seconds of five reference-loop runs, measured now."""
    samples = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(REFERENCE_ITERATIONS):
            total += i
        samples.append(time.perf_counter() - start)
    return median(samples)


class ScaledClock:
    """Converts wall seconds of a run into reference-machine seconds.

    The benchmark runs on machines shared with other tenants, whose load
    can slow a CPU by half for minutes at a time, each CPU on its own, so
    run.py pins every run to one CPU.  A run takes a reference-loop reading
    before its first task and after every task, and multiplies its timings
    by :attr:`factor`, ``REFERENCE_LOOP_S / median(readings)``: a run made
    while its CPU ran at half speed reports the times an uncontended one
    would.  The median over the whole run follows slow drift without
    passing on the noise of single short readings.  Code under test never
    runs during a reading.
    """

    def __init__(self) -> None:
        self.readings = [reference_loop_s()]

    def read(self) -> None:
        self.readings.append(reference_loop_s())

    @property
    def factor(self) -> float:
        return REFERENCE_LOOP_S / median(self.readings)


def own_peak_rss_mb() -> float:
    """Peak RSS of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_calls(fn: Callable[[], Any], calls: int) -> float:
    """Median seconds of one ``fn()`` call over ``calls`` individually timed calls."""
    clock = time.perf_counter
    samples = []
    for _ in range(calls):
        start = clock()
        fn()
        samples.append(clock() - start)
    return median(samples)


def capacity_metrics(capacity: Dict[str, float], passes: int = 1) -> Dict[str, float]:
    """``service.*`` counts from a capacity report (``passes`` divides the totals)."""
    requests = max(1, capacity["requests"])
    return {
        "service.memo_hit_ratio": capacity["memo_hits"] / requests,
        "service.coalesced_ratio": capacity["coalesced"] / requests,
        "service.simulations": capacity["simulations"] / passes,
        "service.stacked_batches": capacity["stacked_batches"] / passes,
        "service.peak_queue_depth": float(capacity["peak_queue_depth"]),
        "service.busy_s": capacity["busy_seconds"] / passes,
    }


# ----------------------------------------------------------------------- spans
@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    #: Index of the enclosing span on the same thread (-1 at top level).
    parent: int
    #: Work the call did (rows priced, events replayed, ...), when known.
    size: float

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Spans:
    """In-memory span store; one per traced run."""

    def __init__(self) -> None:
        self.records: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        fn: Callable,
        name: "str | Callable[[tuple, dict], str]",
        size: Optional[Callable[[tuple, dict, Any], float]] = None,
    ) -> Callable:
        """``fn`` recording one span per call (``size`` measures the call's work)."""
        spans = self

        def wrapper(*args, **kwargs):
            label = name if isinstance(name, str) else name(args, kwargs)
            stack = spans._stack()
            with spans._lock:
                index = len(spans.records)
                spans.records.append(Span(label, 0.0, 0.0, stack[-1] if stack else -1, 0.0))
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            amount = float(size(args, kwargs, result)) if size is not None else 0.0
            spans.records[index] = Span(label, start, end, spans.records[index].parent, amount)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- reads ------------------------------------------------------------
    def named(self, name: str) -> List[Span]:
        return [s for s in self.records if s.name == name]

    def seconds(self, name: str) -> List[float]:
        return [s.seconds for s in self.named(name)]

    def total(self, *names: str) -> float:
        return sum(s.seconds for s in self.records if s.name in names)

    def size(self, *names: str) -> float:
        return sum(s.size for s in self.records if s.name in names)

    def rate(self, *names: str) -> float:
        """Work per second over every span of ``names`` (0 without spans)."""
        seconds = self.total(*names)
        return self.size(*names) / seconds if seconds > 0 else 0.0

    def per_unit_ns(self, *names: str) -> float:
        """Nanoseconds per unit of work over every span of ``names``."""
        amount = self.size(*names)
        return self.total(*names) / amount * 1e9 if amount > 0 else 0.0

    def within(self, windows: Sequence[Tuple[float, float]]) -> "Spans":
        """The spans that started inside one of the ``(start, end)`` windows.

        Parent links are dropped: the copy is for statistics, not summaries.
        """
        kept = Spans()
        kept.records = [
            Span(s.name, s.start, s.end, -1, s.size)
            for s in self.records
            if any(a <= s.start <= b for a, b in windows)
        ]
        return kept

    def window_totals(self, windows: Sequence[Tuple[float, float]], *names: str) -> List[float]:
        """Seconds spent in spans of ``names`` within each window."""
        return [
            sum(s.seconds for s in self.records if s.name in names and a <= s.start <= b)
            for a, b in windows
        ]

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: count, total and self seconds, median and p90 seconds."""
        child_seconds = [0.0] * len(self.records)
        for span in self.records:
            if span.parent >= 0:
                child_seconds[span.parent] += span.seconds
        grouped: Dict[str, List[Tuple[float, float]]] = {}
        for index, span in enumerate(self.records):
            grouped.setdefault(span.name, []).append(
                (span.seconds, span.seconds - child_seconds[index])
            )
        return {
            name: {
                "count": len(rows),
                "total_s": sum(r[0] for r in rows),
                "self_s": sum(r[1] for r in rows),
                "p50_s": median([r[0] for r in rows]),
                "p90_s": percentile([r[0] for r in rows], 90.0),
            }
            for name, rows in sorted(grouped.items())
        }


# --------------------------------------------------------------------- patches
@dataclass(frozen=True)
class Patch:
    """One public function to wrap in a span: ``owner.attr``.

    ``owner`` is a module or a class; class attributes that are
    ``classmethod`` objects are wrapped as classmethods.
    """

    owner: Any
    attr: str
    name: "str | Callable[[tuple, dict], str]"
    size: Optional[Callable[[tuple, dict, Any], float]] = None


@contextmanager
def patched(spans: Spans, patches: Sequence[Patch]) -> Iterator[None]:
    """Install span wrappers for ``patches``; restore the originals on exit."""
    saved = []
    try:
        for patch in patches:
            if isinstance(patch.owner, type):
                original = patch.owner.__dict__[patch.attr]
            else:
                original = getattr(patch.owner, patch.attr)
            saved.append((patch.owner, patch.attr, original))
            if isinstance(original, classmethod):
                replacement: Any = classmethod(
                    spans.wrap(original.__func__, patch.name, patch.size)
                )
            else:
                replacement = spans.wrap(original, patch.name, patch.size)
            setattr(patch.owner, patch.attr, replacement)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def rows_of(args: tuple, kwargs: dict, result: Any) -> float:
    """Size callback: rows of the table or stack passed after ``self``."""
    return float(len(args[1]))


def result_rows(args: tuple, kwargs: dict, result: Any) -> float:
    """Size callback: rows of the returned table."""
    return float(len(result))
