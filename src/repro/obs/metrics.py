"""Typed metric primitives: Counter / Gauge / Histogram behind a registry.

The serving and cluster layers each grew ad-hoc health reporting (plain int
counters, latency reservoirs, bespoke JSON blobs).  This module gives them
one vocabulary — the Prometheus data model, scoped down to what the repo
needs and implemented on the stdlib:

* :class:`Counter` — monotone float, ``inc()`` only.
* :class:`Gauge` — settable float, ``set()`` / ``inc()`` / ``dec()``.
* :class:`Histogram` — **fixed-size** exponential buckets.  Observations
  land in ``bisect``-indexed cumulative buckets, so memory is constant no
  matter how many requests flow through (the property that replaces the
  serving layer's bounded-but-sampled percentile reservoirs), and
  :meth:`Histogram.quantile` keeps the hardened edge contract of
  :func:`repro.serving.stats.percentile` (empty -> 0.0, q=0 -> exact min,
  q=100 -> exact max, NaN / out-of-range -> ``ValueError``).

Families support Prometheus-style labels: ``family.labels(backend="h100")``
returns (creating on first use) a child holding its own storage; an
unlabeled family is its own single child.  All mutation is lock-protected
per family and cheap enough for the serving hot path (one uncontended lock
plus a C-level ``bisect`` per observation).

A :class:`MetricsRegistry` maps unique metric names to families and is what
:func:`repro.obs.prom.render` walks.  The module-level :data:`REGISTRY` is
the process-wide default for ad-hoc user metrics; components that may be
instantiated many times per process (e.g. ``ServiceStats``) build private
families with ``registry=None`` and contribute them to a transient registry
at scrape time, so two live services never collide on a name.
"""

from __future__ import annotations

import math
import re
import threading
from bisect import bisect_left
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "exponential_buckets",
    "DEFAULT_LATENCY_BUCKETS",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def exponential_buckets(
    start: float = 1e-6, factor: float = 2.0, count: int = 40
) -> Tuple[float, ...]:
    """``count`` geometric upper bounds ``start * factor**i`` (``+Inf`` is implicit).

    The default — 40 doublings from 1 µs — spans 1 µs .. ~9 minutes, wide
    enough for every latency this repo measures (microsecond memo hits to
    multi-minute cold N=1536 simulations) at ≤ 2x relative quantile error.
    """
    if start <= 0.0:
        raise ValueError("start must be positive")
    if factor <= 1.0:
        raise ValueError("factor must be > 1")
    if count < 1:
        raise ValueError("count must be >= 1")
    return tuple(start * factor**i for i in range(count))


#: The repo-wide default latency bucket ladder (see :func:`exponential_buckets`).
DEFAULT_LATENCY_BUCKETS = exponential_buckets()


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(f"invalid metric name: {name!r}")
    return name


def _check_labelnames(labelnames: Sequence[str]) -> Tuple[str, ...]:
    names = tuple(labelnames)
    for label in names:
        if not _LABEL_RE.match(label) or label.startswith("__"):
            raise ValueError(f"invalid label name: {label!r}")
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate label names: {names!r}")
    return names


class _Family:
    """Shared family plumbing: naming, labels, child storage, registration."""

    kind = "untyped"

    def __init__(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        registry: Optional["MetricsRegistry"] = None,
    ):
        self.name = _check_name(name)
        self.help = help
        self.labelnames = _check_labelnames(labelnames)
        self._lock = threading.Lock()
        self._children: Dict[Tuple[str, ...], "_Family"] = {}
        self._label_values: Tuple[str, ...] = ()
        if registry is not None:
            registry.register(self)

    # -- label handling ----------------------------------------------------
    def labels(self, *values, **kwargs) -> "_Family":
        """Child for one label-value combination (created on first use)."""
        if not self.labelnames:
            raise ValueError(f"{self.name} has no labels")
        if values and kwargs:
            raise ValueError("pass label values positionally or by name, not both")
        if kwargs:
            if set(kwargs) != set(self.labelnames):
                raise ValueError(
                    f"expected labels {self.labelnames}, got {tuple(kwargs)}"
                )
            values = tuple(kwargs[label] for label in self.labelnames)
        else:
            values = tuple(values)
        if len(values) != len(self.labelnames):
            raise ValueError(
                f"expected {len(self.labelnames)} label values, got {len(values)}"
            )
        key = tuple(str(v) for v in values)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.get(key)
                if child is None:
                    child = self._new_child()
                    child._label_values = key
                    self._children[key] = child
        return child

    def _new_child(self) -> "_Family":
        raise NotImplementedError

    def child_items(self) -> List[Tuple[Tuple[str, ...], "_Family"]]:
        """(label values, child) pairs; an unlabeled family is its own child."""
        if not self.labelnames:
            return [((), self)]
        with self._lock:
            return sorted(self._children.items())

    def _require_child(self) -> None:
        if self.labelnames:
            raise ValueError(
                f"{self.name} is a labeled family; call .labels(...) first"
            )


class Counter(_Family):
    """Monotonically increasing value (requests served, errors, retries)."""

    kind = "counter"

    def __init__(self, name, help="", labelnames=(), registry=None):
        super().__init__(name, help, labelnames, registry)
        self._value = 0.0

    def _new_child(self) -> "Counter":
        return Counter(self.name, self.help)

    def inc(self, amount: float = 1.0) -> None:
        self._require_child()
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge(_Family):
    """Instantaneous value (queue depth, in-flight tickets, fleet size)."""

    kind = "gauge"

    def __init__(self, name, help="", labelnames=(), registry=None):
        super().__init__(name, help, labelnames, registry)
        self._value = 0.0

    def _new_child(self) -> "Gauge":
        return Gauge(self.name, self.help)

    def set(self, value: float) -> None:
        self._require_child()
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self._require_child()
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        return self._value


class Histogram(_Family):
    """Constant-memory distribution over fixed exponential buckets.

    ``observe_many()`` is the hot path: one lock per call, then per value one
    C-level ``bisect`` over the bound ladder and four scalar updates
    (``observe`` is its one-value case).  Exact min and max are tracked on the
    side so :meth:`quantile` can honor the ``percentile()`` edge contract
    (q=0 and q=100 are exact) and clamp interior bucket-upper-bound
    estimates into the observed range — which also makes quantiles monotone
    in q.
    """

    kind = "histogram"

    def __init__(
        self,
        name,
        help="",
        labelnames=(),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        registry=None,
    ):
        super().__init__(name, help, labelnames, registry)
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("need at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError("bucket bounds must be strictly increasing")
        if any(math.isnan(b) or math.isinf(b) for b in bounds):
            raise ValueError("bucket bounds must be finite (+Inf is implicit)")
        self._empty(bounds)

    def _empty(self, bounds: Tuple[float, ...]) -> None:
        """Start with no observations over the (validated) ``bounds``."""
        self.bounds = bounds
        # counts[i] <= bounds[i] bucket; counts[-1] is the +Inf overflow.
        self._counts = [0] * (len(bounds) + 1)
        self._sum = 0.0
        self._count = 0
        self._min = math.inf
        self._max = -math.inf

    def _new_child(self) -> "Histogram":
        # The family validated its bounds once; children share that tuple
        # instead of re-checking all of them per label value.
        child = Histogram.__new__(Histogram)
        _Family.__init__(child, self.name, self.help)
        child._empty(self.bounds)
        return child

    def observe(self, value: float) -> None:
        self.observe_many((value,))

    def observe_many(self, values: Sequence[float]) -> None:
        """Observe each of ``values`` in order, under one lock hold.

        The sum accumulates in the same order as one ``observe`` call per
        value would, so both reach the same bits.
        """
        self._require_child()
        bounds, counts = self.bounds, self._counts
        with self._lock:
            for value in values:
                counts[bisect_left(bounds, value)] += 1
                self._sum += value
                if value < self._min:
                    self._min = value
                if value > self._max:
                    self._max = value
            self._count += len(values)

    # -- reads -------------------------------------------------------------
    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    @property
    def min_observed(self) -> Optional[float]:
        return self._min if self._count else None

    @property
    def max_observed(self) -> Optional[float]:
        return self._max if self._count else None

    def bucket_counts(self) -> Tuple[int, ...]:
        """Per-bucket counts (last entry is the ``+Inf`` overflow bucket)."""
        with self._lock:
            return tuple(self._counts)

    def cumulative(self) -> Tuple[int, ...]:
        """Cumulative counts per bound plus the ``+Inf`` total (for exposition)."""
        counts = self.bucket_counts()
        out = []
        running = 0
        for c in counts:
            running += c
            out.append(running)
        return tuple(out)

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile estimate; `percentile()`'s edge contract.

        Interior quantiles return the upper bound of the bucket holding the
        nearest-rank sample, clamped to ``[min, max]`` observed — an upper
        estimate of the true value, never below it, off by at most one
        bucket's relative width.
        """
        if math.isnan(q) or not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        with self._lock:
            if not self._count:
                return 0.0
            if q == 0.0:
                return self._min
            if q == 100.0:
                return self._max
            rank = max(1, math.ceil(q / 100.0 * self._count))
            running = 0
            index = len(self._counts) - 1
            for i, c in enumerate(self._counts):
                running += c
                if running >= rank:
                    index = i
                    break
            if index >= len(self.bounds):
                return self._max  # nearest rank fell in the overflow bucket
            estimate = self.bounds[index]
            return min(max(estimate, self._min), self._max)


class MetricsRegistry:
    """Name -> family map that exposition renders; names must be unique."""

    def __init__(self):
        self._lock = threading.Lock()
        self._families: Dict[str, _Family] = {}

    def register(self, family: _Family) -> _Family:
        with self._lock:
            existing = self._families.get(family.name)
            if existing is not None and existing is not family:
                raise ValueError(f"duplicate metric name: {family.name}")
            self._families[family.name] = family
        return family

    def get(self, name: str) -> Optional[_Family]:
        return self._families.get(name)

    def collect(self) -> List[_Family]:
        """Registered families, sorted by name (a stable exposition order)."""
        with self._lock:
            return [self._families[name] for name in sorted(self._families)]

    def clear(self) -> None:
        with self._lock:
            self._families.clear()

    def __len__(self) -> int:
        return len(self._families)

    def __iter__(self) -> Iterator[_Family]:
        return iter(self.collect())


#: Process-wide default registry for ad-hoc user metrics.  Pass
#: ``registry=REGISTRY`` (or any registry) at family construction; families
#: built with ``registry=None`` stay private until registered explicitly.
REGISTRY = MetricsRegistry()
