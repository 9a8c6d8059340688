"""Simulation session: the single entry point for every latency number.

A :class:`SimulationSession` owns, for one :class:`~repro.ppm.config.PPMConfig`:

* the **backend set** — named :class:`~repro.sim.backend.LatencyBackend`
  instances resolved from specs (``"lightnobel"``, ``"h100-chunk"``, a
  :class:`~repro.hardware.config.LightNobelConfig`, ...),
* the **report memo** — one :class:`~repro.report.SimReport` per
  (backend config, length, recycles) point, in memory.  It is the one cache
  of reports: a session touches no file.

Operator tables are not the session's: every miss prices the stacked table of
its lengths from :func:`~repro.ppm.op_table.get_stacked_table`, whose
process-wide LRU is the only table cache (a table is one Horner evaluation of
the config's fitted cubics).
:meth:`SimulationSession.simulate_batch` evaluates all requested backends on
one stack of the distinct lengths — the loop the paper's Figs. 12–16 all run.
Every number a caller reads, a bare total included, is read off a memoized
report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..ppm.config import PPMConfig
from ..ppm.op_table import get_stacked_table
from ..report import SimReport
from .backend import LatencyBackend, create_backend

#: Backends a session resolves by default.
DEFAULT_BACKENDS: Tuple[str, ...] = ("lightnobel", "h100")


@dataclass
class BatchResult:
    """Result of one :meth:`SimulationSession.simulate_batch` call."""

    lengths: List[int]
    backends: List[str]
    reports: Dict[Tuple[str, int], SimReport] = field(default_factory=dict)

    def report(self, backend: str, sequence_length: int) -> SimReport:
        return self.reports[(backend, int(sequence_length))]

    def totals(self, backend: str) -> List[float]:
        """Total seconds per input length (aligned with ``lengths``)."""
        return [self.report(backend, n).total_seconds for n in self.lengths]

    def folding_seconds(self, backend: str) -> List[float]:
        return [self.report(backend, n).folding_block_seconds for n in self.lengths]

    def mean_total_seconds(self, backend: str) -> float:
        values = self.totals(backend)
        return sum(values) / len(values) if values else 0.0

    def mean_folding_seconds(self, backend: str) -> float:
        values = self.folding_seconds(backend)
        return sum(values) / len(values) if values else 0.0

    def any_out_of_memory(self, backend: str) -> bool:
        return any(self.report(backend, n).out_of_memory for n in self.lengths)


def session_for(
    ppm_config: Optional[PPMConfig],
    session: Optional["SimulationSession"],
    backends: Iterable = (),
) -> "SimulationSession":
    """Reconcile an optional caller-supplied session with a PPM config.

    Figure entry points accept both; passing a session alongside a
    *different* config would silently simulate the session's config, so the
    mismatch raises instead.  With no session, a fresh one is built over
    ``ppm_config`` (default: the paper configuration).
    """
    if session is not None:
        if ppm_config is not None and ppm_config != session.ppm_config:
            raise ValueError(
                "ppm_config does not match session.ppm_config; pass one or the other"
            )
        return session
    return SimulationSession(ppm_config=ppm_config or PPMConfig.paper(), backends=backends)


def refuse_disk_cache(use_disk_cache: bool) -> None:
    """Reject any ``use_disk_cache`` but ``False``: the report disk cache is gone."""
    if use_disk_cache is not False:
        raise ValueError(
            "use_disk_cache: the report disk cache was removed; the session's "
            "in-memory report memo is the one cache of reports"
        )


class SimulationSession:
    """Backend registry + report memo, in memory only.

    ``use_disk_cache`` stays only for callers that still pass
    ``use_disk_cache=False`` (the perfbench workloads); ``False`` is its one
    accepted value, and anything else raises :class:`ValueError`.
    """

    def __init__(
        self,
        ppm_config: Optional[PPMConfig] = None,
        backends: Iterable = DEFAULT_BACKENDS,
        include_recycles: bool = False,
        *,
        use_disk_cache: bool = False,
    ) -> None:
        refuse_disk_cache(use_disk_cache)
        self.ppm_config = ppm_config or PPMConfig.paper()
        self.include_recycles = include_recycles
        self._backends: Dict[str, LatencyBackend] = {}
        self._reports: Dict[Tuple[str, int, bool], SimReport] = {}
        self._backend_digests: Dict[str, str] = {}
        #: id(backend) -> registered name, the O(1) inverse of ``_backends``
        #: (the per-spec reverse scan was O(backends) on every simulate call).
        self._names_by_id: Dict[int, str] = {}
        self._spec_memo: Dict[object, LatencyBackend] = {}
        for spec in backends:
            self.add_backend(spec)

    # ---------------------------------------------------------------- backends
    def add_backend(self, spec, name: Optional[str] = None) -> LatencyBackend:
        """Resolve ``spec`` and register it under ``name`` (default: its own).

        Without an explicit ``name``, a default name already bound to a
        *different* configuration is disambiguated with the config digest
        (two ``LightNobelConfig`` specs in one batch must not collapse into
        one registration), and a registration with an identical digest is
        reused as-is.  An explicit ``name`` always (re)binds that name.

        A caller's backend instance is never renamed: its reports are
        relabeled to the registered name on read.  An engine the session
        built from a spec is its own, so on a collision it takes the derived
        name and prices under it (a relabel per read costs ~3 µs, about a
        tenth of a served DSE point).
        """
        backend = create_backend(spec, self.ppm_config)
        digest = backend.config_digest()
        key = name or backend.name
        if name is None:
            existing = self._backend_digests.get(key)
            if existing == digest:
                return self._backends[key]
            if existing is not None:
                key = f"{backend.name}-{digest}"
                if backend is not spec:
                    backend.name = key
        self._backends[key] = backend
        self._backend_digests[key] = digest
        self._names_by_id[id(backend)] = key
        return backend

    def _name_of(self, backend: LatencyBackend) -> Optional[str]:
        """Registered name of a backend instance, or ``None`` if unregistered.

        O(1) through the reverse map; falls back to a linear scan only if the
        map went stale (an explicit-name rebinding displaced the instance).
        """
        name = self._names_by_id.get(id(backend))
        if name is not None and self._backends.get(name) is backend:
            return name
        return next((k for k, v in self._backends.items() if v is backend), None)

    def backend(self, spec) -> LatencyBackend:
        """Look up a registered backend by name, or resolve-and-register it."""
        if isinstance(spec, str):
            if spec in self._backends:
                return self._backends[spec]
            if spec.lower() in self._backends:
                return self._backends[spec.lower()]
            return self.add_backend(spec.lower())
        # Memoize hashable specs (frozen configs, backend instances) so a
        # repeated non-string spec does not rebuild a simulator per call.
        try:
            cached = self._spec_memo.get(spec)
            hashable = True
        except TypeError:
            cached, hashable = None, False
        if cached is not None:
            # Guard against displacement by a later explicit-name rebinding:
            # only serve the memo while the instance is still registered.
            if self._name_of(cached) is not None:
                return cached
        backend = self.add_backend(spec)
        if hashable:
            self._spec_memo[spec] = backend
        return backend

    def backend_names(self) -> Tuple[str, ...]:
        return tuple(self._backends)

    # -------------------------------------------------------------- simulation
    def simulate(
        self,
        sequence_length: int,
        backend="lightnobel",
        include_recycles: Optional[bool] = None,
    ) -> SimReport:
        """Latency report of one backend at one sequence length (memoized).

        A miss prices the length's cached one-segment stack.
        """
        report = self.peek_report(backend, sequence_length, include_recycles)
        if report is None:
            name, memo_key = self._memo_key(backend, sequence_length, include_recycles)
            self._price(name, [int(sequence_length)], memo_key[2])
            report = self._labeled(self._reports[memo_key], name)
        return report

    def _memo_key(self, spec, sequence_length: int, include_recycles: Optional[bool]):
        """(digest, length, recycles) memo key plus the resolved backend name.

        Keyed by the backend's config digest, not its name: re-registering a
        different config under an existing name must not serve stale reports.
        """
        name = self._name_of(self.backend(spec))
        include = self.include_recycles if include_recycles is None else include_recycles
        return name, (self._backend_digests[name], int(sequence_length), bool(include))

    @staticmethod
    def _labeled(report: SimReport, name: str) -> SimReport:
        """Report relabeled to the requested registration name.

        The memo is keyed by config digest, so two registrations of the same
        configuration under different names share one entry; the label must
        still follow the name the caller asked for (per-backend serving stats
        bucket by it).  The relabeled copy shares what encoders derived from
        the memo's report (:meth:`SimReport.relabeled`).
        """
        return report if report.backend == name else report.relabeled(name)

    def _resolve(self, spec) -> Tuple[str, str]:
        """(registered name, config digest) of a backend spec."""
        name = self._name_of(self.backend(spec))
        return name, self._backend_digests[name]

    def _peek(
        self, name: str, digest: str, sequence_length: int, include_recycles: Optional[bool]
    ) -> Optional[SimReport]:
        """The session's one memo lookup: one point of a resolved backend."""
        include = self.include_recycles if include_recycles is None else include_recycles
        report = self._reports.get((digest, int(sequence_length), bool(include)))
        if report is None or report.backend == name:  # _labeled, inlined on this per-point path
            return report
        return report.relabeled(name)

    def peek_report(
        self,
        backend="lightnobel",
        sequence_length: int = 0,
        include_recycles: Optional[bool] = None,
    ) -> Optional[SimReport]:
        """Memoized report if one exists, without simulating.

        One point of :meth:`peek_reports`; an unresolvable spec raises.
        """
        return self._peek(*self._resolve(backend), sequence_length, include_recycles)

    def peek_reports(
        self, points: Iterable[Tuple[object, int, Optional[bool]]]
    ) -> List[object]:
        """Memoized reports of (spec, length, recycles) points, without simulating.

        Each distinct spec object is resolved to its registration once, so a
        point costs one memo lookup.  Entry ``i``
        is point ``i``'s report, ``None`` for a miss, or the exception
        resolving its spec raised — one bad spec never fails the other
        points.  The serving layer peeks a submitted batch's distinct keys
        with this under one session-lock hold.
        """
        resolved: Dict[int, object] = {}
        out: List[object] = []
        for spec, sequence_length, include_recycles in points:
            entry = resolved.get(id(spec))
            if entry is None:
                try:
                    entry = self._resolve(spec)
                except Exception as exc:
                    entry = exc
                resolved[id(spec)] = entry
            if isinstance(entry, Exception):
                out.append(entry)
            else:
                out.append(self._peek(entry[0], entry[1], sequence_length, include_recycles))
        return out

    def _fill_from_stack(
        self, name: str, lengths: Sequence[int], include: bool
    ) -> None:
        """Seed the memo for every length ``name`` is missing, in ONE engine pass.

        Lengths already memoized are skipped; the remaining ones are priced
        by :meth:`_price`.
        """
        digest = self._backend_digests[name]
        missing = [n for n in lengths if (digest, n, include) not in self._reports]
        if missing:
            self._price(name, missing, include)

    def _price(self, name: str, lengths: Sequence[int], include: bool) -> None:
        """Price distinct ``lengths`` with one ``simulate_stack`` call.

        The session's only pricing site: every segment report is seeded into
        the memo.
        """
        stack = get_stacked_table(self.ppm_config, lengths, include)
        reports = self._backends[name].simulate_stack(stack)
        digest = self._backend_digests[name]
        for n in lengths:
            self._reports[(digest, int(n), bool(include))] = reports[stack.segment_index(n)]

    def simulate_batch(
        self,
        lengths: Iterable[int],
        backends: Optional[Sequence] = None,
        include_recycles: Optional[bool] = None,
    ) -> BatchResult:
        """Evaluate every backend on every length in one stacked pass per backend.

        Distinct lengths are stacked into one
        :class:`~repro.ppm.op_table.StackedOperatorTable` (LRU-cached per
        distinct-length set) and each backend prices the whole mix with a
        single vectorized evaluation; results for repeated lengths — and any
        length already memoized — are served from the memo.
        """
        lengths = [int(n) for n in lengths]
        include = (
            self.include_recycles if include_recycles is None else bool(include_recycles)
        )
        specs = list(backends) if backends is not None else list(self._backends)
        resolved_names = [self._name_of(self.backend(spec)) for spec in specs]
        distinct = list(dict.fromkeys(lengths))  # preserve order, dedupe
        for name in dict.fromkeys(resolved_names):
            self._fill_from_stack(name, distinct, include)
        # Every (backend, length) is in the memo now: read it directly.
        digests = [self._backend_digests[name] for name in resolved_names]
        result = BatchResult(lengths=lengths, backends=resolved_names)
        for n in distinct:
            for name, digest in zip(resolved_names, digests):
                result.reports[(name, n)] = self._labeled(
                    self._reports[(digest, n, include)], name
                )
        return result

    # -------------------------------------------------------------- accounting
    def stats(self) -> Dict[str, object]:
        """Memoization statistics (for benchmarks and debugging)."""
        return {
            "reports_in_memory": len(self._reports),
            "backends": self.backend_names(),
        }
