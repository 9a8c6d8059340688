"""Fleet descriptions: multi-chip backends and multi-node worker groups.

Two layers sit between a single-chip :class:`~repro.sim.backend.LatencyBackend`
and a cluster:

* :class:`MultiChipBackend` / :class:`MultiChipVariant` — a *node*: ``chips``
  copies of one backend sharding each request, composed from the per-chip
  :class:`~repro.report.SimReport` plus all-gather costs from
  :class:`~repro.hardware.interconnect.ChipLinkSpec` (the package-scale
  crossbar model).  The variant is a frozen, hashable spec, so multi-chip
  design points memoize and coalesce exactly like the single-chip variants
  do.
* :class:`FleetSpec` / :class:`WorkerGroup` — the fleet: how many workers of
  which backend (possibly heterogeneous), each with an hourly cost so a
  :class:`~repro.cluster.des.ClusterReport` can price SLO attainment in
  dollars per million requests.

Nothing here simulates traffic — a fleet is pure description; the
discrete-event replay (:mod:`repro.cluster.des`) pulls per-request service
times for each group's backend through the shared simulation session.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Any, List, Optional, Tuple

from .._digest import stable_digest
from ..hardware.interconnect import ChipLinkSpec
from ..ppm.config import PPMConfig
from ..ppm.op_table import StackedOperatorTable, get_stacked_table
from ..report import SimReport
from ..sim.backend import LatencyBackend, create_backend


class WorkerHealth(Enum):
    """Lifecycle state of one worker during a closed-loop replay.

    ``HEALTHY`` serves traffic at nominal speed; ``WARMING`` is a restarted
    worker whose first request pays the crash's warm-up surcharge; ``DEAD``
    is crashed and (maybe) awaiting restart — still provisioned, still
    costing money, serving nothing; ``RETIRED`` was removed by the
    autoscaler and stopped costing the moment it left.  Straggling is a
    *window* property of the fault schedule, not a state transition — a
    straggler is HEALTHY hardware running slow.
    """

    HEALTHY = "healthy"
    WARMING = "warming"
    DEAD = "dead"
    RETIRED = "retired"


class MultiChipBackend:
    """``chips`` copies of one backend serving a single request cooperatively.

    The pair representation is sharded row-wise across the chips: compute
    phases scale down by the chip count, while every folding block pays
    ``syncs_per_block`` all-gathers of the full pair tensor over the package
    interconnect.  Composition keeps the repo-wide determinism bar — the
    report is arithmetic over the inner :class:`~repro.report.SimReport`,
    so multi-chip numbers are exactly reproducible wherever the single-chip
    numbers are.

    Memory relief from sharding is *not* modeled: the inner backend's
    out-of-memory verdict, GPU or accelerator, passes through unchanged.
    """

    def __init__(
        self,
        inner: LatencyBackend,
        chips: int = 2,
        link: ChipLinkSpec = ChipLinkSpec(),
        name: Optional[str] = None,
    ) -> None:
        if chips < 1:
            raise ValueError("chips must be >= 1")
        self.inner = inner
        self.chips = int(chips)
        self.link = link
        self.ppm_config = inner.ppm_config
        self.name = name or f"{inner.name}-x{self.chips}"

    def communication_seconds(self, sequence_length: int) -> float:
        """Interconnect time per request at ``sequence_length`` residues."""
        cfg = self.ppm_config
        pair_bytes = (
            float(sequence_length) ** 2 * cfg.pair_dim * cfg.activation_bytes
        )
        syncs = cfg.num_blocks * self.link.syncs_per_block
        return syncs * self.link.allgather_seconds(pair_bytes, self.chips)

    def simulate_stack(self, stack: StackedOperatorTable) -> List[SimReport]:
        """The inner backend's per-segment reports, sharded and all-gathered."""
        return [self._shard(inner) for inner in self.inner.simulate_stack(stack)]

    def _shard(self, inner: SimReport) -> SimReport:
        comm = self.communication_seconds(inner.sequence_length)
        scale = 1.0 / self.chips
        details = dict(inner.details)
        details.update(
            {
                "chips": float(self.chips),
                "communication_seconds": comm,
                "single_chip_seconds": inner.total_seconds,
            }
        )
        return SimReport(
            backend=self.name,
            sequence_length=inner.sequence_length,
            total_seconds=inner.total_seconds * scale + comm,
            phase_seconds={k: v * scale for k, v in inner.phase_seconds.items()},
            subphase_seconds={k: v * scale for k, v in inner.subphase_seconds.items()},
            out_of_memory=inner.out_of_memory,
            details=details,
        )

    def degraded_communication_seconds(
        self, sequence_length: int, bandwidth_factor: float
    ) -> float:
        """Interconnect time when the link runs at ``bandwidth_factor`` of nominal.

        The whole collective cost (port bandwidth *and* protocol latency)
        scales by ``1 / bandwidth_factor`` — a flaky link retries its
        protocol handshakes too.  The degraded-link fault windows of
        :class:`repro.cluster.faults.DegradedLinkWindow` charge exactly this
        delta over the healthy prefetch, so faulty replays stay pure
        arithmetic over prefetched numbers.
        """
        if not 0.0 < bandwidth_factor <= 1.0:
            raise ValueError("bandwidth_factor must be in (0, 1]")
        return self.communication_seconds(sequence_length) / bandwidth_factor

    def parallel_efficiency(self, sequence_length: int) -> float:
        """Achieved speedup over one chip, divided by the chip count.

        Read off the node's own report (its total and the single-chip total
        it composes), so the efficiency can never drift from the reported
        numbers.
        """
        (report,) = self.simulate_stack(get_stacked_table(self.ppm_config, [sequence_length]))
        multi = report.total_seconds
        single = report.details["single_chip_seconds"]
        return (single / multi) / self.chips if multi > 0 else 0.0

    def config_digest(self) -> str:
        return stable_digest(
            type(self).__name__,
            {
                "inner": self.inner.config_digest(),
                "chips": self.chips,
                "link": self.link,
            },
        )


@dataclass(frozen=True)
class MultiChipVariant:
    """Picklable spec for a multi-chip node backend (sweep fan-out friendly).

    ``base`` is any spec :func:`repro.sim.backend.create_backend` resolves —
    keep it a backend name or frozen variant so the spec ships across
    process boundaries.
    """

    base: Any = "lightnobel"
    chips: int = 2
    link: ChipLinkSpec = ChipLinkSpec()
    name: Optional[str] = None

    def build(self, ppm_config: Optional[PPMConfig] = None) -> MultiChipBackend:
        return MultiChipBackend(
            inner=create_backend(self.base, ppm_config),
            chips=self.chips,
            link=self.link,
            name=self.name,
        )


# ------------------------------------------------------------------ the fleet
#: Reference hourly worker cost by base backend name (USD/hour, cloud-shaped:
#: GPUs at on-demand rates, the accelerator at an amortized-ASIC rate).  A
#: :class:`WorkerGroup` may override per group; multi-chip nodes multiply the
#: base rate by their chip count.
DEFAULT_COST_PER_HOUR = {
    "lightnobel": 1.6,
    "a100": 4.1,
    "h100": 8.2,
}
FALLBACK_COST_PER_HOUR = 4.0


def _base_cost(spec: Any) -> float:
    """Hourly cost of one worker built from ``spec`` (default table lookup)."""
    if isinstance(spec, MultiChipVariant):
        return _base_cost(spec.base) * spec.chips
    label = spec if isinstance(spec, str) else getattr(spec, "name", None) or ""
    label = str(label).lower()
    if label.endswith("-chunk"):
        label = label[: -len("-chunk")]
    return DEFAULT_COST_PER_HOUR.get(label, FALLBACK_COST_PER_HOUR)


@dataclass(frozen=True)
class WorkerGroup:
    """``count`` identical workers of one backend spec."""

    backend: Any = "lightnobel"
    count: int = 1
    cost_per_hour: Optional[float] = None

    def __post_init__(self) -> None:
        if int(self.count) < 1:
            raise ValueError("worker count must be >= 1")

    @property
    def hourly_cost(self) -> float:
        per_worker = (
            float(self.cost_per_hour)
            if self.cost_per_hour is not None
            else _base_cost(self.backend)
        )
        return per_worker * self.count


@dataclass(frozen=True)
class FleetSpec:
    """A named, possibly heterogeneous collection of worker groups."""

    groups: Tuple[WorkerGroup, ...] = (WorkerGroup(),)
    name: str = ""

    def __post_init__(self) -> None:
        if not self.groups:
            raise ValueError("a fleet needs at least one worker group")

    @classmethod
    def homogeneous(
        cls,
        backend: Any = "lightnobel",
        count: int = 1,
        cost_per_hour: Optional[float] = None,
        name: str = "",
    ) -> "FleetSpec":
        return cls(
            groups=(WorkerGroup(backend=backend, count=count, cost_per_hour=cost_per_hour),),
            name=name or f"{_group_label(backend)}x{count}",
        )

    @property
    def num_workers(self) -> int:
        return sum(g.count for g in self.groups)

    @property
    def cost_per_hour(self) -> float:
        return sum(g.hourly_cost for g in self.groups)

    def with_size(self, count: int) -> "FleetSpec":
        """A homogeneous fleet rescaled to ``count`` workers (planner sweeps)."""
        if len(self.groups) != 1:
            raise ValueError("with_size only applies to homogeneous fleets")
        group = replace(self.groups[0], count=int(count))
        return FleetSpec(groups=(group,), name=f"{_group_label(group.backend)}x{count}")

    def worker_groups(self) -> List[int]:
        """Group index of every worker, in deterministic worker-id order."""
        assignment: List[int] = []
        for index, group in enumerate(self.groups):
            assignment.extend([index] * group.count)
        return assignment

    def group_labels(self) -> Tuple[str, ...]:
        """Per-group display labels, disambiguated when two groups share one.

        Two groups of the same backend (differing only in count or cost) are
        legal; suffixing duplicates keeps per-group report mappings (e.g.
        :attr:`~repro.cluster.des.ClusterReport.utilization`) lossless.
        """
        raw = [_group_label(g.backend) for g in self.groups]
        if len(set(raw)) == len(raw):
            return tuple(raw)
        return tuple(f"{label}#{index}" for index, label in enumerate(raw))

    def config_digest(self) -> str:
        return stable_digest(
            "FleetSpec",
            {
                "groups": [
                    (_spec_digest(g.backend), g.count, g.hourly_cost)
                    for g in self.groups
                ],
            },
        )


def _spec_digest(spec: Any) -> str:
    """Content hash of a worker group's backend spec (fleet digest key).

    Labels alone under-key (two ``MultiChipVariant`` nodes differing only in
    link parameters share a label but replay differently), so prefer the
    spec's own ``config_digest``, then a structural hash of the frozen spec,
    and fall back to the label only for opaque objects.
    """
    digest = getattr(spec, "config_digest", None)
    if callable(digest):
        return f"{type(spec).__name__}:{digest()}"
    try:
        return stable_digest("fleet-backend-spec", spec)
    except TypeError:
        return _group_label(spec)


def _group_label(spec: Any) -> str:
    """Stable display label for a worker group's backend spec."""
    if isinstance(spec, str):
        return spec.lower()
    name = getattr(spec, "name", None)
    if isinstance(name, str) and name:
        return name
    if isinstance(spec, MultiChipVariant):
        return f"{_group_label(spec.base)}-x{spec.chips}"
    return type(spec).__name__.lower()
