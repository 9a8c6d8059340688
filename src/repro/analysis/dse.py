"""Design-space exploration: AAQ schemes (Fig. 11) and hardware config (Fig. 12)."""

from __future__ import annotations

import pickle
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # optional routing targets; avoid imports at runtime
    from ..cluster.planner import CapacityPlan
    from ..cluster.trace import RequestTrace
    from ..serving.service import LatencyService

from ..core.aaq import AAQConfig
from ..core.schemes import lightnobel_aaq
from ..core.token_quant import TokenQuantConfig, token_quantization_rmse
from ..hardware.config import LightNobelConfig
from ..sim.session import SimulationSession
from ..ppm.config import PPMConfig
from ..ppm.model import ProteinStructureModel
from ..ppm.quantized import QuantizedPPM
from ..metrics.tm_score import tm_score_structures
from ..proteins.structure import ProteinStructure

#: Outlier counts explored in Fig. 11.
OUTLIER_SWEEP: Sequence[int] = (128, 64, 32, 16, 8, 4, 0)

#: Inlier precisions explored in Fig. 11.
PRECISION_SWEEP: Sequence[int] = (4, 8)


@dataclass(frozen=True)
class QuantDSEPoint:
    """One point of the Fig. 11 sweep for one activation group."""

    group: str
    inlier_bits: int
    outlier_count: int
    tm_score: float
    bytes_per_token: float
    efficiency: float


def efficiency_metric(tm: float, baseline_tm: float, bytes_per_token: float, hidden_dim: int) -> float:
    """Fig. 11 efficiency: compression gain, sharply discounted by TM-score loss.

    The paper defines efficiency from the quantized-token memory size and the
    resulting TM-score, "decreasing significantly as TM-Score drops".  We use
    ``compression_ratio * max(0, 1 - 25 * tm_drop)``: a configuration that
    keeps accuracy gets credit proportional to how much it shrinks the token;
    one that loses more than ~0.04 TM-score gets no credit.
    """
    fp16_bytes = hidden_dim * 2.0
    compression = fp16_bytes / bytes_per_token
    tm_drop = max(0.0, baseline_tm - tm)
    penalty = max(0.0, 1.0 - 25.0 * tm_drop)
    return compression * penalty / 10.0


#: Per-worker-process model memo for the sharded Fig. 11 sweep, keyed by
#: (PPM config digest, seed).  Bounded FIFO, so a long-lived worker sweeping
#: many configs does not pin models forever.
_QDSE_WORKER_MODELS: Dict[Tuple[str, int], ProteinStructureModel] = {}
_QDSE_WORKER_MODEL_LIMIT = 4


def _qdse_worker_model(ppm_config: PPMConfig, seed: int) -> ProteinStructureModel:
    key = (ppm_config.config_digest(), int(seed))
    model = _QDSE_WORKER_MODELS.get(key)
    if model is None:
        while len(_QDSE_WORKER_MODELS) >= _QDSE_WORKER_MODEL_LIMIT:
            _QDSE_WORKER_MODELS.pop(next(iter(_QDSE_WORKER_MODELS)))
        model = ProteinStructureModel(ppm_config, seed=seed)
        _QDSE_WORKER_MODELS[key] = model
    return model


#: Sweep context installed once per worker process by the pool initializer —
#: the targets (coordinate arrays) and config ship once per worker, not once
#: per grid point.
_QDSE_WORKER_CONTEXT: Dict[str, Tuple[PPMConfig, int, List[ProteinStructure]]] = {}


def _qdse_worker_init(
    ppm_config: PPMConfig, seed: int, targets: List[ProteinStructure]
) -> None:
    _QDSE_WORKER_CONTEXT["sweep"] = (ppm_config, seed, targets)


def _qdse_point_tm(aaq: AAQConfig) -> float:
    """Average TM-score of one AAQ configuration (runs in a pool worker).

    Model construction is seed-deterministic, so a worker's rebuilt model is
    bit-identical to the parent's and pooled ≡ serial holds exactly.
    """
    ppm_config, seed, targets = _QDSE_WORKER_CONTEXT["sweep"]
    model = _qdse_worker_model(ppm_config, seed)
    quantized = QuantizedPPM(model, lightnobel_aaq(aaq))
    scores = [
        tm_score_structures(quantized.predict(target).structure, target)
        for target in targets
    ]
    return float(np.mean(scores))


class QuantizationDSE:
    """Fig. 11: sweep inlier precision and outlier count per activation group."""

    def __init__(
        self,
        targets: List[ProteinStructure],
        config: Optional[PPMConfig] = None,
        seed: int = 0,
        base_config: Optional[AAQConfig] = None,
    ) -> None:
        if not targets:
            raise ValueError("at least one target protein is required")
        self.targets = targets
        self.ppm_config = config or PPMConfig.small()
        self.seed = int(seed)
        self.model = ProteinStructureModel(self.ppm_config, seed=seed)
        self.base_config = base_config or AAQConfig.paper_optimal()
        self.baseline_tm = self._average_tm(None)

    def _average_tm(self, aaq: Optional[AAQConfig]) -> float:
        scores = []
        for target in self.targets:
            if aaq is None:
                prediction = self.model.predict_from_structure(target)
            else:
                prediction = QuantizedPPM(self.model, lightnobel_aaq(aaq)).predict(target)
            scores.append(tm_score_structures(prediction.structure, target))
        return float(np.mean(scores))

    def _tm_scores(
        self, aaqs: List[AAQConfig], workers: Optional[int]
    ) -> List[float]:
        """TM-scores for many AAQ configs, optionally sharded across a pool.

        Model inference per point dominates the Fig. 11 sweep, so ``workers >
        1`` shards the points across a process pool; any failure to stand up
        or use the pool (no ``fork``/semaphores, unpicklable inputs) degrades
        to the serial loop, and pooled ≡ serial results exactly (asserted by
        ``tests/test_analysis.py``).
        """
        if workers is not None and workers > 1 and len(aaqs) > 1:
            try:
                with ProcessPoolExecutor(
                    max_workers=workers,
                    initializer=_qdse_worker_init,
                    initargs=(self.ppm_config, self.seed, self.targets),
                ) as pool:
                    return list(pool.map(_qdse_point_tm, aaqs))
            except (
                BrokenProcessPool,
                pickle.PicklingError,
                TypeError,
                AttributeError,
                OSError,
                ImportError,
                NotImplementedError,
            ):
                pass  # pool infrastructure or pickling failed: run serially
        return [self._average_tm(aaq) for aaq in aaqs]

    def sweep_group(
        self,
        group: str,
        outlier_counts: Iterable[int] = OUTLIER_SWEEP,
        precisions: Iterable[int] = PRECISION_SWEEP,
        workers: Optional[int] = None,
    ) -> List[QuantDSEPoint]:
        """Sweep one group's scheme while the other groups keep the base config.

        ``workers > 1`` shards the grid's model inferences across a process
        pool (serial otherwise, identical numbers either way).
        """
        hidden = self.ppm_config.pair_dim
        grid: List[Tuple[int, int, TokenQuantConfig]] = []
        for bits in precisions:
            for outliers in outlier_counts:
                outliers_clamped = min(outliers, hidden)
                candidate = TokenQuantConfig(inlier_bits=bits, outlier_count=outliers_clamped)
                grid.append((bits, outliers_clamped, candidate))
        aaqs = [
            self.base_config.replace_group(group, candidate)
            for _, _, candidate in grid
        ]
        tms = self._tm_scores(aaqs, workers)
        points: List[QuantDSEPoint] = []
        for (bits, outliers_clamped, candidate), tm in zip(grid, tms):
            bytes_per_token = candidate.bytes_per_token(hidden)
            points.append(
                QuantDSEPoint(
                    group=group,
                    inlier_bits=bits,
                    outlier_count=outliers_clamped,
                    tm_score=tm,
                    bytes_per_token=bytes_per_token,
                    efficiency=efficiency_metric(tm, self.baseline_tm, bytes_per_token, hidden),
                )
            )
        return points

    @staticmethod
    def best_point(points: List[QuantDSEPoint]) -> QuantDSEPoint:
        return max(points, key=lambda p: p.efficiency)


def quick_group_sweep(
    activations: Dict[str, np.ndarray],
    group: str,
    hidden_dim: int,
    outlier_counts: Iterable[int] = OUTLIER_SWEEP,
    precisions: Iterable[int] = PRECISION_SWEEP,
) -> List[QuantDSEPoint]:
    """RMSE-proxy variant of the Fig. 11 sweep (no model inference).

    Uses recorded activations of the given group and scores configurations by
    reconstruction error instead of TM-score; used by fast unit tests and as a
    sanity cross-check of the full sweep.
    """
    tokens = activations[group]
    signal = float(np.sqrt(np.mean(tokens ** 2))) or 1.0
    points: List[QuantDSEPoint] = []
    for bits in precisions:
        for outliers in outlier_counts:
            outliers_clamped = min(outliers, hidden_dim)
            candidate = TokenQuantConfig(inlier_bits=bits, outlier_count=outliers_clamped)
            rmse = token_quantization_rmse(tokens, candidate)
            pseudo_tm = max(0.0, 1.0 - rmse / signal)
            bytes_per_token = candidate.bytes_per_token(hidden_dim)
            points.append(
                QuantDSEPoint(
                    group=group,
                    inlier_bits=bits,
                    outlier_count=outliers_clamped,
                    tm_score=pseudo_tm,
                    bytes_per_token=bytes_per_token,
                    efficiency=efficiency_metric(pseudo_tm, 1.0, bytes_per_token, hidden_dim),
                )
            )
    return points


# ----------------------------------------------------------------- Fig. 12 DSE
@dataclass(frozen=True)
class HardwareDSEPoint:
    """One point of the Fig. 12 hardware sweep."""

    num_rmpus: int
    vvpus_per_rmpu: int
    average_latency_seconds: float


def hardware_dse(
    sequence_lengths: Iterable[int],
    rmpu_counts: Iterable[int] = (1, 2, 4, 8, 16, 32, 64),
    vvpu_counts: Iterable[int] = (1, 2, 3, 4, 5, 6, 8),
    fixed_vvpus_per_rmpu: int = 4,
    fixed_rmpus: int = 32,
    config: Optional[PPMConfig] = None,
    service: Optional["LatencyService"] = None,
) -> Dict[str, List[HardwareDSEPoint]]:
    """Fig. 12: latency versus #VVPUs/RMPU (a) and versus #RMPUs (b).

    The whole (hardware config x length) grid is priced by one
    :meth:`~repro.sim.session.SimulationSession.simulate_batch` call: one
    stacked pass per config over every length.  With ``service=`` the grid
    is submitted through a shared
    :class:`~repro.serving.service.LatencyService` instead (its memo and
    coalescing with concurrent tenants apply); the numbers are identical.
    """
    config = config or PPMConfig.paper()
    if service is not None and service.session.ppm_config != config:
        raise ValueError("config does not match service.session.ppm_config")
    lengths = list(sequence_lengths)

    vvpu_configs = [
        LightNobelConfig(num_rmpus=fixed_rmpus, vvpus_per_rmpu=v) for v in vvpu_counts
    ]
    rmpu_configs = [
        LightNobelConfig(num_rmpus=r, vvpus_per_rmpu=fixed_vvpus_per_rmpu)
        for r in rmpu_counts
    ]
    grid = vvpu_configs + rmpu_configs
    if service is not None:
        reports = service.query_batch([(hw, n) for hw in grid for n in lengths])
        totals = [
            [r.total_seconds for r in reports[i * len(lengths) : (i + 1) * len(lengths)]]
            for i in range(len(grid))
        ]
    else:
        batch = SimulationSession(ppm_config=config, backends=()).simulate_batch(
            lengths, backends=grid
        )
        totals = [batch.totals(name) for name in batch.backends]
    averages = [float(np.mean(config_totals)) for config_totals in totals]

    vvpu_sweep = [
        HardwareDSEPoint(
            num_rmpus=fixed_rmpus,
            vvpus_per_rmpu=hw.vvpus_per_rmpu,
            average_latency_seconds=averages[i],
        )
        for i, hw in enumerate(vvpu_configs)
    ]
    rmpu_sweep = [
        HardwareDSEPoint(
            num_rmpus=hw.num_rmpus,
            vvpus_per_rmpu=fixed_vvpus_per_rmpu,
            average_latency_seconds=averages[len(vvpu_configs) + i],
        )
        for i, hw in enumerate(rmpu_configs)
    ]
    return {"vvpu_sweep": vvpu_sweep, "rmpu_sweep": rmpu_sweep}


# ------------------------------------------------------------- cluster DSE
def cluster_capacity_dse(
    trace: "RequestTrace",
    backend: object = "lightnobel",
    fleet_sizes: Sequence[int] = (1, 2, 4, 8),
    policies: Sequence[str] = ("fifo", "edf"),
    slo_target: float = 0.95,
    config: Optional[PPMConfig] = None,
    service: Optional["LatencyService"] = None,
    same_length_reuse_discount: float = 0.0,
) -> "CapacityPlan":
    """Fleet-level DSE: smallest fleet of ``backend`` workers meeting an SLO.

    The design-space axis here is the *fleet* (size x scheduling policy)
    rather than the chip (Fig. 12's RMPU/VVPU counts): the trace replays
    against every grid cell via :func:`repro.cluster.planner.plan_capacity`,
    sharing one service-time prefetch (routed through ``service=`` when
    given).  Returns the
    :class:`~repro.cluster.planner.CapacityPlan`, whose ``minimal_fleet()`` /
    ``cheapest_plan()`` answer the capacity question directly.
    """
    from ..cluster.fleet import FleetSpec  # local: analysis must stay importable
    from ..cluster.planner import plan_capacity  # without the cluster package

    return plan_capacity(
        trace,
        base_fleet=FleetSpec.homogeneous(backend, 1),
        fleet_sizes=fleet_sizes,
        policies=policies,
        slo_target=slo_target,
        ppm_config=config,
        service=service,
        same_length_reuse_discount=same_length_reuse_discount,
    )


def saturation_point(points: List[HardwareDSEPoint], axis: str, threshold: float = 0.10) -> int:
    """First sweep value beyond which the latency improvement drops below 10%."""
    ordered = sorted(points, key=lambda p: getattr(p, axis))
    for previous, current in zip(ordered, ordered[1:]):
        gain = (previous.average_latency_seconds - current.average_latency_seconds) / max(
            previous.average_latency_seconds, 1e-12
        )
        if gain < threshold:
            return getattr(previous, axis)
    return getattr(ordered[-1], axis)
