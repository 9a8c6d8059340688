"""Running the PPM under an activation-quantization scheme.

Ties a :class:`~repro.core.schemes.QuantizationScheme` to a
:class:`~repro.ppm.model.ProteinStructureModel`: activations are
fake-quantized at every tap point of the Pair-Representation dataflow and, for
weight-quantizing baselines (MEFold, Tender, ...), the model weights are
fake-quantized once up front.  This is the machinery behind the accuracy
experiments (Fig. 11 and Fig. 13); a bare AAQ configuration runs as
``lightnobel_aaq(config)``.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

import numpy as np

from ..metrics.tm_score import tm_score_structures
from ..proteins.structure import ProteinStructure
from .activation_tap import ActivationRecorder
from .config import PPMConfig
from .model import PredictionResult, ProteinStructureModel


@dataclass
class QuantizedPredictionResult:
    """Prediction result together with its accuracy versus the reference."""

    scheme_name: str
    target_name: str
    tm_score: float
    prediction: PredictionResult


class QuantizedPPM:
    """A PPM wrapped with a quantization scheme."""

    def __init__(self, model: ProteinStructureModel, scheme) -> None:
        self.scheme = scheme
        if getattr(scheme, "weight_quant_bits", None) is not None:
            # Weight-quantizing baselines get their own deep copy so the shared
            # reference model keeps full-precision weights.
            model = copy.deepcopy(model)
            scheme.quantize_weights(model)
        self.model = model

    def predict(self, reference: ProteinStructure, recorder: Optional[ActivationRecorder] = None):
        """Predict ``reference``'s structure with quantization injected."""
        ctx = self.scheme.make_context(recorder=recorder)
        return self.model.predict_from_structure(reference, ctx=ctx)

    def evaluate(self, reference: ProteinStructure) -> QuantizedPredictionResult:
        """Predict and score one target."""
        prediction = self.predict(reference)
        score = tm_score_structures(prediction.structure, reference)
        return QuantizedPredictionResult(
            scheme_name=self.scheme.name,
            target_name=reference.name or "target",
            tm_score=score,
            prediction=prediction,
        )


def evaluate_scheme_on_targets(
    scheme,
    targets: Iterable[ProteinStructure],
    config: Optional[PPMConfig] = None,
    seed: int = 0,
    model: Optional[ProteinStructureModel] = None,
) -> List[QuantizedPredictionResult]:
    """Evaluate one scheme on several targets with a shared reference model."""
    model = model or ProteinStructureModel(config or PPMConfig.small(), seed=seed)
    quantized = QuantizedPPM(model, scheme)
    return [quantized.evaluate(target) for target in targets]


def average_tm_score(results: Iterable[QuantizedPredictionResult]) -> float:
    """Mean TM-score of a result list (0.0 for an empty list)."""
    scores = [r.tm_score for r in results]
    return float(np.mean(scores)) if scores else 0.0


def compare_schemes_on_targets(
    schemes: Dict[str, object],
    targets: List[ProteinStructure],
    config: Optional[PPMConfig] = None,
    seed: int = 0,
) -> Dict[str, float]:
    """Average TM-score per scheme over the same targets and the same model."""
    model = ProteinStructureModel(config or PPMConfig.small(), seed=seed)
    scores: Dict[str, float] = {}
    for name, scheme in schemes.items():
        results = evaluate_scheme_on_targets(scheme, targets, config=config, seed=seed, model=model)
        scores[name] = average_tm_score(results)
    return scores
