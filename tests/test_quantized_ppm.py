"""Integration tests: running the PPM under quantization schemes (Fig. 13 machinery)."""

import hashlib

import numpy as np
import pytest
from reference_quant import packed_aaq_context

from repro.core import AAQConfig, AAQQuantizer, get_scheme
from repro.metrics import tm_score_structures
from repro.ppm import PPMConfig, ProteinStructureModel
from repro.ppm.quantized import (
    QuantizedPPM,
    average_tm_score,
    compare_schemes_on_targets,
    evaluate_scheme_on_targets,
)
from repro.proteins import generate_protein


@pytest.fixture(scope="module")
def target():
    return generate_protein(48, seed=21, name="quant_target")


@pytest.fixture(scope="module")
def model():
    return ProteinStructureModel(PPMConfig.tiny(), seed=0)


class TestQuantizedPPM:
    def test_baseline_wrapper_matches_unquantized_model(self, model, target):
        baseline = QuantizedPPM(model, get_scheme("Baseline"))
        direct = model.predict_from_structure(target)
        wrapped = baseline.predict(target)
        assert np.allclose(direct.predicted_distances, wrapped.predicted_distances)

    def test_weight_quantizing_scheme_copies_model(self, model, target):
        original = {name: p.copy() for name, p in model.trunk.named_parameters()}
        QuantizedPPM(model, get_scheme("MEFold"))
        for name, p in model.trunk.named_parameters():
            assert np.allclose(original[name], p), "shared model weights must stay intact"

    def test_evaluate_returns_scored_result(self, model, target):
        result = QuantizedPPM(model, get_scheme("LightNobel (AAQ)")).evaluate(target)
        assert result.scheme_name == "LightNobel (AAQ)"
        assert 0.0 <= result.tm_score <= 1.0

    def test_aaq_accuracy_close_to_baseline(self, model, target):
        """The core claim: AAQ's TM-score change versus FP16 is negligible."""
        baseline = QuantizedPPM(model, get_scheme("Baseline")).evaluate(target).tm_score
        aaq = QuantizedPPM(model, get_scheme("LightNobel (AAQ)")).evaluate(target).tm_score
        assert abs(baseline - aaq) < 0.02

    def test_aggressive_low_precision_degrades_more_than_aaq(self, model, target):
        """Uniform 4-bit with no outlier handling loses more accuracy than AAQ."""
        baseline = QuantizedPPM(model, get_scheme("Baseline")).evaluate(target).tm_score
        aaq = QuantizedPPM(model, get_scheme("LightNobel (AAQ)")).evaluate(target).tm_score
        harsh_scheme = AAQQuantizer(AAQConfig.uniform(inlier_bits=4, outlier_count=0))

        class HarshScheme:
            name = "Harsh-INT4"
            weight_quant_bits = None

            def make_context(self, recorder=None):
                return harsh_scheme.make_context(recorder)

        harsh = QuantizedPPM(model, HarshScheme()).evaluate(target).tm_score
        assert baseline - harsh >= baseline - aaq - 1e-9
        assert aaq >= harsh - 0.02


class TestSchemeComparison:
    def test_average_tm_score_empty(self):
        assert average_tm_score([]) == 0.0

    def test_evaluate_scheme_on_targets(self, target):
        results = evaluate_scheme_on_targets(
            get_scheme("Baseline"), [target], config=PPMConfig.tiny(), seed=0
        )
        assert len(results) == 1
        assert results[0].target_name == "quant_target"

    def test_compare_schemes_ordering(self, target):
        """Tender (channel-wise INT4) must trail the baseline and AAQ."""
        schemes = {name: get_scheme(name) for name in ("Baseline", "Tender", "LightNobel (AAQ)")}
        scores = compare_schemes_on_targets(schemes, [target], config=PPMConfig.tiny(), seed=0)
        assert scores["Tender"] <= scores["Baseline"] + 1e-6
        assert abs(scores["LightNobel (AAQ)"] - scores["Baseline"]) < 0.05


#: The golden folds: dense, chunked (8-wide blocks) and packed AAQ, whose
#: taps go through the Fig. 7 store (``PackedQuantizedTensor.pack/unpack``).
GOLDEN_FOLDS = pytest.mark.parametrize(
    "chunk, packed",
    [(None, False), (8, False), (None, True), (8, True)],
    ids=["dense", "chunked", "packed", "packed-chunked"],
)


class TestAAQFoldGolden:
    """Predicted coordinates of one small AAQ fold, pinned bit for bit.

    The float64 digest was captured from the one-pass quantizer and the
    ``np.matmul`` attention and triangle contractions; the dense, chunked and
    packed folds (dense and chunked) all produce it.  A numeric drift
    anywhere in the quantized fold changes it.  The float32 fold has its own
    pins: dense and packed share one (the packed round trip equals the fused
    quantizer in float32 too), while the chunked fold's blocked float32
    contractions round differently from the dense ones, so it has its own
    digest, which the packed chunked fold shares.  Coordinates are float64 at
    both precisions.
    """

    #: SHA-256 prefix of the (24, 3) coordinates of the float64 fold.
    GOLDEN = "472e8eb36b143b63"
    #: The same for the float32 fold, per execution path.
    GOLDEN_FLOAT32 = {
        "dense": "93de9b2b6cebfce1",
        "chunked": "abf555d51cdade1f",
        "packed": "93de9b2b6cebfce1",
        "packed-chunked": "abf555d51cdade1f",
    }

    @staticmethod
    def _run(dtype, chunk, packed):
        config = PPMConfig.small().with_dtype(dtype).with_chunking(chunk, chunk)
        protein = generate_protein(24, seed=7, name="golden")
        model = ProteinStructureModel(config, seed=0)
        if packed:
            prediction = model.predict_from_structure(protein, ctx=packed_aaq_context())
        else:
            prediction = QuantizedPPM(model, get_scheme("LightNobel (AAQ)")).predict(protein)
        coordinates = prediction.structure.coordinates
        assert coordinates.dtype == np.float64
        return hashlib.sha256(np.ascontiguousarray(coordinates).tobytes()).hexdigest()[:16]

    @GOLDEN_FOLDS
    def test_fold_coordinates_match_golden(self, chunk, packed):
        assert self._run("float64", chunk, packed) == self.GOLDEN

    @GOLDEN_FOLDS
    def test_float32_fold_coordinates_match_golden(self, request, chunk, packed):
        path = request.node.callspec.id
        assert self._run("float32", chunk, packed) == self.GOLDEN_FLOAT32[path]
