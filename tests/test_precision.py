"""The fold's execution precision is one ``PPMConfig.dtype`` field.

* A structural guard: a default-config (float32) AAQ fold keeps float32 at
  every activation tap and through the whole trunk, dense, chunked and
  packed.  One float64 scalar or buffer anywhere upstream (``np.sqrt`` of an
  int, a float64 streaming accumulator) promotes every later tap.
* Accuracy in float32, over synthetic-protein seeds 1-8 (the float64 fold is
  the reference): coordinates, the Fig. 13 claim and the Fig. 11 orderings.
"""

from __future__ import annotations

import numpy as np
import pytest
from reference_quant import packed_aaq_context

from repro.analysis import (
    AccuracyExperiment,
    accuracy_deltas,
    record_activations,
    results_as_table,
)
from repro.analysis.dse import QuantizationDSE, quick_group_sweep
from repro.core import get_scheme
from repro.metrics import tm_score_structures
from repro.ppm import PPMConfig, ProteinStructureModel
from repro.ppm.activation_tap import ActivationContext
from repro.ppm.quantized import QuantizedPPM
from repro.proteins import generate_protein

SEEDS = range(1, 9)


class TapDtypes(ActivationContext):
    """Runs ``inner`` at every tap and records the dtypes each tap sees and returns."""

    def __init__(self, inner: ActivationContext) -> None:
        self.inner = inner
        self.dtypes = {}

    def process(self, name, group, value, out=None):
        result = self.inner.process(name, group, value, out=out)
        self.dtypes.setdefault(name, set()).update((value.dtype, result.dtype))
        return result


def test_dtype_defaults_to_float32_and_is_validated():
    assert PPMConfig().dtype == PPMConfig.small().dtype == "float32"
    for bad in ("float16", "int32", np.float32):
        with pytest.raises(ValueError):
            PPMConfig.small().with_dtype(bad)


class TestFloat32Guard:
    @pytest.mark.parametrize(
        "chunk, packed",
        [(None, False), (8, False), (None, True)],
        ids=["dense", "chunked", "packed"],
    )
    def test_aaq_fold_stays_float32(self, chunk, packed):
        model = ProteinStructureModel(PPMConfig.small().with_chunking(chunk, chunk), seed=0)
        inner = packed_aaq_context() if packed else get_scheme("LightNobel (AAQ)").make_context()
        ctx = TapDtypes(inner)
        result = model.predict_from_structure(generate_protein(24, seed=7), ctx=ctx)
        assert len(ctx.dtypes) > 40
        promoted = {name: seen for name, seen in ctx.dtypes.items() if seen != {np.dtype(np.float32)}}
        assert not promoted
        assert result.pair_representation.dtype == np.float32
        assert result.sequence_representation.dtype == np.float32
        assert all(p.dtype == np.float32 for p in model.trunk.parameters())
        assert result.structure.coordinates.dtype == np.float64

    def test_streaming_fold_stays_float32(self):
        """With no observer, chunked triangle attention streams its softmax."""
        model = ProteinStructureModel(PPMConfig.small().with_chunking(8, 8), seed=0)
        result = model.predict_from_structure(generate_protein(24, seed=7))
        assert result.pair_representation.dtype == np.float32
        assert result.sequence_representation.dtype == np.float32


class TestFloat32Accuracy:
    """float32 folds against float64 folds of the same model and proteins.

    The unquantized fold differs by float32 rounding alone (measured ≤ 1.7e-4
    Å over seeds 1-40).  Under AAQ a float32 rounding can also move a value
    across an INT4/INT8 grid midpoint, a whole grid step; over seeds 1-40 the
    largest such move reached 0.095 Å (small, seed 8), 2.5% of the 3.8 Å
    C-alpha spacing, and 0.0024 in TM-score.
    """

    #: Max |coordinate difference| (Angstrom) of the unquantized fold.
    BASELINE_BOUND = 1e-3
    #: The same for the AAQ fold: 5% of the C-alpha spacing.
    AAQ_BOUND = 0.2
    #: Max TM-score difference of the AAQ fold.
    TM_BOUND = 0.01

    @pytest.mark.parametrize("config", [PPMConfig.tiny(), PPMConfig.small()], ids=["tiny", "small"])
    def test_coordinates_within_bound_of_float64(self, config):
        models = {
            dtype: ProteinStructureModel(config.with_dtype(dtype), seed=0)
            for dtype in ("float32", "float64")
        }
        for seed in SEEDS:
            protein = generate_protein(24, seed=seed)
            for name, bound in (("Baseline", self.BASELINE_BOUND), ("LightNobel (AAQ)", self.AAQ_BOUND)):
                single, double = (
                    QuantizedPPM(models[dtype], get_scheme(name)).predict(protein).structure
                    for dtype in ("float32", "float64")
                )
                assert np.abs(single.coordinates - double.coordinates).max() <= bound, (name, seed)
                tm_gap = tm_score_structures(single, protein) - tm_score_structures(double, protein)
                assert abs(tm_gap) <= self.TM_BOUND, (name, seed)

    def test_fig13_aaq_tracks_baseline(self):
        """Fig. 13: AAQ within 0.05 TM of the unquantized baseline, on every dataset and seed."""
        schemes = {name: get_scheme(name) for name in ("Baseline", "LightNobel (AAQ)")}
        for seed in SEEDS:
            experiment = AccuracyExperiment(
                config=PPMConfig.tiny(), targets_per_dataset=1, max_target_length=32, seed=seed
            )
            deltas = accuracy_deltas(results_as_table(experiment.run(schemes=schemes)))
            assert len(deltas) == 3
            for dataset, delta in deltas.items():
                assert abs(delta["LightNobel (AAQ)"]) < 0.05, (seed, dataset)

    def test_fig11_best_configs(self):
        """Fig. 11: Group C is best at INT4, Group A needs INT8 or outliers, no point collapses."""
        config = PPMConfig.tiny()
        for seed in SEEDS:
            targets = [generate_protein(24, seed=seed)]
            dse = QuantizationDSE(targets, config=config, seed=0)
            points = dse.sweep_group("C", outlier_counts=(4, 0), precisions=(4, 8))
            assert dse.best_point(points).inlier_bits == 4, seed
            assert all(p.tm_score >= dse.baseline_tm - 0.2 for p in points), seed

            recorder = record_activations(targets, config=config, keep_arrays=True)
            group_a = np.concatenate([
                tokens for name, tokens in recorder.arrays.items()
                if ("residual" in name or "pre_ln" in name) and tokens.shape[-1] == config.pair_dim
            ])
            assert group_a.dtype == np.float32
            points_a = quick_group_sweep({"A": group_a}, "A", config.pair_dim)
            best_a = max(points_a, key=lambda p: p.efficiency)
            assert best_a.inlier_bits == 8 or best_a.outlier_count >= 4, seed
