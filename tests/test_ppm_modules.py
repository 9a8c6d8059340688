"""Unit tests for the PPM building blocks (functional, Linear, LayerNorm, ...)."""

import numpy as np
import pytest

from repro.ppm import LayerNorm, Linear, PPMConfig, Transition
from repro.ppm.functional import gelu, layer_norm, relu, sigmoid, softmax
from repro.ppm.modules import Module


class TestFunctional:
    def test_sigmoid_range_and_symmetry(self, rng):
        x = rng.normal(scale=4, size=1000)
        y = sigmoid(x)
        assert np.all((y > 0) & (y < 1))
        assert np.allclose(sigmoid(-x), 1 - y, atol=1e-12)
        assert sigmoid(np.array([0.0]))[0] == pytest.approx(0.5)

    def test_sigmoid_is_stable_for_large_inputs(self):
        y = sigmoid(np.array([-1e4, 1e4]))
        assert y[0] == pytest.approx(0.0, abs=1e-12)
        assert y[1] == pytest.approx(1.0, abs=1e-12)

    def test_sigmoid_of_integers_is_float64(self):
        y = sigmoid(np.array([0, 1, -1, 3]))
        assert y.dtype == np.float64
        assert np.array_equal(y, sigmoid(np.array([0.0, 1.0, -1.0, 3.0])))
        assert y[0] == 0.5 and 0.7 < y[1] < 0.75 and 0.25 < y[2] < 0.3

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_sigmoid_matches_masked_reference_bit_for_bit(self, rng, dtype):
        """The mask-free form equals the former gather/scatter form exactly."""

        def masked_sigmoid(x):
            out = np.empty_like(x, dtype=np.float64)
            positive = x >= 0
            out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
            exp_x = np.exp(x[~positive])
            out[~positive] = exp_x / (1.0 + exp_x)
            return out.astype(x.dtype, copy=False)

        info = np.finfo(dtype)
        special = [0.0, -0.0, 1.0, -1.0, 1e4, -1e4, info.max, -info.max, info.tiny, -info.tiny,
                   info.smallest_subnormal, -info.smallest_subnormal, 3 * info.smallest_subnormal]
        x = np.concatenate([np.array(special, dtype=dtype),
                            rng.normal(scale=6, size=4000).astype(dtype),
                            rng.uniform(-800, 800, size=1000).astype(dtype)])
        y = sigmoid(x)
        assert y.dtype == dtype
        assert y.tobytes() == masked_sigmoid(x).tobytes()

    def test_relu(self):
        assert np.array_equal(relu(np.array([-1.0, 0.0, 2.0])), np.array([0.0, 0.0, 2.0]))

    def test_gelu_behaves_like_identity_for_large_positive(self):
        x = np.array([10.0])
        assert gelu(x)[0] == pytest.approx(10.0, rel=1e-3)
        assert gelu(np.array([-10.0]))[0] == pytest.approx(0.0, abs=1e-3)

    def test_softmax_normalizes(self, rng):
        x = rng.normal(size=(4, 7))
        y = softmax(x, axis=-1)
        assert np.allclose(y.sum(axis=-1), 1.0)
        assert np.all(y > 0)

    def test_softmax_shift_invariance(self, rng):
        x = rng.normal(size=(3, 5))
        assert np.allclose(softmax(x), softmax(x + 100.0), atol=1e-12)

    def test_layer_norm_zero_mean_unit_variance(self, rng):
        x = rng.normal(loc=5.0, scale=3.0, size=(10, 32))
        y = layer_norm(x, np.ones(32), np.zeros(32))
        assert np.allclose(y.mean(axis=-1), 0.0, atol=1e-7)
        assert np.allclose(y.std(axis=-1), 1.0, atol=1e-2)


class TestLinear:
    def test_forward_shape_and_bias(self, rng):
        layer = Linear(8, 16, rng, bias=True)
        out = layer(rng.normal(size=(5, 8)))
        assert out.shape == (5, 16)

    def test_no_bias(self, rng):
        layer = Linear(8, 16, rng, bias=False)
        assert layer.bias is None
        assert np.allclose(layer(np.zeros((2, 8))), 0.0)

    def test_gating_init_biases_gates_open(self, rng):
        layer = Linear(8, 8, rng, init="gating")
        assert np.allclose(layer.bias, 1.0)

    def test_final_init_is_small(self, rng):
        default = Linear(64, 64, rng, init="default")
        final = Linear(64, 64, rng, init="final")
        assert np.abs(final.weight).mean() < 0.2 * np.abs(default.weight).mean()

    def test_invalid_arguments(self, rng):
        with pytest.raises(ValueError):
            Linear(0, 4, rng)
        with pytest.raises(ValueError):
            Linear(4, 4, rng, init="bogus")


class TestLayerNormModule:
    def test_normalization(self, rng):
        norm = LayerNorm(12)
        x = rng.normal(loc=3.0, scale=7.0, size=(4, 6, 12))
        y = norm(x)
        assert np.allclose(y.mean(axis=-1), 0.0, atol=1e-7)

    def test_dimension_check(self, rng):
        norm = LayerNorm(12)
        with pytest.raises(ValueError):
            norm(rng.normal(size=(4, 8)))
        with pytest.raises(ValueError):
            LayerNorm(0)


class TestTransitionAndModule:
    def test_transition_shape_preserved(self, rng):
        transition = Transition(16, 4, rng)
        x = rng.normal(size=(3, 5, 16))
        assert transition(x).shape == x.shape

    def test_parameter_counting_and_naming(self, rng):
        transition = Transition(8, 2, rng, name="t")
        names = dict(transition.named_parameters())
        assert any(name.endswith("expand.weight") for name in names)
        expected = (8 + 8) + (8 * 16 + 16) + (16 * 8 + 8)  # ln(gamma+beta) + expand + contract
        assert transition.parameter_count() == expected

    def test_set_parameter_by_name(self, rng):
        layer = Linear(4, 4, rng, name="lin")
        new_weight = np.zeros((4, 4))
        layer.set_parameter("lin.weight", new_weight)
        assert np.allclose(layer.weight, 0.0)
        with pytest.raises(KeyError):
            layer.set_parameter("lin.missing", new_weight)
        with pytest.raises(ValueError):
            layer.set_parameter("lin.weight", np.zeros((2, 2)))

    def test_module_tree_parameter_iteration(self, rng):
        root = Module("root")
        root.register_child("a", Linear(2, 3, rng, name="a"))
        root.register_child("b", LayerNorm(3, name="b"))
        names = [name for name, _ in root.named_parameters()]
        assert "root.a.weight" in names
        assert "root.b.gamma" in names


class TestPPMConfig:
    def test_factory_configs_are_valid(self):
        for config in (PPMConfig.paper(), PPMConfig.small(), PPMConfig.tiny()):
            assert config.pair_dim > 0
            assert config.attention_dim == config.num_heads * config.head_dim

    def test_paper_config_matches_esmfold_dimensions(self):
        paper = PPMConfig.paper()
        assert paper.pair_dim == 128
        assert paper.seq_dim == 1024
        assert paper.num_blocks == 48
        assert paper.head_dim == 32

    def test_validation(self):
        with pytest.raises(ValueError):
            PPMConfig(pair_dim=0)
        with pytest.raises(ValueError):
            PPMConfig(pair_dim=8, distogram_channels=16)

    def test_with_blocks_and_recycles(self):
        config = PPMConfig.tiny().with_blocks(5).with_recycles(2)
        assert config.num_blocks == 5
        assert config.num_recycles == 2
