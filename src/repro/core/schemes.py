"""Quantization schemes compared in the paper (Table 1, Fig. 13).

Each scheme bundles three things:

1. **Activation transforms** — per-group fake-quantization callables injected
   into the PPM forward pass for the accuracy experiments.  The coverage per
   group follows each method's published behaviour (e.g. SmoothQuant and
   LLM.int8() only quantize linear-layer inputs, so the pre-LayerNorm residual
   stream — Group A — stays in FP16; LightNobel quantizes all three groups).
2. **Weight handling** — MEFold and Tender quantize weights (INT4), the other
   baselines use INT8 or FP16 weights; LightNobel keeps 16-bit weights.
3. **Footprint accounting** — effective bits per activation/weight element and
   the fraction of the Pair-Representation activation volume covered, used to
   regenerate Table 1.

These are functional equivalents, not line-by-line ports, of the cited
systems: what matters for the reproduction is the quantization granularity,
precision and coverage each method applies, which is what drives both the
accuracy ordering of Fig. 13 and the footprint ordering of Table 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

import numpy as np

from ..ppm.activation_tap import GROUP_A, GROUP_B, GROUP_C, GROUPS, TransformingContext
from .aaq import AAQConfig, AAQQuantizer
from .quantization import fake_quantize_channelwise, fake_quantize_tensorwise, fake_quantize_tokenwise
from .token_quant import TokenQuantConfig, fake_quantize_tokens

#: ``f(values, out=None)``: the fake-quantized ``values``, written into ``out`` when given.
Transform = Callable[..., np.ndarray]


@dataclass(frozen=True)
class SchemeDescription:
    """Row metadata of Table 1."""

    name: str
    activation_grouping: str
    activation_precision: str
    weight_grouping: str
    weight_precision: str


@dataclass
class QuantizationScheme:
    """A complete activation/weight quantization scheme."""

    description: SchemeDescription
    activation_transforms: Dict[str, Transform] = field(default_factory=dict)
    #: Effective stored bits per *quantized* activation value.
    activation_bits: float = 16.0
    #: Fraction of the quantizable Pair-Representation activation volume the
    #: scheme actually quantizes (drives the Table 1 footprint).
    activation_coverage: float = 0.0
    #: Stored bits per weight value.
    weight_bits: float = 16.0
    #: Per-group weight fake-quantization bits (None = weights untouched).
    weight_quant_bits: Optional[int] = None
    weight_quant_granularity: str = "tensor"

    @property
    def name(self) -> str:
        return self.description.name

    def make_context(self, recorder=None) -> TransformingContext:
        """Activation context applying this scheme's activation quantization."""
        return TransformingContext(transforms=dict(self.activation_transforms), recorder=recorder)

    def quantize_weights(self, model) -> int:
        """Fake-quantize the model's weights in place (returns #tensors touched).

        Only schemes with ``weight_quant_bits`` set modify weights; LayerNorm
        scale/shift parameters and biases are left untouched, as is standard.
        """
        if self.weight_quant_bits is None:
            return 0
        touched = 0
        for module in (model.input_embedding, model.trunk, model.structure_module):
            for name, parameter in module.named_parameters():
                leaf = name.rsplit(".", 1)[-1]
                if leaf not in ("weight",):
                    continue
                if self.weight_quant_granularity == "channel":
                    parameter[...] = fake_quantize_channelwise(parameter, self.weight_quant_bits)
                else:
                    parameter[...] = fake_quantize_tensorwise(parameter, self.weight_quant_bits)
                touched += 1
        return touched

    def effective_activation_bytes(self, baseline_bytes: float = 2.0) -> float:
        """Average bytes per activation element over the quantizable volume."""
        quantized_bytes = self.activation_bits / 8.0
        return (
            self.activation_coverage * quantized_bytes
            + (1.0 - self.activation_coverage) * baseline_bytes
        )

    def effective_weight_bytes(self) -> float:
        return self.weight_bits / 8.0


# --------------------------------------------------------------------------- helpers
def _tokenwise(bits: int) -> Transform:
    return lambda values, out=None: fake_quantize_tokenwise(values, bits, out=out)


def _tensorwise(bits: int) -> Transform:
    return lambda values, out=None: fake_quantize_tensorwise(values, bits, out=out)


def _channelwise(bits: int) -> Transform:
    return lambda values, out=None: fake_quantize_channelwise(values, bits, out=out)


def _tokenwise_with_outliers(bits: int, outliers: int) -> Transform:
    config = TokenQuantConfig(inlier_bits=bits, outlier_count=outliers)
    return lambda values, out=None: fake_quantize_tokens(values, config, out=out)


# --------------------------------------------------------------------------- schemes
def baseline_fp16() -> QuantizationScheme:
    """The unquantized ESMFold baseline (FP16 activations and weights)."""
    return QuantizationScheme(
        description=SchemeDescription(
            name="Baseline",
            activation_grouping="No Quant.",
            activation_precision="FP16",
            weight_grouping="No Quant.",
            weight_precision="FP16",
        ),
        activation_transforms={},
        activation_bits=16.0,
        activation_coverage=0.0,
        weight_bits=16.0,
    )


def smoothquant() -> QuantizationScheme:
    """SmoothQuant: token-wise INT8 activations, channel-wise INT8 weights.

    SmoothQuant migrates outlier magnitude from activations into weights and
    quantizes the inputs of linear layers; the residual stream (Group A) is
    not quantized.
    """
    return QuantizationScheme(
        description=SchemeDescription(
            name="SmoothQuant",
            activation_grouping="Token-wise",
            activation_precision="INT8",
            weight_grouping="Channel-wise",
            weight_precision="INT8",
        ),
        activation_transforms={GROUP_B: _tokenwise(8), GROUP_C: _tokenwise(8)},
        activation_bits=8.0,
        activation_coverage=0.52,
        weight_bits=8.0,
        weight_quant_bits=8,
        weight_quant_granularity="channel",
    )


def llm_int8() -> QuantizationScheme:
    """LLM.int8(): token-wise INT8 with FP16 outlier decomposition."""
    return QuantizationScheme(
        description=SchemeDescription(
            name="LLM.int8()",
            activation_grouping="Token-wise",
            activation_precision="INT8/FP16",
            weight_grouping="Channel-wise",
            weight_precision="INT8/FP16",
        ),
        activation_transforms={
            GROUP_B: _tokenwise_with_outliers(8, 4),
            GROUP_C: _tokenwise_with_outliers(8, 4),
        },
        activation_bits=8.5,
        activation_coverage=0.52,
        weight_bits=8.1,
        weight_quant_bits=8,
        weight_quant_granularity="channel",
    )


def ptq4protein() -> QuantizationScheme:
    """PTQ4Protein: tensor-wise INT8 activations and weights."""
    return QuantizationScheme(
        description=SchemeDescription(
            name="PTQ4Protein",
            activation_grouping="Tensor-wise",
            activation_precision="INT8",
            weight_grouping="Tensor-wise",
            weight_precision="INT8",
        ),
        activation_transforms={GROUP_B: _tensorwise(8), GROUP_C: _tensorwise(8)},
        activation_bits=8.0,
        activation_coverage=0.33,
        weight_bits=8.0,
        weight_quant_bits=8,
        weight_quant_granularity="tensor",
    )


def tender() -> QuantizationScheme:
    """Tender: channel-wise INT4 activations and weights.

    Channel-wise INT4 cannot represent the token-concentrated outliers of the
    PPM pair activations, which is what produces the TM-score drop in Fig. 13.
    """
    return QuantizationScheme(
        description=SchemeDescription(
            name="Tender",
            activation_grouping="Channel-Wise",
            activation_precision="INT4",
            weight_grouping="Channel-wise",
            weight_precision="INT4",
        ),
        activation_transforms={
            GROUP_A: _channelwise(4),
            GROUP_B: _channelwise(4),
            GROUP_C: _channelwise(4),
        },
        activation_bits=4.0,
        activation_coverage=0.33,
        weight_bits=4.0,
        weight_quant_bits=4,
        weight_quant_granularity="channel",
    )


def mefold() -> QuantizationScheme:
    """MEFold: weight-only INT4 quantization, activations stay FP16."""
    return QuantizationScheme(
        description=SchemeDescription(
            name="MEFold",
            activation_grouping="No Quant.",
            activation_precision="FP16",
            weight_grouping="Tensor-wise",
            weight_precision="INT4/FP16",
        ),
        activation_transforms={},
        activation_bits=16.0,
        activation_coverage=0.0,
        weight_bits=4.2,
        weight_quant_bits=4,
        weight_quant_granularity="channel",
    )


def lightnobel_aaq(config: Optional[AAQConfig] = None) -> QuantizationScheme:
    """LightNobel's Token-wise Adaptive Activation Quantization."""
    quantizer = AAQQuantizer(config or AAQConfig.paper_optimal())
    hidden_dim = 128  # paper-scale pair hidden dim for the accounting
    average_bits = quantizer.config.average_bits_per_value(hidden_dim)
    return QuantizationScheme(
        description=SchemeDescription(
            name="LightNobel (AAQ)",
            activation_grouping="Token-wise",
            activation_precision="INT4/INT8/INT16",
            weight_grouping="No Quant.",
            weight_precision="INT16",
        ),
        activation_transforms={group: quantizer.transform_for(group) for group in GROUPS},
        activation_bits=average_bits,
        activation_coverage=0.92,
        weight_bits=16.0,
    )


SCHEME_FACTORIES: Dict[str, Callable[[], QuantizationScheme]] = {
    "Baseline": baseline_fp16,
    "SmoothQuant": smoothquant,
    "LLM.int8()": llm_int8,
    "PTQ4Protein": ptq4protein,
    "Tender": tender,
    "MEFold": mefold,
    "LightNobel (AAQ)": lightnobel_aaq,
}


def all_schemes() -> Dict[str, QuantizationScheme]:
    """Fresh instances of every scheme compared in the paper."""
    return {name: factory() for name, factory in SCHEME_FACTORIES.items()}


def get_scheme(name: str) -> QuantizationScheme:
    """Instantiate one scheme by its Table 1 name."""
    try:
        return SCHEME_FACTORIES[name]()
    except KeyError:
        raise ValueError(f"unknown scheme {name!r}; expected one of {sorted(SCHEME_FACTORIES)}") from None
