"""Parameterized building blocks (Linear, LayerNorm, Transition) for the PPM.

The substrate is a plain-numpy re-implementation of the modules that make up
the ESMFold folding trunk.  Modules hold their parameters in a flat dict so
weight size accounting (Fig. 4, Table 1) and weight quantization (MEFold
baseline) can walk every parameter uniformly.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from .functional import layer_norm, relu


class Module:
    """Base class: a named container of numpy parameters and sub-modules."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._parameters: Dict[str, np.ndarray] = {}
        self._children: Dict[str, "Module"] = {}

    def register_parameter(self, name: str, value: np.ndarray) -> np.ndarray:
        self._parameters[name] = value
        return value

    def register_child(self, name: str, module: "Module") -> "Module":
        self._children[name] = module
        return module

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, np.ndarray]]:
        """Yield (qualified name, parameter) pairs for this module and children.

        Qualified names use the *registration keys* along the module tree so
        that two children constructed with the same display name (e.g. the
        outgoing and incoming triangular-multiplication blocks) still get
        distinct parameter names.
        """
        base = f"{prefix}{self.name}" if (prefix or self.name) else ""
        yield from self._named_parameters_under(base)

    def _named_parameters_under(self, base: str) -> Iterator[Tuple[str, np.ndarray]]:
        for param_name, value in self._parameters.items():
            yield (f"{base}.{param_name}" if base else param_name), value
        for key, child in self._children.items():
            child_base = f"{base}.{key}" if base else key
            yield from child._named_parameters_under(child_base)

    def parameters(self) -> Iterator[np.ndarray]:
        for _, value in self.named_parameters():
            yield value

    def parameter_count(self) -> int:
        """Total number of scalar parameters in this module tree."""
        return int(sum(p.size for p in self.parameters()))

    def set_parameter(self, qualified_name: str, value: np.ndarray) -> None:
        """Replace a parameter located by its qualified name."""
        for name, current in self.named_parameters():
            if name == qualified_name:
                if current.shape != value.shape:
                    raise ValueError(
                        f"shape mismatch for {qualified_name}: {current.shape} vs {value.shape}"
                    )
                current[...] = value
                return
        raise KeyError(qualified_name)


class Linear(Module):
    """Affine projection ``y = x W^T + b`` with configurable initialization.

    ``init`` follows AlphaFold conventions: ``"default"`` uses LeCun-normal
    scaling, ``"relu"`` uses He scaling, ``"gating"`` biases gates toward the
    open state, and ``"final"`` draws small weights so that sub-layer outputs
    start close to zero — the residual stream then dominates, which is what
    lets an untrained trunk preserve the structural signal injected by the
    input embedding.  Weights are drawn in float64 from ``rng`` and stored in
    ``dtype``, so the random stream (and a float64 model) does not depend on
    the precision.
    """

    def __init__(
        self,
        in_dim: int,
        out_dim: int,
        rng: np.random.Generator,
        name: str = "linear",
        bias: bool = True,
        init: str = "default",
        dtype: str = "float64",
    ) -> None:
        super().__init__(name)
        if in_dim <= 0 or out_dim <= 0:
            raise ValueError("Linear dimensions must be positive")
        scale = {
            "default": 1.0 / np.sqrt(in_dim),
            "relu": np.sqrt(2.0 / in_dim),
            "gating": 1.0 / np.sqrt(in_dim),
            "final": 0.05 / np.sqrt(in_dim),
        }.get(init)
        if scale is None:
            raise ValueError(f"unknown init {init!r}")
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.weight = self.register_parameter(
            "weight", rng.normal(scale=scale, size=(out_dim, in_dim)).astype(dtype)
        )
        if bias:
            bias_value = np.full(out_dim, 1.0 if init == "gating" else 0.0, dtype=dtype)
            self.bias: Optional[np.ndarray] = self.register_parameter("bias", bias_value)
        else:
            self.bias = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = x @ self.weight.T
        if self.bias is not None:
            out += self.bias
        return out

    __call__ = forward


class LayerNorm(Module):
    """Layer normalization over the channel (last) axis."""

    def __init__(
        self, dim: int, name: str = "layer_norm", eps: float = 1e-5, dtype: str = "float64"
    ) -> None:
        super().__init__(name)
        if dim <= 0:
            raise ValueError("LayerNorm dimension must be positive")
        self.dim = dim
        self.eps = eps
        self.gamma = self.register_parameter("gamma", np.ones(dim, dtype=dtype))
        self.beta = self.register_parameter("beta", np.zeros(dim, dtype=dtype))

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.shape[-1] != self.dim:
            raise ValueError(f"LayerNorm expected last dim {self.dim}, got {x.shape[-1]}")
        return layer_norm(x, self.gamma, self.beta, eps=self.eps)

    __call__ = forward


class Transition(Module):
    """Two-layer MLP with ReLU used as the pair/sequence transition block."""

    def __init__(
        self,
        dim: int,
        factor: int,
        rng: np.random.Generator,
        name: str = "transition",
        dtype: str = "float64",
    ) -> None:
        super().__init__(name)
        hidden = dim * factor
        self.layer_norm = self.register_child("layer_norm", LayerNorm(dim, name="layer_norm", dtype=dtype))
        self.expand = self.register_child(
            "expand", Linear(dim, hidden, rng, name="expand", init="relu", dtype=dtype)
        )
        self.contract = self.register_child(
            "contract", Linear(hidden, dim, rng, name="contract", init="final", dtype=dtype)
        )

    def forward(self, x: np.ndarray) -> np.ndarray:
        normalized = self.layer_norm(x)
        hidden = relu(self.expand(normalized))
        return self.contract(hidden)

    __call__ = forward
