"""Model configuration for the Protein Structure Prediction Model substrate."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from .._digest import config_digest as _config_digest


@dataclass(frozen=True)
class PPMConfig:
    """Dimensions and hyper-parameters of the ESMFold-like folding trunk.

    ``paper()`` matches the dimensions the paper uses (ESMFold folding trunk:
    pair dim 128, sequence dim 1024, 48 folding blocks, head dim 32).  The
    paper-scale configuration is only used by analytical cost/latency/memory
    models; configurations actually executed numerically (accuracy
    experiments, unit tests) use the reduced ``small()``/``tiny()`` variants,
    which preserve the dataflow graph and relative tensor shapes.

    ``attn_chunk_size`` / ``triangle_chunk_size`` opt the numeric substrate
    into blockwise execution of the pair stack (FlashAttention-style query
    blocks with a streaming softmax, row blocks of the outer product mean,
    and a tiled third-axis contraction in triangular multiplication).
    ``None`` — the default — preserves the dense execution paths
    bit-for-bit; setting them changes peak activation memory only, never the
    operator graph or any reported number (dense ≡ chunked is asserted at the
    repo-wide 1e-9 parity bar in float64, and at a float32-eps bar in float32).

    ``dtype`` is the float precision the numeric substrate executes in:
    parameters are created in it and the input embedding emits it, so every
    activation of the trunk carries it.  ``"float32"`` (the default) is the
    precision PPMs run in; ``"float64"`` reproduces the float64 fold bit for
    bit and is what exact oracles pin.  It does not touch the analytical
    ``weight_bytes``/``activation_bytes`` accounting.
    """

    pair_dim: int = 128            # Hz: hidden dim of the Pair Representation
    seq_dim: int = 1024            # Hm: hidden dim of the Sequence Representation
    num_blocks: int = 48           # number of Protein Folding Blocks
    num_heads: int = 4             # attention heads in triangular attention
    head_dim: int = 32             # per-head dimension
    triangle_hidden: int = 128     # hidden dim of triangular multiplication
    transition_factor: int = 4     # MLP expansion factor in transitions
    seq_num_heads: int = 8         # heads in sequence self-attention
    num_recycles: int = 0          # recycling iterations (0 = single pass)
    distogram_channels: int = 16   # pair channels reserved for distance signal
    prior_noise: float = 0.6       # Angstrom-scale noise of the structure prior
    residual_scale: float = 0.1    # scale of sub-layer updates added to residuals
    weight_bytes: float = 2.0      # bytes per weight element (FP16 baseline)
    activation_bytes: float = 2.0  # bytes per activation element (FP16 baseline)
    language_model_params: float = 3.0e9  # ESM-2 3B input-embedding model
    #: Query-block size of chunked (triangular + sequence) attention and
    #: row-block size of the outer product mean; None executes the dense
    #: paths unchanged.
    attn_chunk_size: Optional[int] = None
    #: Tile size of the third-axis contraction in triangular multiplication;
    #: None executes the dense contraction unchanged.
    triangle_chunk_size: Optional[int] = None
    #: Float precision of the executed numpy substrate ("float32" or "float64").
    dtype: str = "float32"

    def __post_init__(self) -> None:
        if self.pair_dim <= 0 or self.seq_dim <= 0 or self.num_blocks <= 0:
            raise ValueError("dimensions and block count must be positive")
        for knob in ("attn_chunk_size", "triangle_chunk_size"):
            value = getattr(self, knob)
            if value is None:
                continue
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ValueError(f"{knob} must be a positive integer or None")
        if self.dtype not in ("float32", "float64"):
            raise ValueError(f"dtype must be 'float32' or 'float64', got {self.dtype!r}")
        if self.num_heads * self.head_dim > 4 * self.pair_dim:
            raise ValueError("attention width is unreasonably large for the pair dim")
        if self.distogram_channels > self.pair_dim:
            raise ValueError("distogram_channels cannot exceed pair_dim")

    @classmethod
    def paper(cls) -> "PPMConfig":
        """Paper-scale ESMFold folding-trunk configuration."""
        return cls(
            pair_dim=128,
            seq_dim=1024,
            num_blocks=48,
            num_heads=4,
            head_dim=32,
            triangle_hidden=128,
            transition_factor=4,
            seq_num_heads=8,
            num_recycles=3,
        )

    @classmethod
    def small(cls) -> "PPMConfig":
        """Reduced configuration used for numeric accuracy experiments."""
        return cls(
            pair_dim=32,
            seq_dim=64,
            num_blocks=4,
            num_heads=2,
            head_dim=8,
            triangle_hidden=32,
            transition_factor=2,
            seq_num_heads=2,
            num_recycles=0,
            distogram_channels=8,
        )

    @classmethod
    def tiny(cls) -> "PPMConfig":
        """Minimal configuration used by unit tests."""
        return cls(
            pair_dim=16,
            seq_dim=24,
            num_blocks=2,
            num_heads=2,
            head_dim=4,
            triangle_hidden=16,
            transition_factor=2,
            seq_num_heads=2,
            num_recycles=0,
            distogram_channels=6,
        )

    def with_blocks(self, num_blocks: int) -> "PPMConfig":
        """Copy of this configuration with a different folding-block count."""
        return replace(self, num_blocks=num_blocks)

    def with_recycles(self, num_recycles: int) -> "PPMConfig":
        """Copy of this configuration with a different recycling count."""
        return replace(self, num_recycles=num_recycles)

    def with_chunking(
        self,
        attn_chunk_size: Optional[int] = None,
        triangle_chunk_size: Optional[int] = None,
    ) -> "PPMConfig":
        """Copy of this configuration with the given chunked-execution knobs.

        Passing ``None`` for a knob disables that chunking axis, so
        ``config.with_chunking()`` returns a fully dense copy.
        """
        return replace(
            self,
            attn_chunk_size=attn_chunk_size,
            triangle_chunk_size=triangle_chunk_size,
        )

    def with_dtype(self, dtype: str) -> "PPMConfig":
        """Copy of this configuration executing in float precision ``dtype``."""
        return replace(self, dtype=dtype)

    @property
    def is_chunked(self) -> bool:
        """Whether any blockwise execution path is enabled."""
        return self.attn_chunk_size is not None or self.triangle_chunk_size is not None

    @property
    def attention_dim(self) -> int:
        """Total width of the triangular attention projections."""
        return self.num_heads * self.head_dim

    def config_digest(self) -> str:
        """Canonical hash of every field, shared by the LRU and disk caches."""
        return _config_digest(self)
