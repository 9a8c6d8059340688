"""Protein Structure Prediction Model substrate (ESMFold-like folding trunk)."""

from .activation_tap import (
    GROUP_A,
    GROUP_B,
    GROUP_C,
    GROUPS,
    ActivationContext,
    ActivationRecord,
    ActivationRecorder,
    TransformingContext,
    summarize_activation,
)
from .attention import OuterProductMean, SequenceAttention
from .chunking import (
    blockwise_attention,
    context_observes_taps,
    iter_chunks,
    streaming_attention,
)
from .config import PPMConfig
from .embedding import EmbeddingOutput, InputEmbedding, StructurePrior
from .folding_block import FoldingBlock, FoldingTrunk, TrunkOutput
from .functional import gelu, layer_norm, relu, sigmoid, softmax
from .model import PredictionResult, ProteinStructureModel
from .modules import LayerNorm, Linear, Module, Transition
from .op_table import (
    OperatorTable,
    StackedOperatorTable,
    clear_workload_caches,
    get_op_table,
    get_stacked_table,
    workload_cache_info,
)
from .structure_module import (
    StructureModule,
    StructurePrediction,
    mds_embedding,
    mean_torsion_sign,
    resolve_chirality,
    stress_refinement,
)
from .triangle import TriangleAttention, TriangleMultiplication

__all__ = [
    "GROUP_A",
    "GROUP_B",
    "GROUP_C",
    "GROUPS",
    "ActivationContext",
    "ActivationRecord",
    "ActivationRecorder",
    "EmbeddingOutput",
    "FoldingBlock",
    "FoldingTrunk",
    "InputEmbedding",
    "LayerNorm",
    "Linear",
    "Module",
    "OperatorTable",
    "StackedOperatorTable",
    "OuterProductMean",
    "PPMConfig",
    "PredictionResult",
    "ProteinStructureModel",
    "SequenceAttention",
    "StructureModule",
    "StructurePrediction",
    "StructurePrior",
    "Transition",
    "TransformingContext",
    "TriangleAttention",
    "TriangleMultiplication",
    "TrunkOutput",
    "blockwise_attention",
    "clear_workload_caches",
    "context_observes_taps",
    "gelu",
    "get_op_table",
    "get_stacked_table",
    "iter_chunks",
    "layer_norm",
    "mds_embedding",
    "mean_torsion_sign",
    "relu",
    "resolve_chirality",
    "sigmoid",
    "softmax",
    "streaming_attention",
    "stress_refinement",
    "summarize_activation",
    "workload_cache_info",
]
