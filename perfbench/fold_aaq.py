"""Workload ``fold-aaq``: one structure prediction under LightNobel's AAQ.

``QuantizedPPM(model, get_scheme("LightNobel (AAQ)")).predict`` with the
small PPM config, chunked attention and triangle updates, on a seeded
synthetic protein of fixed length.  This is the paper's algorithm and the
only workload where the AAQ quantizers (``core``) and the numpy ``ppm``
model run.  Predicted coordinates must be identical across predictions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple

import numpy as np

from harness import Patch, Result, ScaledClock, Spans, digest_of, median

from repro.core.aaq import AAQConfig
from repro.core.schemes import get_scheme
from repro.core.token_quant import PackedQuantizedTensor
from repro.ppm import PPMConfig
from repro.ppm.activation_tap import GROUPS, ActivationRecorder
from repro.ppm.folding_block import FoldingBlock
from repro.ppm.model import ProteinStructureModel
from repro.ppm.quantized import QuantizedPPM
from repro.ppm.triangle import TriangleAttention
from repro.proteins.structure import ProteinStructure
from repro.proteins.synthetic import generate_protein

#: Fixed length, so every seed folds the same amount of work.
RESIDUES = 96
CHUNK = 32
MODEL_SEED = 0
#: Tokens kept per activation tap for the pack/unpack probe.
KEPT_TOKENS = 1024
PACK_REPEATS = 3


#: Length of the warm-up protein folded in set-up.
WARMUP_RESIDUES = 16


@dataclass
class State:
    quantized: QuantizedPPM
    protein: ProteinStructure
    #: Coordinates of the first timed prediction; every later one must match.
    reference: Optional[np.ndarray] = None
    digest: str = ""


def setup(seed: int, root: Path) -> State:
    config = PPMConfig.small().with_chunking(attn_chunk_size=CHUNK, triangle_chunk_size=CHUNK)
    model = ProteinStructureModel(config, seed=MODEL_SEED)
    quantized = QuantizedPPM(model, get_scheme("LightNobel (AAQ)"))
    protein = generate_protein(RESIDUES, seed=seed, name=f"synthetic-{seed}")
    # A small fold loads every code path without paying for a full one.
    quantized.predict(generate_protein(WARMUP_RESIDUES, seed=seed))
    return State(quantized, protein)


def measure(state: State, seconds: float, spans: Optional[Spans] = None) -> Result:
    result = Result()
    scaled = ScaledClock()
    clock = time.perf_counter
    deadline = clock() + seconds
    while not result.tasks_s or clock() < deadline:
        start = clock()
        coordinates = state.quantized.predict(state.protein).structure.coordinates
        elapsed = clock() - start
        scaled.read()
        result.tasks_s.append(elapsed)
        result.rates.append(RESIDUES / elapsed)
        if state.reference is None:
            state.reference = coordinates
            state.digest = digest_of(coordinates.tobytes())
        result.attempted += 1
        result.failed += int(not np.array_equal(coordinates, state.reference))
    result.digest = state.digest
    result.tasks_s = [t * scaled.factor for t in result.tasks_s]
    result.rates = [r / scaled.factor for r in result.rates]
    result.notes = {"fold_s": median(result.tasks_s)}
    return result


PATCHES: Tuple[Patch, ...] = (
    Patch(FoldingBlock, "__call__", "ppm.folding_block"),
    Patch(TriangleAttention, "__call__", "ppm.triangle_attention"),
)


def _pack_probe(state: State) -> Tuple[float, float]:
    """ns per element to pack and unpack activations recorded from the fold."""
    recorder = ActivationRecorder(keep_arrays=True, max_kept_tokens=KEPT_TOKENS)
    state.quantized.predict(state.protein, recorder=recorder)
    groups = {record.name: record.group for record in recorder.records}
    aaq = AAQConfig.paper_optimal()
    pack_s = unpack_s = 0.0
    elements = 0
    clock = time.perf_counter
    for name, tokens in recorder.arrays.items():
        if groups[name] not in GROUPS:
            continue
        config = aaq.config_for(groups[name])
        for _ in range(PACK_REPEATS):
            start = clock()
            packed = PackedQuantizedTensor.pack(tokens, config)
            middle = clock()
            packed.unpack()
            pack_s += middle - start
            unpack_s += clock() - middle
            elements += tokens.size
    return pack_s / elements * 1e9, unpack_s / elements * 1e9


def layer_metrics(state: State, traced: Result, spans: Spans) -> Dict[str, float]:
    pack_ns, unpack_ns = _pack_probe(state)
    return {
        "aaq.pack_ns_per_elem": pack_ns,
        "aaq.unpack_ns_per_elem": unpack_ns,
        "ppm.folding_block_ms": median(spans.seconds("ppm.folding_block")) * 1e3,
        "ppm.triangle_attention_ms": median(spans.seconds("ppm.triangle_attention")) * 1e3,
    }


def close(state: State) -> int:
    return 0
