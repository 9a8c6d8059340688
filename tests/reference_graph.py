"""Test-side views of the operator object graph, and the table oracle built from it.

`repro.ppm.op_table` evaluates operator tables from per-row cubics in the
sequence length and never builds the `Operator`/`Workload` graph: its fit
reads one block of each segment builder.  What the tests still read off the
graph lives here: cached graphs, the graph's per-phase and per-engine views,
the inverse of `OperatorTable.from_workload`, and columnar sub-tables with
their own label vocabularies.

`oracle_table` is the table the fitted one must equal byte for byte: the
object graph's columns (`OperatorTable.from_workload(build_model_ops(...))`)
under the row map of one block of each distinct segment builder, which this
module derives from `model_segments` on its own.
"""

from dataclasses import replace
from functools import lru_cache
from typing import Dict, List, Optional

import numpy as np

from repro.ppm.op_table import NUMERIC_COLUMNS, OperatorTable, RepresentativeRows
from repro.ppm.workload import Operator, Workload, build_model_ops, model_segments

LABEL_KEYS = ("engine", "phase", "subphase", "group")
LABEL_COLUMNS = tuple(f"{key}_codes" for key in LABEL_KEYS) + ("fusible",)


@lru_cache(maxsize=64)
def get_workload(config, n, include_recycles=False) -> Workload:
    """Cached `build_model_ops` (callers must not mutate the result)."""
    return build_model_ops(config, n, include_recycles=include_recycles)


# ------------------------------------------------------------ graph views
def filter_ops(workload, phase=None, engine=None) -> List[Operator]:
    return [
        op for op in workload.operators
        if (phase is None or op.phase == phase) and (engine is None or op.engine == engine)
    ]


def total_macs(workload) -> float:
    return sum(op.macs for op in workload.operators)


def total_vector_ops(workload) -> float:
    return sum(op.vector_ops for op in workload.operators)


def by_phase(workload) -> Dict[str, List[Operator]]:
    phases: Dict[str, List[Operator]] = {}
    for op in workload.operators:
        phases.setdefault(op.phase, []).append(op)
    return phases


def structure_signature(workload) -> tuple:
    """The operator sequence without its numbers: the same at every length."""
    return tuple(
        (op.name, op.engine, op.phase, op.subphase, op.output_group, op.fusible)
        for op in workload.operators
    )


def to_workload(table) -> Workload:
    """The object graph of ``table`` (inverse of `OperatorTable.from_workload`)."""
    operators = [
        Operator(
            name=table.names[i],
            engine=table.engines[table.engine_codes[i]],
            phase=table.phases[table.phase_codes[i]],
            subphase=table.subphases[table.subphase_codes[i]],
            macs=float(table.macs[i]),
            vector_ops=float(table.vector_ops[i]),
            input_elements=float(table.input_elements[i]),
            output_elements=float(table.output_elements[i]),
            weight_elements=float(table.weight_elements[i]),
            output_group=table.groups[table.group_codes[i]],
            fusible=bool(table.fusible[i]),
        )
        for i in range(len(table))
    ]
    return Workload(sequence_length=table.sequence_length, config=table.config, operators=operators)


# ---------------------------------------------------------- columnar views
def with_row_map(table, key) -> OperatorTable:
    """``table`` with rows of equal integer ``key`` sharing one representative.

    Representatives are each key's first row, in row order; rows sharing a
    key must have equal pricing columns.
    """
    ids: Dict = {}
    rep_index = np.array([ids.setdefault(k, len(ids)) for k in np.asarray(key).tolist()],
                         dtype=np.int32)
    rep_rows = np.unique(rep_index, return_index=True)[1].astype(np.int32)
    reps = RepresentativeRows(
        counts=np.bincount(rep_index, minlength=len(rep_rows)).astype(np.float64),
        **{f"{key}s": getattr(table, f"{key}s") for key in LABEL_KEYS},
        **{name: getattr(table, name)[rep_rows] for name in LABEL_COLUMNS + NUMERIC_COLUMNS},
    )
    return replace(table, rep_rows=rep_rows, rep_index=rep_index, reps=reps)


def select(table, mask) -> OperatorTable:
    """Sub-table of the rows where ``mask`` is True, labels re-factorized.

    Selected rows sharing a representative in ``table`` share one here too.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (len(table),):
        raise ValueError(f"mask shape {mask.shape} does not match the table's {(len(table),)}")
    rows = np.nonzero(mask)[0]
    operators = to_workload(table).operators
    sub = OperatorTable.from_workload(
        Workload(table.sequence_length, table.config, [operators[i] for i in rows])
    )
    return with_row_map(sub, table.rep_index[rows])


def filter_table(table, phase=None, engine=None, subphase=None) -> OperatorTable:
    """Sub-table matching the given phase/engine/subphase (AND semantics)."""
    mask = np.ones(len(table), dtype=bool)
    if phase is not None:
        mask &= table.phase_mask(phase)
    if engine is not None:
        mask &= table.engine_mask(engine)
    if subphase is not None:
        mask &= np.array([s == subphase for s in table.subphases])[table.subphase_codes]
    return select(table, mask)


def table_by_phase(table) -> Dict[str, OperatorTable]:
    """Sub-table per phase, in first-appearance order."""
    return {phase: select(table, table.phase_codes == code) for code, phase in enumerate(table.phases)}


def weighted_sums(table, key: str, weights) -> Dict:
    """Row-order sum of per-row ``weights`` per label of ``key``."""
    codes, vocab = table._codes_for(key)
    sums = np.bincount(codes, weights=weights, minlength=len(vocab))
    return {label: float(sums[i]) for i, label in enumerate(vocab)}


# ------------------------------------------------------------------ oracle
def builder_origins(config, include_recycles=False) -> np.ndarray:
    """Each graph row's position in the first block of the first run of its builder."""
    origins, first, start = [], {}, 0
    for builder, blocks, _ in model_segments(config, include_recycles):
        width = len(builder(config, 1))
        base = first.setdefault(builder, start)
        origins.append(np.tile(np.arange(base, base + width), blocks))
        start += width * blocks
    return np.concatenate(origins)


def oracle_table(config, n, include_recycles=False, workload: Optional[Workload] = None):
    """The object graph's table under the one-block-per-builder row map."""
    workload = workload or build_model_ops(config, n, include_recycles=include_recycles)
    return with_row_map(
        OperatorTable.from_workload(workload), builder_origins(config, include_recycles)
    )
