"""Columnar (struct-of-arrays) operator-graph engine.

:mod:`repro.ppm.workload` describes one PPM inference as a list of ~3k
:class:`~repro.ppm.workload.Operator` dataclasses.  That representation is
ideal for building and inspecting the graph, but every simulator downstream
(the LightNobel accelerator, the GPU baseline, the cost models) only ever
consumes whole *columns* of it — MAC counts, element counts, phase labels —
and the DSE/length sweeps re-consume the identical graph dozens of times.

:class:`OperatorTable` stores the same graph as numpy columns plus small
per-table string vocabularies (phases, subphases, engines, activation groups)
with integer code arrays, so reductions like "total MACs of the pair dataflow"
are single vectorized expressions instead of Python loops.  Tables convert
losslessly to and from :class:`~repro.ppm.workload.Workload`.

:func:`get_op_table` builds a table without the object graph.  Its label
columns are the same at every sequence length, so they come from one
per-``(config, include_recycles)`` template.  Its numeric columns come from
one block of each :func:`~repro.ppm.workload.model_segments` run, tiled
``blocks`` times: no operator's numbers depend on its block index.  The
result is bytewise ``OperatorTable.from_workload(build_model_ops(...))``,
which stays the object-graph view (:func:`get_workload`, :meth:`to_workload`)
and the tests' oracle.  Tables, templates and workloads each have an LRU
cache, so repeated sweeps build nothing twice.

:class:`StackedOperatorTable` generalizes one table to a whole *traffic mix*:
the tables of many distinct sequence lengths concatenated into one ragged
column set with per-length segment offsets.  A latency backend evaluates its
vectorized expressions once over the full stack and reduces each segment back
to its per-length report, so pricing a mix of hundreds of distinct lengths is
one numpy pass instead of one engine invocation per length.  Each segment's
columns are bytewise the per-length table's columns; a stack joins them only
when something reads them, since pricing reads the representatives alone.

Every table and stack also carries a *row map*: ``rep_rows``, the rows that
represent each distinct set of pricing columns (label codes, ``fusible`` and
the numbers), and ``rep_index``, each row's position in ``rep_rows``.  A tiled
table has one representative per row of one block of each distinct segment
builder (85 of the paper config's 3,234 rows), shared by every length.
:meth:`~OperatorTable.representatives` holds those rows' pricing columns and
their *multiplicities* (how many rows each stands for); a tiled table takes
the labels and multiplicities from its template and only its numbers per
length.  The latency backends price representatives only, and
:meth:`StackedOperatorTable.segment_sums` reduces them per segment as
multiplicity times value, so no pricing step reads a full-row column.  The
sums accumulate in representative order, which a segment keeps in any mix:
a length prices the same in every stack.  They differ from row-order sums by
rounding only (under 4e-14 relative on the paper config).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .config import PPMConfig
from .workload import (
    Operator,
    Workload,
    build_model_ops,
    check_sequence_length,
    model_segments,
)

#: Column names holding per-operator numeric data.
NUMERIC_COLUMNS = (
    "macs",
    "vector_ops",
    "input_elements",
    "output_elements",
    "weight_elements",
)


def _encode(labels: Sequence) -> Tuple[np.ndarray, Tuple]:
    """Factorize ``labels`` into integer codes plus a first-appearance vocab."""
    vocab: List = []
    index: Dict = {}
    codes = np.empty(len(labels), dtype=np.int64)
    for i, label in enumerate(labels):
        code = index.get(label)
        if code is None:
            code = len(vocab)
            index[label] = code
            vocab.append(label)
        codes[i] = code
    return codes, tuple(vocab)


def _freeze(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _numeric_rows(operators: Sequence[Operator]) -> np.ndarray:
    """``(len(NUMERIC_COLUMNS), len(operators))`` float64 array of the numbers."""
    return np.array(
        [[getattr(op, column) for op in operators] for column in NUMERIC_COLUMNS],
        dtype=np.float64,
    )


def _numeric_fields(rows: np.ndarray) -> Dict[str, np.ndarray]:
    """Read-only per-column views of a :func:`_numeric_rows` array."""
    _freeze(rows)
    return dict(zip(NUMERIC_COLUMNS, rows))


def _row_map(*keys: np.ndarray) -> Dict[str, np.ndarray]:
    """``rep_rows``/``rep_index`` fields of the rows keyed by integer ``keys``.

    Rows with equal keys (every key column equal) share one representative,
    the first of them; representatives keep row order.  Both arrays are int32.
    """
    ids: Dict = {}  # key -> representative position, in first-appearance order
    rep_index = np.fromiter(
        (ids.setdefault(key, len(ids)) for key in zip(*(k.tolist() for k in keys))),
        dtype=np.int32,
        count=len(keys[0]),
    )
    _, first = np.unique(rep_index, return_index=True)
    return {
        "rep_rows": _freeze(first.astype(np.int32)),
        "rep_index": _freeze(rep_index),
    }


def _join(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """Read-only concatenation; a lone (already read-only) array is reused."""
    if len(arrays) == 1:
        return arrays[0]
    return _freeze(np.concatenate(arrays))


#: Label keys of :meth:`OperatorTable.weighted_sums`; key ``k`` has codes
#: ``{k}_codes`` and vocab ``{k}s``.
_LABEL_KEYS = ("engine", "phase", "subphase", "group")

#: The per-row columns a representative keeps (label codes, ``fusible``, numbers).
_PRICING_COLUMNS = tuple(f"{key}_codes" for key in _LABEL_KEYS) + ("fusible",) + NUMERIC_COLUMNS


class _Columns:
    """Derived columns and label masks of any columnar operator view."""

    @property
    def flops(self) -> np.ndarray:
        return 2.0 * self.macs + self.vector_ops

    def engine_mask(self, engine: str) -> np.ndarray:
        if engine not in self.engines:
            return np.zeros(len(self.engine_codes), dtype=bool)
        return self.engine_codes == self.engines.index(engine)

    def phase_mask(self, phase: str) -> np.ndarray:
        if phase not in self.phases:
            return np.zeros(len(self.phase_codes), dtype=bool)
        return self.phase_codes == self.phases.index(phase)

    def _codes_for(self, key: str) -> Tuple[np.ndarray, Tuple]:
        if key not in _LABEL_KEYS:
            raise ValueError(
                f"unknown groupby key {key!r}; expected phase/subphase/engine/group"
            )
        return getattr(self, f"{key}_codes"), getattr(self, f"{key}s")


@dataclass(frozen=True, eq=False)
class RepresentativeRows(_Columns):
    """The pricing columns of a table's representative rows, and nothing else.

    Built once per table or stack by :meth:`OperatorTable.representatives`
    and :meth:`StackedOperatorTable.representatives`; row ``i`` is table row
    ``rep_rows[i]`` and stands for ``counts[i]`` rows (float64, so weighting a
    value is one multiply).  Vocabularies are the table's own, so the label
    masks and per-group parameter gathers of the backends work unchanged.
    """

    engines: Tuple[str, ...]
    engine_codes: np.ndarray
    phases: Tuple[str, ...]
    phase_codes: np.ndarray
    subphases: Tuple[str, ...]
    subphase_codes: np.ndarray
    groups: Tuple[Optional[str], ...]
    group_codes: np.ndarray
    fusible: np.ndarray
    counts: np.ndarray
    macs: np.ndarray
    vector_ops: np.ndarray
    input_elements: np.ndarray
    output_elements: np.ndarray
    weight_elements: np.ndarray


class _RowMapped(_Columns):
    """The row-map half of the table protocol (``rep_rows``/``rep_index``)."""

    def representatives(self) -> RepresentativeRows:
        """The representative rows' pricing columns and counts, built once."""
        reps = self.__dict__.get("_representatives")
        if reps is None:
            reps = self._gather_representatives()
            object.__setattr__(self, "_representatives", reps)
        return reps

    def _vocabs(self) -> Dict[str, Tuple]:
        return {f"{key}s": getattr(self, f"{key}s") for key in _LABEL_KEYS}


@dataclass(frozen=True, eq=False)
class OperatorTable(_RowMapped):
    """One operator graph stored column-wise (struct of arrays).

    ``rep_rows`` and ``rep_index`` (int32, built with the table, kept out of
    its repr) are the row map: row ``i`` has the same label codes,
    ``fusible`` and numeric columns as row ``rep_rows[rep_index[i]]``.
    """

    sequence_length: int
    config: PPMConfig
    names: Tuple[str, ...]
    engines: Tuple[str, ...]
    engine_codes: np.ndarray
    phases: Tuple[str, ...]
    phase_codes: np.ndarray
    subphases: Tuple[str, ...]
    subphase_codes: np.ndarray
    groups: Tuple[Optional[str], ...]
    group_codes: np.ndarray
    macs: np.ndarray
    vector_ops: np.ndarray
    input_elements: np.ndarray
    output_elements: np.ndarray
    weight_elements: np.ndarray
    fusible: np.ndarray
    rep_rows: np.ndarray = field(repr=False)
    rep_index: np.ndarray = field(repr=False)

    # ------------------------------------------------------------ construction
    @classmethod
    def from_operators(
        cls, operators: Sequence[Operator], config: PPMConfig, sequence_length: int
    ) -> "OperatorTable":
        engine_codes, engines = _encode([op.engine for op in operators])
        phase_codes, phases = _encode([op.phase for op in operators])
        subphase_codes, subphases = _encode([op.subphase for op in operators])
        group_codes, groups = _encode([op.output_group for op in operators])
        fusible = np.array([op.fusible for op in operators], dtype=bool)
        numbers = _numeric_rows(operators)
        return cls(
            sequence_length=sequence_length,
            config=config,
            names=tuple(op.name for op in operators),
            engines=engines,
            engine_codes=_freeze(engine_codes),
            phases=phases,
            phase_codes=_freeze(phase_codes),
            subphases=subphases,
            subphase_codes=_freeze(subphase_codes),
            groups=groups,
            group_codes=_freeze(group_codes),
            fusible=_freeze(fusible),
            # Numbers are keyed by their bits: 0.0 and -0.0 stay apart.
            **_row_map(
                engine_codes, phase_codes, subphase_codes, group_codes, fusible,
                *numbers.view(np.int64),
            ),
            **_numeric_fields(numbers),
        )

    @classmethod
    def from_workload(cls, workload: Workload) -> "OperatorTable":
        return cls.from_operators(workload.operators, workload.config, workload.sequence_length)

    def to_workload(self) -> Workload:
        """Materialize the equivalent object graph (inverse of ``from_workload``)."""
        operators = [
            Operator(
                name=self.names[i],
                engine=self.engines[self.engine_codes[i]],
                phase=self.phases[self.phase_codes[i]],
                subphase=self.subphases[self.subphase_codes[i]],
                macs=float(self.macs[i]),
                vector_ops=float(self.vector_ops[i]),
                input_elements=float(self.input_elements[i]),
                output_elements=float(self.output_elements[i]),
                weight_elements=float(self.weight_elements[i]),
                output_group=self.groups[self.group_codes[i]],
                fusible=bool(self.fusible[i]),
            )
            for i in range(len(self))
        ]
        return Workload(
            sequence_length=self.sequence_length, config=self.config, operators=operators
        )

    def _gather_representatives(self) -> RepresentativeRows:
        rows = self.rep_rows
        counts = np.bincount(self.rep_index, minlength=len(rows)).astype(np.float64)
        return RepresentativeRows(
            counts=_freeze(counts),
            **self._vocabs(),
            **{name: _freeze(np.take(getattr(self, name), rows)) for name in _PRICING_COLUMNS},
        )

    # ---------------------------------------------------------------- queries
    def __len__(self) -> int:
        return len(self.names)

    def total_macs(self) -> float:
        return float(np.sum(self.macs))

    def total_vector_ops(self) -> float:
        return float(np.sum(self.vector_ops))

    def total_flops(self) -> float:
        return float(np.sum(self.flops))

    def column(self, name: str) -> np.ndarray:
        if name == "flops":
            return self.flops
        if name not in NUMERIC_COLUMNS:
            raise ValueError(f"unknown numeric column {name!r}")
        return getattr(self, name)

    # ----------------------------------------------------------------- masks
    def subphase_mask(self, subphase: str) -> np.ndarray:
        if subphase not in self.subphases:
            return np.zeros(len(self), dtype=bool)
        return self.subphase_codes == self.subphases.index(subphase)

    def select(self, mask: np.ndarray) -> "OperatorTable":
        """Sub-table of the rows where ``mask`` is True (labels re-factorized).

        ``mask`` must have shape ``(len(self),)``.  Selected rows sharing a
        representative here share one in the sub-table too.
        """
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (len(self),):
            raise ValueError(
                f"mask shape {mask.shape} does not match the table's {(len(self),)}"
            )
        indices = np.nonzero(mask)[0]
        engine_codes, engines = _encode([self.engines[self.engine_codes[i]] for i in indices])
        phase_codes, phases = _encode([self.phases[self.phase_codes[i]] for i in indices])
        subphase_codes, subphases = _encode(
            [self.subphases[self.subphase_codes[i]] for i in indices]
        )
        group_codes, groups = _encode([self.groups[self.group_codes[i]] for i in indices])
        return OperatorTable(
            sequence_length=self.sequence_length,
            config=self.config,
            names=tuple(self.names[i] for i in indices),
            engines=engines,
            engine_codes=_freeze(engine_codes),
            phases=phases,
            phase_codes=_freeze(phase_codes),
            subphases=subphases,
            subphase_codes=_freeze(subphase_codes),
            groups=groups,
            group_codes=_freeze(group_codes),
            macs=_freeze(self.macs[indices]),
            vector_ops=_freeze(self.vector_ops[indices]),
            input_elements=_freeze(self.input_elements[indices]),
            output_elements=_freeze(self.output_elements[indices]),
            weight_elements=_freeze(self.weight_elements[indices]),
            fusible=_freeze(self.fusible[indices]),
            **_row_map(self.rep_index[indices]),
        )

    def filter(
        self,
        phase: Optional[str] = None,
        engine: Optional[str] = None,
        subphase: Optional[str] = None,
    ) -> "OperatorTable":
        """Sub-table matching the given phase/engine/subphase (AND semantics)."""
        mask = np.ones(len(self), dtype=bool)
        if phase is not None:
            mask &= self.phase_mask(phase)
        if engine is not None:
            mask &= self.engine_mask(engine)
        if subphase is not None:
            mask &= self.subphase_mask(subphase)
        return self.select(mask)

    # --------------------------------------------------------------- groupby
    def groupby_sum(self, key: str, column: str = "macs") -> Dict:
        """Sum a numeric column per label of ``key`` (phase/subphase/engine/group)."""
        return self.weighted_sums(key, self.column(column))

    def weighted_sums(self, key: str, weights: np.ndarray) -> Dict:
        """Sum an arbitrary per-operator array per label of ``key``.

        Like :meth:`groupby_sum`, but over caller-computed per-operator values
        (e.g. the simulators' stage latencies) instead of a stored column.
        """
        codes, vocab = self._codes_for(key)
        sums = np.bincount(codes, weights=weights, minlength=len(vocab))
        return {label: float(sums[i]) for i, label in enumerate(vocab)}

    def by_phase(self) -> Dict[str, "OperatorTable"]:
        """Sub-table per phase, in first-appearance order (columnar ``by_phase``)."""
        return {phase: self.select(self.phase_codes == code)
                for code, phase in enumerate(self.phases)}


def _union_vocab(vocabs: Sequence[Tuple]) -> Tuple[Tuple, Optional[Tuple[np.ndarray, ...]]]:
    """One shared (union) vocabulary and, per table, its code lookup array.

    Fast path: when every table factorized its labels identically (the norm —
    one config emits the same operator sequence at every length), the shared
    vocab *is* the per-table vocab and the lookups are ``None``: codes join
    untouched.  Otherwise table code ``c`` is shared code ``lookups[t][c]``.
    """
    first = vocabs[0]
    if all(vocab == first for vocab in vocabs[1:]):
        return first, None
    union = tuple(dict.fromkeys(label for vocab in vocabs for label in vocab))
    index = {label: code for code, label in enumerate(union)}
    return union, tuple(
        np.array([index[label] for label in vocab], dtype=np.int64) for vocab in vocabs
    )


def _slices(bounds: np.ndarray) -> Tuple[slice, ...]:
    bounds = bounds.tolist()
    return tuple(slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:]))


def _lazy_column(name: str) -> cached_property:
    """A stack's full-row column, joined from its tables' on first read."""
    return cached_property(
        lambda stack: stack._concat(name, [getattr(t, name) for t in stack.tables])
    )


@dataclass(frozen=True, eq=False)
class StackedOperatorTable(_RowMapped):
    """Operator tables of many sequence lengths, concatenated column-wise.

    Segment ``i`` (rows ``segment_starts[i]:segment_starts[i+1]``) holds the
    operators of ``lengths[i]`` — bytewise the columns of ``tables[i]`` — so
    any elementwise latency expression evaluated over the stacked columns
    produces, per segment, exactly the values the per-length evaluation
    would.  Label vocabularies are shared across segments (``code_maps``
    remaps each table's codes, ``None`` where they already agree) so
    per-group/per-engine parameter gathers also run once.  The full-row
    columns are joined on first read: pricing reads only
    :meth:`representatives`, so a stack that is only priced never builds them.

    The row map joins the tables' maps: segment ``i``'s representatives are
    ``rep_rows[rep_starts[i]:rep_starts[i+1]]`` (``tables[i].rep_rows``
    shifted by the segment's first row), and ``rep_index`` is each table's
    ``rep_index`` shifted by ``rep_starts[i]``.  A one-table stack reuses the
    table's arrays instead of copying them.
    """

    config: PPMConfig
    lengths: Tuple[int, ...]
    tables: Tuple[OperatorTable, ...]
    segment_starts: np.ndarray
    engines: Tuple[str, ...]
    phases: Tuple[str, ...]
    subphases: Tuple[str, ...]
    groups: Tuple[Optional[str], ...]
    code_maps: Dict[str, Optional[Tuple[np.ndarray, ...]]] = field(repr=False)
    rep_starts: np.ndarray = field(repr=False)

    engine_codes = _lazy_column("engine_codes")
    phase_codes = _lazy_column("phase_codes")
    subphase_codes = _lazy_column("subphase_codes")
    group_codes = _lazy_column("group_codes")
    macs = _lazy_column("macs")
    vector_ops = _lazy_column("vector_ops")
    input_elements = _lazy_column("input_elements")
    output_elements = _lazy_column("output_elements")
    weight_elements = _lazy_column("weight_elements")
    fusible = _lazy_column("fusible")

    # ------------------------------------------------------------ construction
    @classmethod
    def from_tables(cls, tables: Sequence[OperatorTable]) -> "StackedOperatorTable":
        if not tables:
            raise ValueError("cannot stack zero operator tables")
        config = tables[0].config
        for table in tables[1:]:
            if table.config != config:
                raise ValueError("all stacked tables must share one PPMConfig")
        lengths = tuple(t.sequence_length for t in tables)
        if len(set(lengths)) != len(lengths):
            raise ValueError("stacked lengths must be distinct")
        starts = np.cumsum([0] + [len(t) for t in tables], dtype=np.int64)
        rep_starts = np.cumsum([0] + [len(t.rep_rows) for t in tables], dtype=np.int64)
        vocabs, code_maps = {}, {}
        for key in _LABEL_KEYS:
            vocabs[f"{key}s"], code_maps[f"{key}_codes"] = _union_vocab(
                [getattr(t, f"{key}s") for t in tables]
            )
        return cls(
            config=config,
            lengths=lengths,
            tables=tuple(tables),
            segment_starts=_freeze(starts),
            code_maps=code_maps,
            rep_starts=_freeze(rep_starts),
            **vocabs,
        )

    def _concat(self, name: str, arrays: Sequence[np.ndarray]) -> np.ndarray:
        """Per-table ``name`` arrays joined, label codes in the shared vocab."""
        lookups = self.code_maps.get(name)
        if lookups is not None:
            arrays = [lookup[codes] for lookup, codes in zip(lookups, arrays)]
        return _join(arrays)

    def _shifted(self, name: str, offsets: np.ndarray) -> np.ndarray:
        # Python-int offsets keep the int32 maps int32.
        return _join([
            getattr(t, name) + offset if offset else getattr(t, name)
            for t, offset in zip(self.tables, offsets.tolist())
        ])

    @cached_property
    def rep_rows(self) -> np.ndarray:
        return self._shifted("rep_rows", self.segment_starts)

    @cached_property
    def rep_index(self) -> np.ndarray:
        return self._shifted("rep_index", self.rep_starts)

    def _gather_representatives(self) -> RepresentativeRows:
        parts = [t.representatives() for t in self.tables]
        if len(parts) == 1:
            return parts[0]
        return RepresentativeRows(
            **self._vocabs(),
            **{
                name: self._concat(name, [getattr(p, name) for p in parts])
                for name in _PRICING_COLUMNS + ("counts",)
            },
        )

    # ---------------------------------------------------------------- queries
    def __len__(self) -> int:
        return int(self.segment_starts[-1])

    @property
    def num_segments(self) -> int:
        return len(self.lengths)

    def segment(self, index: int) -> slice:
        """Row slice of segment ``index`` in the stacked columns."""
        return self.segments[index]

    @cached_property
    def segments(self) -> Tuple[slice, ...]:
        """All segment slices, materialized once per stack."""
        return _slices(self.segment_starts)

    @cached_property
    def rep_segments(self) -> Tuple[slice, ...]:
        """Per segment, its slice of ``rep_rows`` (and of representative values)."""
        return _slices(self.rep_starts)

    def segment_index(self, sequence_length: int) -> int:
        """Segment holding ``sequence_length`` (raises ``ValueError`` if absent)."""
        return self.lengths.index(int(sequence_length))

    # ------------------------------------------------------------- reductions
    @cached_property
    def _segment_ids(self) -> np.ndarray:
        """Each representative's segment."""
        return np.repeat(np.arange(self.num_segments), np.diff(self.rep_starts))

    def _label_bins(self, key: str) -> Tuple[np.ndarray, int, Tuple]:
        """(per-representative bins, minlength, per-segment label layout) of ``key``.

        A representative's bin is ``segment * len(vocab) + code``.  Built once
        per stack and key: stacks are LRU-cached and priced many times.  A
        lone length is priced as a fresh one-segment stack per backend, so
        its bins are cached on its table, which outlives those stacks.
        """
        owner = self.tables[0] if self.num_segments == 1 else self
        cache = owner.__dict__.setdefault("_bins", {})
        bins = cache.get(key)
        if bins is None:
            codes, vocab = self.representatives()._codes_for(key)
            width = len(vocab)
            shared = {label: code for code, label in enumerate(vocab)}
            layouts = tuple(
                tuple((label, i * width + shared[label]) for label in getattr(t, f"{key}s"))
                for i, t in enumerate(self.tables)
            )
            bins = cache[key] = (
                _freeze(self._segment_ids * width + codes),
                self.num_segments * width,
                layouts,
            )
        return bins

    def segment_sums(self, values: np.ndarray, *keys: str) -> Tuple[np.ndarray, List[List[Dict]]]:
        """Per-segment row sums of representative ``values``, one bincount each.

        ``values`` is ``(len(rep_rows),)`` or ``(k, len(rep_rows))``: per
        representative, the value every row it stands for holds.  Each is
        weighted by its multiplicity, so a segment's sum over its
        representatives is the sum over its rows.  Returns ``(totals,
        labelled)``: ``totals[j, i]`` is segment ``i``'s sum of ``values[j]``,
        and ``labelled[k][i]`` is segment ``i``'s
        :meth:`OperatorTable.weighted_sums` dict of ``values[0]`` for
        ``keys[k]``, over its own table's vocab in that table's order.

        ``np.bincount`` adds in array order, and a segment's representatives
        keep their order in any mix, so every float is the same in any stack
        (a one-segment stack included) and on every call.  Row-order sums of
        the same values differ by rounding only.
        """
        weighted = np.atleast_2d(self.representatives().counts * values)
        segments, count = self._segment_ids, self.num_segments
        totals = np.array([np.bincount(segments, weights=w, minlength=count) for w in weighted])
        labelled = []
        for key in keys:
            bins, minlength, layouts = self._label_bins(key)
            # One tolist() converts every bin to a Python float (exact for
            # float64), avoiding a numpy-scalar __float__ per (segment, label).
            sums = np.bincount(bins, weights=weighted[0], minlength=minlength).tolist()
            labelled.append([{label: sums[i] for label, i in layout} for layout in layouts])
        return totals, labelled


# ------------------------------------------------------------------- caching
@lru_cache(maxsize=64)
def _cached_workload(config: PPMConfig, n: int, include_recycles: bool) -> Workload:
    return build_model_ops(config, n, include_recycles=include_recycles)


@lru_cache(maxsize=16)
def _cached_labels(config: PPMConfig, include_recycles: bool) -> OperatorTable:
    """The one-residue table, whose label columns and row map every length shares.

    Names, engine/phase/subphase/group codes and ``fusible`` are the same at
    every sequence length (:meth:`Workload.structure_signature`), so they are
    factorized once per ``(config, include_recycles)``.  The row map is the
    tiling's: :func:`_cached_table` copies every row's numbers from its
    *origin*, the same row of the first block of the first run with the same
    builder, so rows with equal origin and labels are equal at every length.
    Its :meth:`~OperatorTable.representatives` labels and counts are every
    length's too; only their numbers change.
    """
    table = OperatorTable.from_workload(
        build_model_ops(config, 1, include_recycles=include_recycles)
    )
    origins = []
    first_row: Dict = {}
    start = 0
    for builder, blocks in model_segments(config, include_recycles):
        width = len(builder(config, 1, 0))
        base = first_row.setdefault(builder, start)
        origins.append(np.tile(np.arange(base, base + width), blocks))
        start += width * blocks
    return replace(
        table,
        **_row_map(
            np.concatenate(origins), table.engine_codes, table.phase_codes,
            table.subphase_codes, table.group_codes, table.fusible,
        ),
    )


@lru_cache(maxsize=64)
def _cached_table(config: PPMConfig, n: int, include_recycles: bool) -> OperatorTable:
    check_sequence_length(n)
    rows_of: Dict = {}  # one block's numbers per builder (recycle passes repeat)
    parts = []
    for builder, blocks in model_segments(config, include_recycles):
        rows = rows_of.get(builder)
        if rows is None:
            rows = rows_of[builder] = _numeric_rows(builder(config, n, 0))
        parts.append(np.tile(rows, blocks))
    template = _cached_labels(config, include_recycles)
    numbers = np.concatenate(parts, axis=1)
    table = replace(template, sequence_length=n, **_numeric_fields(numbers))
    reps = replace(
        template.representatives(), **_numeric_fields(numbers[:, template.rep_rows])
    )
    object.__setattr__(table, "_representatives", reps)
    return table


def get_workload(config: PPMConfig, n: int, include_recycles: bool = False) -> Workload:
    """LRU-cached :func:`~repro.ppm.workload.build_model_ops` (the object-graph view).

    Returns a fresh :class:`Workload` wrapper around the cached operator list
    (the :class:`Operator` entries are frozen and shared), so mutating the
    returned ``operators`` list cannot poison the cache.  Operator tables do
    not go through this cache.
    """
    cached = _cached_workload(config, int(n), bool(include_recycles))
    return Workload(
        sequence_length=cached.sequence_length,
        config=cached.config,
        operators=list(cached.operators),
    )


def get_op_table(config: PPMConfig, n: int, include_recycles: bool = False) -> OperatorTable:
    """LRU-cached columnar operator table for ``(config, n, include_recycles)``.

    Bytewise the table ``OperatorTable.from_workload(build_model_ops(...))``
    would give, built without the object graph: the label columns come from
    the per-config template, and the numeric columns from one block of each
    :func:`~repro.ppm.workload.model_segments` run, tiled ``blocks`` times
    (no operator's numbers depend on its block index).
    """
    return _cached_table(config, int(n), bool(include_recycles))


@lru_cache(maxsize=32)
def _cached_stack(
    config: PPMConfig, lengths: Tuple[int, ...], include_recycles: bool
) -> StackedOperatorTable:
    return StackedOperatorTable.from_tables(
        [_cached_table(config, n, include_recycles) for n in lengths]
    )


def get_stacked_table(
    config: PPMConfig, lengths: Iterable[int], include_recycles: bool = False
) -> StackedOperatorTable:
    """LRU-cached stacked table over the *distinct, sorted* ``lengths``.

    The stack is canonicalized (sorted, deduplicated) so every caller asking
    for the same length *set* — in any order, with any duplication — shares
    one cached stack; callers look segments up via
    :meth:`StackedOperatorTable.segment_index`.
    """
    canonical = tuple(sorted({int(n) for n in lengths}))
    if not canonical:
        raise ValueError("lengths must contain at least one sequence length")
    return _cached_stack(config, canonical, bool(include_recycles))


class WorkloadCacheInfo(NamedTuple):
    """LRU statistics of every operator-graph cache in this module."""

    workloads: object
    labels: object
    tables: object
    stacks: object


def clear_workload_caches() -> None:
    """Drop all cached workloads, label templates, tables and stacks.

    Mainly for tests, memory pressure and cold-process benchmarks: after this
    call the next table build starts from nothing, label template included.
    """
    _cached_stack.cache_clear()
    _cached_table.cache_clear()
    _cached_labels.cache_clear()
    _cached_workload.cache_clear()


def workload_cache_info() -> WorkloadCacheInfo:
    """LRU statistics of the workload, label-template, table and stack caches."""
    return WorkloadCacheInfo(
        workloads=_cached_workload.cache_info(),
        labels=_cached_labels.cache_info(),
        tables=_cached_table.cache_info(),
        stacks=_cached_stack.cache_info(),
    )
