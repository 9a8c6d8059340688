"""Columnar (struct-of-arrays) operator tables, evaluated from per-row cubics in n.

One PPM inference is ~3k operator rows, and every simulator downstream (the
LightNobel accelerator, the GPU baseline, the cost models) only consumes whole
*columns* of them — MAC counts, element counts, phase labels — at many
sequence lengths.  :class:`OperatorTable` stores the rows as numpy columns
plus small per-table label vocabularies (engines, phases, subphases,
activation groups) with integer code arrays.
``OperatorTable.from_workload(build_model_ops(...))`` converts the
:mod:`repro.ppm.workload` object graph and is the tests' oracle.

:func:`get_op_table` and :func:`get_stacked_table` build no graph.  Pair
activations grow as n² and triangle operations as n³, and every numeric
column of every operator row is an integer cubic in the sequence length n.
Once per ``(config, include_recycles)`` the fit runs each distinct
:func:`~repro.ppm.workload.model_segments` builder at n = 1–8, takes each
representative row's four integer coefficients from n = 1–4 and checks that
the fourth difference is 0 at n = 5–8, raising otherwise.  The builders'
one-residue rows give the label vocabularies and codes, and their names under
each run's prefix give the row names; with the row map they serve every
length.  A table, or a stack of L lengths, is one Horner evaluation over
(L × 5 columns × representatives).  Fits and stacks each have an LRU cache,
and a table is the one segment of its cached one-length stack: these two
LRUs are the only cache of operator tables.

Exactness: Horner's rule on integer coefficients is exact while every
intermediate is an integer of at most 2^53, and so are the builders' own
products.  :func:`exact_length_limit` is the largest such n (41,285 on the
paper config, whose largest cubic coefficient is 128); up to it a table is
bytewise the object-graph table.  Above it both sides round, at most six
times in Horner's rule and about as often in a builder, by at most 2^-53
relative each.  The coefficients are non-negative, so nothing cancels, and
every value stays within 2e-15 relative of the builders'.

:class:`StackedOperatorTable` holds the tables of many distinct lengths as
one ragged column set with per-length segment offsets, so a backend prices a
whole traffic mix in one numpy pass and reduces each segment to its report.

Every table and stack carries a *row map*: ``rep_rows``, the rows that
represent each distinct set of pricing columns (label codes, ``fusible``,
numbers), and ``rep_index``, each row's position in ``rep_rows``.  A fitted
table has one representative per row of one block of each distinct segment
builder (85 of the paper config's 3,234 rows).
:meth:`~OperatorTable.representatives` holds their pricing columns and
*multiplicities* (rows each stands for) and is all a table stores of its
numbers: a full-row column is gathered through ``rep_index`` on first read.
The backends price representatives only, and
:meth:`StackedOperatorTable.segment_sums` reduces them per segment as
multiplicity times value in representative order, which a segment keeps in
any mix: a length prices the same in every stack, and differs from row-order
sums by rounding only (under 4e-14 relative on the paper config).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .._search import largest_n
from .config import PPMConfig
from .labels import PHASE_INPUT_EMBEDDING
from .workload import Operator, Workload, check_sequence_length, model_segments

# Unused here: perfbench's dse-sweep traces ``op_table.build_model_ops`` by name.
from .workload import build_model_ops  # noqa: F401

#: Column names holding per-operator numeric data.
NUMERIC_COLUMNS = ("macs", "vector_ops", "input_elements", "output_elements", "weight_elements")

#: Label keys of :meth:`StackedOperatorTable.segment_sums`; key ``k`` has
#: codes ``{k}_codes`` and vocab ``{k}s``.
_LABEL_KEYS = ("engine", "phase", "subphase", "group")

#: The per-row label columns a representative keeps.
_LABEL_COLUMNS = tuple(f"{key}_codes" for key in _LABEL_KEYS) + ("fusible",)

#: The per-row columns a representative keeps (label codes, ``fusible``, numbers).
_PRICING_COLUMNS = _LABEL_COLUMNS + NUMERIC_COLUMNS


def _encode(labels: Sequence) -> Tuple[np.ndarray, Tuple]:
    """Factorize ``labels`` into integer codes plus a first-appearance vocab."""
    vocab = tuple(dict.fromkeys(labels))
    index = {label: code for code, label in enumerate(vocab)}
    return np.array([index[label] for label in labels], dtype=np.int64), vocab


def _freeze(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _numeric_rows(operators: Sequence[Operator]) -> np.ndarray:
    """``(len(NUMERIC_COLUMNS), len(operators))`` float64 array of the numbers."""
    return np.array(
        [[getattr(op, column) for op in operators] for column in NUMERIC_COLUMNS],
        dtype=np.float64,
    )


def _labels(operators: Sequence[Operator]) -> Dict:
    """Vocabularies, label codes and ``fusible`` of ``operators``."""
    labels: Dict = {}
    for key, attribute in zip(_LABEL_KEYS, ("engine", "phase", "subphase", "output_group")):
        codes, labels[f"{key}s"] = _encode([getattr(op, attribute) for op in operators])
        labels[f"{key}_codes"] = _freeze(codes)
    labels["fusible"] = _freeze(np.array([op.fusible for op in operators], dtype=bool))
    return labels


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


def _rep_labels(labels: Dict, row_map: Dict[str, np.ndarray]) -> Dict:
    """The length-free fields of ``RepresentativeRows``: vocabs, label codes, counts."""
    rows, index = row_map["rep_rows"], row_map["rep_index"]
    return {
        "counts": _freeze(np.bincount(index, minlength=len(rows)).astype(np.float64)),
        **{f"{key}s": labels[f"{key}s"] for key in _LABEL_KEYS},
        **{name: _freeze(labels[name][rows]) for name in _LABEL_COLUMNS},
    }


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

    Built with each table or stack; row ``i`` is table row ``rep_rows[i]``
    and stands for ``counts[i]`` rows (float64, so weighting a value is one
    multiply).  Vocabularies are the table's own, so the label masks and
    per-group parameter gathers of the backends work unchanged.
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


def _expanded(name: str) -> cached_property:
    """A full-row column: each row's representative's value, gathered on first read."""
    return cached_property(
        lambda view: _freeze(np.take(getattr(view.reps, name), view.rep_index))
    )


class _RowMapped(_Columns):
    """The row-map half of the table protocol (``rep_rows``/``rep_index``/``reps``)."""

    def representatives(self) -> RepresentativeRows:
        """The representative rows' pricing columns and counts."""
        return self.reps

    def _vocabs(self) -> Dict[str, Tuple]:
        return {f"{key}s": getattr(self, f"{key}s") for key in _LABEL_KEYS}


@dataclass(frozen=True, eq=False)
class OperatorTable(_RowMapped):
    """One operator graph stored column-wise (struct of arrays).

    ``rep_rows`` and ``rep_index`` (int32, kept out of the repr) are the row
    map: row ``i`` has the same label codes, ``fusible`` and numeric columns
    as row ``rep_rows[rep_index[i]]``.  ``reps`` holds the representatives'
    pricing columns; the full-row numeric columns are gathered from it.
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
    fusible: np.ndarray
    rep_rows: np.ndarray = field(repr=False)
    rep_index: np.ndarray = field(repr=False)
    reps: RepresentativeRows = field(repr=False)

    macs = _expanded("macs")
    vector_ops = _expanded("vector_ops")
    input_elements = _expanded("input_elements")
    output_elements = _expanded("output_elements")
    weight_elements = _expanded("weight_elements")

    @classmethod
    def from_workload(cls, workload: Workload) -> "OperatorTable":
        operators = workload.operators
        labels = _labels(operators)
        numbers = _numeric_rows(operators)
        # Numbers are keyed by their bits: 0.0 and -0.0 stay apart.
        row_map = _row_map(*(labels[name] for name in _LABEL_COLUMNS), *numbers.view(np.int64))
        reps = RepresentativeRows(
            **_rep_labels(labels, row_map),
            **dict(zip(NUMERIC_COLUMNS, _freeze(numbers[:, row_map["rep_rows"]]))),
        )
        return cls(
            sequence_length=workload.sequence_length, config=workload.config,
            names=tuple(op.name for op in operators), reps=reps, **row_map, **labels,
        )

    def __len__(self) -> int:
        return len(self.names)


def _slices(bounds: np.ndarray) -> Tuple[slice, ...]:
    bounds = bounds.tolist()
    return tuple(slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:]))


@dataclass(frozen=True, eq=False)
class StackedOperatorTable(_RowMapped):
    """Operator tables of many sequence lengths, concatenated column-wise.

    Segment ``i`` (rows ``segment_starts[i]:segment_starts[i+1]``) holds the
    operators of ``lengths[i]``, bytewise the columns of ``tables[i]``, under
    the one label vocabulary every table shares.  ``reps`` holds every
    segment's representatives in segment order: segment ``i``'s are
    ``rep_rows[rep_starts[i]:rep_starts[i+1]]``, and ``rep_index`` is each
    table's shifted by ``rep_starts[i]``.  Pricing reads ``reps`` alone; the
    full-row columns are gathered through ``rep_index`` on first read.  A
    one-table stack reuses the table's arrays instead of copying them.
    """

    config: PPMConfig
    lengths: Tuple[int, ...]
    tables: Tuple[OperatorTable, ...]
    segment_starts: np.ndarray
    engines: Tuple[str, ...]
    phases: Tuple[str, ...]
    subphases: Tuple[str, ...]
    groups: Tuple[Optional[str], ...]
    rep_starts: np.ndarray = field(repr=False)
    reps: RepresentativeRows = field(repr=False)

    engine_codes = _expanded("engine_codes")
    phase_codes = _expanded("phase_codes")
    subphase_codes = _expanded("subphase_codes")
    group_codes = _expanded("group_codes")
    fusible = _expanded("fusible")
    macs = _expanded("macs")
    vector_ops = _expanded("vector_ops")
    input_elements = _expanded("input_elements")
    output_elements = _expanded("output_elements")
    weight_elements = _expanded("weight_elements")

    # ------------------------------------------------------------ construction
    @classmethod
    def from_tables(cls, tables: Sequence[OperatorTable]) -> "StackedOperatorTable":
        if not tables:
            raise ValueError("cannot stack zero operator tables")
        first = tables[0]
        for table in tables[1:]:
            if table.config != first.config:
                raise ValueError("all stacked tables must share one PPMConfig")
            if table._vocabs() != first._vocabs():
                raise ValueError("all stacked tables must share one label vocabulary")
        if len(tables) == 1:
            return cls._of(tables, first.reps)
        return cls._of(tables, RepresentativeRows(**first._vocabs(), **{
            name: _freeze(np.concatenate([getattr(t.reps, name) for t in tables]))
            for name in _PRICING_COLUMNS + ("counts",)
        }))

    @classmethod
    def _of(
        cls, tables: Sequence[OperatorTable], reps: RepresentativeRows
    ) -> "StackedOperatorTable":
        """The stack of ``tables`` whose representatives, in segment order, are ``reps``."""
        lengths = tuple(t.sequence_length for t in tables)
        if len(set(lengths)) != len(lengths):
            raise ValueError("stacked lengths must be distinct")
        return cls(
            config=tables[0].config,
            lengths=lengths,
            tables=tuple(tables),
            segment_starts=_freeze(np.cumsum([0] + [len(t) for t in tables], dtype=np.int64)),
            rep_starts=_freeze(np.cumsum([0] + [len(t.rep_rows) for t in tables], dtype=np.int64)),
            reps=reps,
            **tables[0]._vocabs(),
        )

    def _shifted(self, name: str, offsets: np.ndarray) -> np.ndarray:
        """Each table's ``name`` shifted by its offset, joined (a lone table's is reused)."""
        # Python-int offsets keep the int32 maps int32.
        arrays = [getattr(t, name) + offset if offset else getattr(t, name)
                  for t, offset in zip(self.tables, offsets.tolist())]
        return arrays[0] if len(arrays) == 1 else _freeze(np.concatenate(arrays))

    @cached_property
    def rep_rows(self) -> np.ndarray:
        return self._shifted("rep_rows", self.segment_starts)

    @cached_property
    def rep_index(self) -> np.ndarray:
        return self._shifted("rep_index", self.rep_starts)

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

    def _label_bins(self, key: str) -> Tuple[np.ndarray, Tuple]:
        """(per-representative bins, vocab) of ``key``; a bin is ``segment * len(vocab) + code``.

        Built once per stack and key: stacks are LRU-cached and priced many
        times.
        """
        cache = self.__dict__.setdefault("_bins", {})
        bins = cache.get(key)
        if bins is None:
            codes, vocab = self.representatives()._codes_for(key)
            bins = cache[key] = (_freeze(self._segment_ids * len(vocab) + codes), vocab)
        return bins

    def segment_sums(self, values: np.ndarray, *keys: str) -> Tuple[np.ndarray, List[List[Dict]]]:
        """Per-segment row sums of representative ``values``, one bincount each.

        ``values`` is ``(len(rep_rows),)`` or ``(k, len(rep_rows))``: per
        representative, the value every row it stands for holds.  Each is
        weighted by its multiplicity, so a segment's sum over its
        representatives is the sum over its rows.  Returns ``(totals,
        labelled)``: ``totals[j, i]`` is segment ``i``'s sum of ``values[j]``,
        and ``labelled[k][i]`` is segment ``i``'s per-label dict of the sums
        of ``values[0]`` for ``keys[k]``, over the vocab in its order.

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
            bins, vocab = self._label_bins(key)
            sums = np.bincount(bins, weights=weighted[0], minlength=count * len(vocab))
            # One tolist() converts every bin to a Python float (exact for
            # float64), avoiding a numpy-scalar __float__ per (segment, label).
            rows = sums.reshape(count, len(vocab)).tolist()
            labelled.append([dict(zip(vocab, row)) for row in rows])
        return totals, labelled


# -------------------------------------------------------------------- fitting
#: Six times the inverse Vandermonde matrix of n = 1..4: ``M @ y // 6`` are the
#: coefficients ``c0..c3`` of the cubic through ``y`` at n = 1..4.
_CUBIC_THROUGH_FIRST_FOUR = np.array(
    [[24, -36, 24, -6], [-26, 57, -42, 11], [9, -24, 21, -6], [-1, 3, -3, 1]],
    dtype=np.int64,
)
#: The lengths a fit runs the builders at: n = 1..4 fix each cubic, 5..8 check it.
_FIT_LENGTHS = range(1, 9)
#: Every integer up to this one is a float64.
_EXACT = 2 ** 53


def _exact_limit(coefficients: np.ndarray) -> int:
    """Largest n at which every Horner intermediate of ``coefficients`` is at most 2^53.

    Each intermediate is bounded by the cubic of the coefficients' magnitudes,
    which is evaluated in int64: it stays below 8 * 2^53 during the search.
    """
    c0, c1, c2, c3 = np.abs(coefficients).reshape(4, -1)

    return largest_n(lambda n: bool((((c3 * n + c2) * n + c1) * n + c0).max() <= _EXACT))


class _Cubics:
    """Per ``(config, include_recycles)``: labels, row map and each representative's cubic."""

    def __init__(self, config: PPMConfig, include_recycles: bool) -> None:
        segments = model_segments(config, include_recycles)
        blocks = {  # one block of each distinct builder at n = 1..8
            builder: [builder(config, n) for n in _FIT_LENGTHS]
            for builder in dict.fromkeys(builder for builder, _, _ in segments)
        }
        # One representative per row of one block of each distinct builder:
        # no operator's numbers or labels depend on its block, pass or n.
        first: Dict = {}
        origins, names, start = [], [], 0
        for builder, count, prefix in segments:
            local = [op.name for op in blocks[builder][0]]
            base = first.setdefault(builder, start)
            origins.append(np.tile(np.arange(base, base + len(local)), count))
            for b in range(count):  # a fresh string per row, so pickles keep their bytes
                head = prefix.format(b)
                names += [f"{head}{name}" for name in local]
            start += len(local) * count
        row_map = _row_map(np.concatenate(origins))
        labels = {  # each row's representative's labels
            name: _freeze(value[row_map["rep_index"]]) if isinstance(value, np.ndarray) else value
            for name, value in _labels([op for fit in blocks.values() for op in fit[0]]).items()
        }
        #: Every field of a table but its length and numbers.
        self.fields = {"config": config, **row_map, "names": tuple(names), **labels}
        self.rep_labels = _rep_labels(labels, row_map)
        samples = np.concatenate(  # (n, columns, representatives)
            [np.stack([_numeric_rows(ops) for ops in fit]) for fit in blocks.values()], axis=2
        )
        self.coefficients = self._fit(samples, [names[row] for row in row_map["rep_rows"].tolist()])
        self.limit = _exact_limit(self.coefficients)
        # (4, columns, 1, representatives): broadcasts against (lengths, 1).
        self._horner = self.coefficients.astype(np.float64)[:, :, None, :]

    @staticmethod
    def _fit(values: np.ndarray, names: Sequence[str]) -> np.ndarray:
        """``(4, columns, representatives)`` int64 ``c0..c3`` of ``values`` at n = 1..8."""
        integers = values.astype(np.int64)
        sixfold = np.tensordot(_CUBIC_THROUGH_FIRST_FOUR, integers[:4], axes=1)
        for bad, problem in (  # checked in this order
            ((integers != values) | (np.abs(values) > _EXACT),
             "is not an integer of at most 2^53 at n = 1..8"),
            (np.diff(integers, n=4, axis=0) != 0,
             "is not a cubic in n: its fourth difference over n = 1..8 is not 0"),
            (sixfold % 6 != 0, "is a cubic in n without integer coefficients"),
        ):
            if bad.any():
                column, rep = np.argwhere(bad.any(axis=0))[0]
                raise ValueError(f"{names[rep]}.{NUMERIC_COLUMNS[column]} {problem}")
        return sixfold // 6

    def stack(self, lengths: Sequence[int]) -> StackedOperatorTable:
        """The stack of ``lengths`` (in order): one Horner pass, one table per length."""
        check_sequence_length(min(lengths))
        c0, c1, c2, c3 = self._horner
        n = np.array(lengths, dtype=np.float64)[:, None]
        numbers = _freeze(((c3 * n + c2) * n + c1) * n + c0)  # (columns, lengths, reps)
        tables = [
            OperatorTable(sequence_length=length, reps=RepresentativeRows(
                **self.rep_labels, **dict(zip(NUMERIC_COLUMNS, numbers[:, i]))
            ), **self.fields)
            for i, length in enumerate(lengths)
        ]
        if len(tables) == 1:
            return StackedOperatorTable._of(tables, tables[0].reps)
        return StackedOperatorTable._of(tables, RepresentativeRows(
            **{name: _freeze(np.tile(value, len(tables))) if isinstance(value, np.ndarray)
               else value for name, value in self.rep_labels.items()},
            **dict(zip(NUMERIC_COLUMNS, numbers.reshape(len(NUMERIC_COLUMNS), -1))),
        ))


# ------------------------------------------------------------------- caching
@lru_cache(maxsize=16)
def _cubics(config: PPMConfig, include_recycles: bool) -> _Cubics:
    return _Cubics(config, include_recycles)


@lru_cache(maxsize=32)
def _cached_stack(
    config: PPMConfig, lengths: Tuple[int, ...], include_recycles: bool
) -> StackedOperatorTable:
    return _cubics(config, include_recycles).stack(lengths)


def get_stacked_table(
    config: PPMConfig, lengths: Iterable[int], include_recycles: bool = False
) -> StackedOperatorTable:
    """LRU-cached stacked table over the *distinct, sorted* ``lengths``.

    The stack is canonicalized (sorted, deduplicated) so every caller asking
    for the same length *set* — in any order, with any duplication — shares
    one cached stack; callers look segments up via
    :meth:`StackedOperatorTable.segment_index`.  The whole stack is one
    Horner evaluation over (lengths × columns × representatives).
    """
    canonical = tuple(sorted({int(n) for n in lengths}))
    if not canonical:
        raise ValueError("lengths must contain at least one sequence length")
    return _cached_stack(config, canonical, bool(include_recycles))


def get_op_table(config: PPMConfig, n: int, include_recycles: bool = False) -> OperatorTable:
    """Columnar operator table for ``(config, n, include_recycles)``.

    The one segment of the cached one-length :func:`get_stacked_table`; bytewise
    the table ``OperatorTable.from_workload(build_model_ops(...))`` would give
    for every ``n`` up to :func:`exact_length_limit`.
    """
    return get_stacked_table(config, [n], include_recycles).tables[0]


def exact_length_limit(config: PPMConfig, include_recycles: bool = False) -> int:
    """Largest sequence length whose table is bytewise the object-graph table."""
    return _cubics(config, bool(include_recycles)).limit


def model_weight_elements(config: PPMConfig, include_language_model: bool = False) -> float:
    """Total trunk weight elements (optionally including the language model).

    Weights do not depend on the sequence length: the trunk total is the sum
    of the fitted constant terms of ``weight_elements`` outside the input
    embedding, each times its multiplicity.  These are integers below 2^53,
    so the sum is exact in any order.
    """
    fit = _cubics(config, False)
    reps = fit.rep_labels
    trunk = reps["phase_codes"] != reps["phases"].index(PHASE_INPUT_EMBEDDING)
    weights = fit.coefficients[0, NUMERIC_COLUMNS.index("weight_elements")]
    total = float(np.sum(weights[trunk] * reps["counts"][trunk]))
    if include_language_model:
        total += config.language_model_params
    return total


class WorkloadCacheInfo(NamedTuple):
    """LRU statistics of every operator-table cache in this module."""

    fits: object
    stacks: object


def clear_workload_caches() -> None:
    """Drop all cached fits and stacks.

    Mainly for tests, memory pressure and cold-process benchmarks: after this
    call the next table build starts from nothing, fit included.
    """
    _cached_stack.cache_clear()
    _cubics.cache_clear()


def workload_cache_info() -> WorkloadCacheInfo:
    """LRU statistics of the fit and stack caches."""
    return WorkloadCacheInfo(fits=_cubics.cache_info(), stacks=_cached_stack.cache_info())
