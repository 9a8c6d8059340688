"""Tests for the columnar operator-table engine and its simulator parity.

The acceptance bar for the columnar refactor: `OperatorTable`-backed
`simulate()` and DSE results must be numerically identical (within 1e-9
relative) to the per-operator scalar reference of `reference_pricing`.  The
tables themselves, evaluated from per-row cubics in the sequence length, must
be bytewise the tables of the object graph (`build_model_ops`, the oracle of
`reference_graph`) up to the exact limit, in numbers, labels, row map,
representatives and segment sums.
"""

import itertools
import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_graph import (
    builder_origins,
    by_phase,
    filter_ops,
    filter_table,
    oracle_table,
    select,
    structure_signature,
    table_by_phase,
    to_workload,
    total_macs,
    total_vector_ops,
)
from reference_pricing import (
    bottleneck_share,
    operator_latencies,
    simulate_accelerator_workload,
    simulate_gpu_workload,
    simulate_operators,
)

from repro.gpu import GPUModel
from repro.hardware import LightNobelAccelerator, LightNobelConfig
from repro.ppm import PPMConfig, workload as workload_module
from repro.ppm.op_table import (
    NUMERIC_COLUMNS,
    OperatorTable,
    StackedOperatorTable,
    clear_workload_caches,
    exact_length_limit,
    get_op_table,
    get_stacked_table,
    model_weight_elements,
    workload_cache_info,
)
from repro.ppm.workload import (
    ENGINE_MATMUL,
    ENGINE_VECTOR,
    PHASE_PAIR,
    PHASE_SEQUENCE,
    SUBPHASE_TRI_ATT,
    Workload,
    build_model_ops,
    model_segments,
)
from repro.analysis.sizes import int8_equivalent_cost
from repro.core import AAQConfig


@pytest.fixture(scope="module")
def paper_config():
    return PPMConfig.paper()


@pytest.fixture(scope="module")
def workload(paper_config):
    return build_model_ops(paper_config, 96)


@pytest.fixture(scope="module")
def table(workload):
    return OperatorTable.from_workload(workload)


REL = 1e-9


def relerr(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


class TestOperatorTable:
    def test_round_trip_preserves_every_operator(self, workload, table):
        restored = to_workload(table)
        assert len(restored.operators) == len(workload.operators) == len(table)
        for original, back in zip(workload.operators, restored.operators):
            assert original == back  # Operator is a frozen dataclass: field-wise

    def test_vectorized_totals_match_object_graph(self, workload, table):
        assert float(np.sum(table.macs)) == pytest.approx(total_macs(workload), rel=REL)
        assert float(np.sum(table.vector_ops)) == pytest.approx(
            total_vector_ops(workload), rel=REL
        )
        flops = sum(op.flops for op in workload.operators)
        assert float(np.sum(table.flops)) == pytest.approx(flops, rel=REL)

    def test_filter_matches_object_graph(self, workload, table):
        for phase, engine in [(PHASE_PAIR, None), (None, ENGINE_MATMUL),
                              (PHASE_SEQUENCE, ENGINE_VECTOR)]:
            ops = filter_ops(workload, phase=phase, engine=engine)
            sub = filter_table(table, phase=phase, engine=engine)
            assert len(sub) == len(ops)
            assert float(np.sum(sub.macs)) == pytest.approx(sum(op.macs for op in ops), rel=REL)

    def test_subphase_filter(self, table, workload):
        sub = filter_table(table, subphase=SUBPHASE_TRI_ATT)
        expected = [op for op in workload.operators if op.subphase == SUBPHASE_TRI_ATT]
        assert len(sub) == len(expected)

    def test_by_phase_matches_object_graph(self, workload, table):
        legacy = by_phase(workload)
        columnar = table_by_phase(table)
        assert list(columnar) == list(legacy)  # same first-appearance order
        for phase, sub in columnar.items():
            assert len(sub) == len(legacy[phase])

    def test_groupby_sum(self, workload, table):
        # The one per-label reduction is a stack's segment_sums.
        stack = StackedOperatorTable.from_tables([table])
        reps = table.representatives()
        ((phase_sums,),) = stack.segment_sums(reps.macs, "phase")[1]
        ((vector_sums,),) = stack.segment_sums(reps.vector_ops, "engine")[1]
        for phase, ops in by_phase(workload).items():
            assert phase_sums[phase] == pytest.approx(sum(op.macs for op in ops), rel=REL)
        assert vector_sums[ENGINE_VECTOR] == pytest.approx(total_vector_ops(workload), rel=REL)
        with pytest.raises(ValueError):
            stack.segment_sums(reps.macs, "nonsense")

    def test_columns_are_read_only(self, table):
        with pytest.raises(ValueError):
            table.macs[0] = 1.0
        with pytest.raises(ValueError):
            get_op_table(table.config, 96).macs[0] = 1.0

    @pytest.mark.parametrize(
        "shape", ["prefix", "longer", "two-dimensional", "scalar"]
    )
    def test_select_rejects_a_mask_of_another_shape(self, table, shape):
        rows = len(table)
        mask = {
            "prefix": [1, 0, 1, 1],
            "longer": np.ones(rows + 1, dtype=bool),
            "two-dimensional": np.ones((1, rows), dtype=bool),
            "scalar": True,
        }[shape]
        with pytest.raises(ValueError, match="mask shape"):
            select(table, mask)

    def test_select_accepts_a_full_length_list(self, table):
        mask = [i % 3 == 0 for i in range(len(table))]
        assert len(select(table, mask)) == sum(mask)


#: Every array column of a table; vocab tuples are compared by equality.
ARRAY_COLUMNS = NUMERIC_COLUMNS + (
    "engine_codes", "phase_codes", "subphase_codes", "group_codes", "fusible",
    "rep_rows", "rep_index",
)
VOCABS = ("names", "engines", "phases", "subphases", "groups")
STACK_VOCABS = ("engines", "phases", "subphases", "groups")
#: Every field of a table's representatives.
REP_ARRAYS = NUMERIC_COLUMNS + (
    "engine_codes", "phase_codes", "subphase_codes", "group_codes", "fusible", "counts",
)

PRESETS = {"paper": PPMConfig.paper, "small": PPMConfig.small, "tiny": PPMConfig.tiny}

configs = st.builds(
    lambda preset, blocks, recycles, chunks: PRESETS[preset]()
    .with_blocks(blocks)
    .with_recycles(recycles)
    .with_chunking(*chunks),
    st.sampled_from(sorted(PRESETS)),
    st.integers(1, 4),
    st.integers(0, 3),
    st.sampled_from([(None, None), (16, None), (None, 8), (32, 16)]),
)
lengths = st.integers(1, 8192)


def assert_bytewise_equal(actual, expected, arrays=ARRAY_COLUMNS, vocabs=VOCABS):
    for name in arrays:
        got, want = getattr(actual, name), getattr(expected, name)
        assert got.dtype == want.dtype, name
        assert got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name
    for name in vocabs:
        assert getattr(actual, name) == getattr(expected, name), name
    assert_bytewise_equal_reps(actual.representatives(), expected.representatives())


def assert_bytewise_equal_reps(actual, expected):
    for name in REP_ARRAYS:
        got, want = getattr(actual, name), getattr(expected, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
    for name in STACK_VOCABS:
        assert getattr(actual, name) == getattr(expected, name), name


def assert_same_segment_sums(actual, expected, values):
    """``segment_sums`` of both stacks, totals and every label key, bytewise."""
    keys = ("engine", "phase", "subphase", "group")
    got_totals, got_labelled = actual.segment_sums(values, *keys)
    want_totals, want_labelled = expected.segment_sums(values, *keys)
    assert got_totals.tobytes() == want_totals.tobytes()
    assert got_labelled == want_labelled
    for got, want in zip(got_labelled, want_labelled):
        assert [list(d) for d in got] == [list(d) for d in want]  # label order


class TestTableParity:
    """Fitted tables against the object-graph oracle, byte for byte."""

    @settings(max_examples=60, deadline=None)
    @given(config=configs, include_recycles=st.booleans(), data=st.data())
    def test_table_is_bytewise_the_object_graph_table(self, config, include_recycles, data):
        n = data.draw(st.integers(1, exact_length_limit(config, include_recycles)), label="n")
        table = get_op_table(config, n, include_recycles=include_recycles)
        expected = oracle_table(config, n, include_recycles)
        assert table.sequence_length == n and table.config == config
        assert_bytewise_equal(table, expected)
        one = StackedOperatorTable.from_tables([table])
        assert_same_segment_sums(
            one, StackedOperatorTable.from_tables([expected]), table.representatives().macs
        )

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    @pytest.mark.parametrize("include_recycles", [False, True])
    @pytest.mark.parametrize("n", [1, 7, 96, 257, 1000, 4096, 10655, "limit"])
    def test_presets_at_pinned_lengths(self, preset, include_recycles, n):
        config = PRESETS[preset]()
        if n == "limit":
            n = exact_length_limit(config, include_recycles)
        assert_bytewise_equal(
            get_op_table(config, n, include_recycles=include_recycles),
            oracle_table(config, n, include_recycles),
        )

    @settings(max_examples=25, deadline=None)
    @given(
        config=configs,
        mix=st.lists(lengths, min_size=1, max_size=6),
        include_recycles=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_stacked_table_is_bytewise_the_object_graph_stack(
        self, config, mix, include_recycles, seed
    ):
        # Shuffled, with duplicates: the stack is over the sorted distinct set.
        requested = mix + mix[: len(mix) // 2]
        random.Random(seed).shuffle(requested)
        stack = get_stacked_table(config, requested, include_recycles=include_recycles)
        expected = StackedOperatorTable.from_tables(
            [oracle_table(config, n, include_recycles) for n in sorted(set(mix))]
        )
        assert stack.lengths == expected.lengths
        assert stack.segment_starts.tobytes() == expected.segment_starts.tobytes()
        assert stack.rep_starts.tobytes() == expected.rep_starts.tobytes()
        assert_bytewise_equal(stack, expected, vocabs=STACK_VOCABS)
        for table, want in zip(stack.tables, expected.tables):
            assert_bytewise_equal(table, want)
        values = np.random.default_rng(seed).random((2, len(stack.rep_rows)))
        assert_same_segment_sums(stack, expected, values)

    @settings(max_examples=20, deadline=None)
    @given(config=configs, n=st.integers(1, 512), include_recycles=st.booleans())
    def test_to_workload_round_trips_to_the_object_graph(self, config, n, include_recycles):
        table = get_op_table(config, n, include_recycles=include_recycles)
        restored = to_workload(table)
        expected = build_model_ops(config, n, include_recycles=include_recycles)
        assert restored.sequence_length == n
        assert restored.operators == expected.operators

    def test_non_positive_length_is_rejected(self, paper_config):
        for n in (0, -3):
            with pytest.raises(ValueError):
                get_op_table(paper_config, n)
            with pytest.raises(ValueError):
                get_stacked_table(paper_config, [5, n])


#: Above the exact limit Horner's rule and the builders both round; the
#: module docstring bounds the difference.
ABOVE_LIMIT_REL = 2e-15


class TestCubicFit:
    """The fit itself: what it accepts, what it refuses, and its stated limits."""

    def test_paper_limit_follows_the_largest_cubic_coefficient(self, paper_config):
        limit = exact_length_limit(paper_config)
        assert limit == 41285  # 128 n^3 (+ lower terms) reaches 2^53 past it
        assert 128 * limit ** 3 < 2 ** 53 < 128 * (limit + 2) ** 3

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_values_above_the_limit_stay_within_the_stated_bound(self, preset):
        config = PRESETS[preset]()
        limit = exact_length_limit(config)
        for n in (limit + 1, 2 * limit + 1, 10 ** 6 + 3):
            table = get_op_table(config, n)
            expected = OperatorTable.from_workload(build_model_ops(config, n))
            for name in NUMERIC_COLUMNS:
                got, want = getattr(table, name), getattr(expected, name)
                assert np.all(np.abs(got - want) <= ABOVE_LIMIT_REL * np.abs(want)), (n, name)

    def test_every_length_shares_the_label_structure(self, paper_config):
        # What lets one fit hold every length's labels and row map.
        first = structure_signature(build_model_ops(paper_config, 1, include_recycles=True))
        for n in (2, 97, 4096):
            later = build_model_ops(paper_config, n, include_recycles=True)
            assert structure_signature(later) == first

    def _refit(self, monkeypatch, builder):
        """Fit the tiny config after swapping in ``builder`` for the structure module."""
        monkeypatch.setattr(workload_module, "build_structure_module_ops", builder)
        clear_workload_caches()
        try:
            get_op_table(PPMConfig.tiny(), 12)
        finally:
            monkeypatch.undo()
            clear_workload_caches()

    def test_a_non_polynomial_builder_raises_at_fit_time(self, monkeypatch):
        original = workload_module.build_structure_module_ops

        def stepped(config, n, num_layers=8):
            return [replace(op, macs=op.macs * math.ceil(n / 3)) for op in original(config, n)]

        with pytest.raises(ValueError, match=r"structure\.ipa_0\.macs is not a cubic in n"):
            self._refit(monkeypatch, stepped)

    def test_a_cubic_without_integer_coefficients_raises(self, monkeypatch):
        original = workload_module.build_structure_module_ops

        def triangular(config, n, num_layers=8):
            return [replace(op, vector_ops=n * (n + 1) / 2) for op in original(config, n)]

        with pytest.raises(ValueError, match="without integer coefficients"):
            self._refit(monkeypatch, triangular)

    def test_a_fractional_value_raises(self, monkeypatch):
        original = workload_module.build_structure_module_ops

        def halved(config, n, num_layers=8):
            return [replace(op, input_elements=op.input_elements + 0.5) for op in original(config, n)]

        with pytest.raises(ValueError, match="not an integer"):
            self._refit(monkeypatch, halved)


#: The columns a representative keeps: what the engines' arithmetic reads,
#: plus the phase/subphase codes their reductions bin by.
PRICING_COLUMNS = NUMERIC_COLUMNS + (
    "engine_codes", "phase_codes", "subphase_codes", "group_codes", "fusible",
)


def assert_valid_row_map(table):
    """Every row's pricing columns are bytewise its representative's."""
    rows = len(table)
    assert table.rep_rows.dtype == np.int32 and table.rep_index.dtype == np.int32
    assert table.rep_index.shape == (rows,)
    count = len(table.rep_rows)
    assert (count == 0) == (rows == 0)
    # Representatives are distinct rows in row order, each its own representative.
    assert np.all(np.diff(table.rep_rows) > 0)
    assert np.array_equal(table.rep_index[table.rep_rows], np.arange(count))
    representative = table.rep_rows[table.rep_index]
    for name in PRICING_COLUMNS:
        column = getattr(table, name)
        assert column[representative].tobytes() == column.tobytes(), name
    reps = table.representatives()
    for name in PRICING_COLUMNS:
        gathered = getattr(table, name)[table.rep_rows]
        assert getattr(reps, name).tobytes() == gathered.tobytes(), name
    # Multiplicities: how many rows each representative stands for.
    assert reps.counts.dtype == np.float64
    assert reps.counts.tolist() == np.bincount(table.rep_index, minlength=count).tolist()


def tiled_representatives(config, include_recycles):
    """One block of each distinct segment builder."""
    builders = {b for b, _, _ in model_segments(config, include_recycles)}
    return sum(len(builder(config, 1)) for builder in builders)


class TestRowMap:
    """Row maps of fitted, object-graph, sub- and stacked tables."""

    @settings(max_examples=60, deadline=None)
    @given(config=configs, n=lengths, include_recycles=st.booleans())
    def test_tiled_rows_match_their_representatives(self, config, n, include_recycles):
        table = get_op_table(config, n, include_recycles=include_recycles)
        assert_valid_row_map(table)
        assert len(table.rep_rows) == tiled_representatives(config, include_recycles)
        # Representatives are the first block of each builder, in row order.
        origins = builder_origins(config, include_recycles)
        assert table.rep_rows.tolist() == np.unique(origins).tolist()

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    @pytest.mark.parametrize("include_recycles", [False, True])
    @pytest.mark.parametrize("n", [1, 7, 96, 257, 1000, 4096])
    def test_presets_at_pinned_lengths(self, preset, include_recycles, n):
        assert_valid_row_map(
            get_op_table(PRESETS[preset](), n, include_recycles=include_recycles)
        )

    @settings(max_examples=25, deadline=None)
    @given(config=configs, n=st.integers(1, 1024), include_recycles=st.booleans())
    def test_object_graph_rows_match_their_representatives(
        self, config, n, include_recycles
    ):
        table = OperatorTable.from_workload(
            build_model_ops(config, n, include_recycles=include_recycles)
        )
        assert_valid_row_map(table)
        # Bytewise dedup never finds more distinct rows than the tiling.
        assert len(table.rep_rows) <= tiled_representatives(config, include_recycles)

    def test_object_graph_keeps_signed_zeros_apart(self, paper_config):
        base = build_model_ops(paper_config, 8).operators[0]
        operators = [replace(base, macs=0.0), replace(base, macs=-0.0)]
        table = OperatorTable.from_workload(Workload(8, paper_config, operators))
        assert table.rep_rows.tolist() == [0, 1]
        assert_valid_row_map(table)

    @settings(max_examples=30, deadline=None)
    @given(
        config=configs,
        n=lengths,
        include_recycles=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        density=st.sampled_from([0.0, 0.05, 0.5, 1.0]),
    )
    def test_select_and_filter_keep_a_valid_map(
        self, config, n, include_recycles, seed, density
    ):
        table = get_op_table(config, n, include_recycles=include_recycles)
        mask = np.random.default_rng(seed).random(len(table)) < density
        sub = select(table, mask)
        assert_valid_row_map(sub)
        assert len(sub.rep_rows) == len(np.unique(table.rep_index[mask]))
        for kwargs in ({"phase": PHASE_PAIR}, {"engine": ENGINE_MATMUL},
                       {"subphase": SUBPHASE_TRI_ATT}):
            assert_valid_row_map(filter_table(table, **kwargs))
        for sub in table_by_phase(table).values():
            assert_valid_row_map(sub)

    @settings(max_examples=25, deadline=None)
    @given(
        config=configs,
        mix=st.lists(lengths, min_size=1, max_size=6, unique=True),
        include_recycles=st.booleans(),
    )
    def test_stacks_join_the_table_maps(self, config, mix, include_recycles):
        stack = get_stacked_table(config, mix, include_recycles=include_recycles)
        assert_valid_row_map(stack)
        assert stack.rep_starts.tolist() == np.cumsum(
            [0] + [len(t.rep_rows) for t in stack.tables]
        ).tolist()
        for table, rows, reps in zip(stack.tables, stack.segments, stack.rep_segments):
            assert np.array_equal(stack.rep_rows[reps] - rows.start, table.rep_rows)
            assert np.array_equal(stack.rep_index[rows] - reps.start, table.rep_index)
        lone = StackedOperatorTable.from_tables([stack.tables[0]])
        assert_valid_row_map(lone)
        assert lone.rep_index is stack.tables[0].rep_index  # reused, not copied

    def test_tiled_tables_share_one_map_per_config(self, paper_config):
        first, second = get_op_table(paper_config, 300), get_op_table(paper_config, 301)
        assert first.rep_rows is second.rep_rows
        assert first.rep_index is second.rep_index
        assert len(first.rep_rows) == 85 and len(first) == 3234

    def test_representatives_are_built_once(self, paper_config):
        oracle = OperatorTable.from_workload(build_model_ops(paper_config, 8))
        stack = get_stacked_table(paper_config, [300, 302])
        for view in (get_op_table(paper_config, 302), oracle, stack):
            assert view.representatives() is view.representatives()

    def test_map_stays_out_of_repr(self, paper_config):
        assert "rep_" not in repr(get_op_table(paper_config, 4))


class TestWorkloadCache:
    def test_each_config_is_fitted_once(self, paper_config):
        clear_workload_caches()
        get_op_table(paper_config, 64)
        get_op_table(paper_config, 65, include_recycles=True)
        get_stacked_table(paper_config, [66, 67])
        get_stacked_table(paper_config, [68, 69], include_recycles=True)
        info = workload_cache_info()
        assert info.fits.currsize == 2  # one fit per include_recycles
        assert info.fits.misses == 2
        assert info.stacks.currsize == 4

    def test_clear_drops_the_label_templates(self, paper_config):
        get_op_table(paper_config, 64)
        assert workload_cache_info().fits.currsize >= 1
        clear_workload_caches()
        assert all(cache.currsize == 0 for cache in workload_cache_info())

    def test_cache_returns_same_object(self, paper_config):
        clear_workload_caches()
        first = get_op_table(paper_config, 64)
        second = get_op_table(paper_config, 64)
        assert first is second

    def test_cache_distinguishes_keys(self, paper_config):
        base = get_op_table(paper_config, 64)
        assert get_op_table(paper_config, 65) is not base
        assert get_op_table(paper_config.with_blocks(2), 64) is not base
        assert get_op_table(paper_config, 64, include_recycles=True) is not base

    def test_model_weight_elements_memoized_value(self):
        for preset, blocks, recycles in itertools.product(sorted(PRESETS), (None, 1, 3), (0, 3)):
            config = PRESETS[preset]().with_recycles(recycles)
            if blocks is not None:
                config = config.with_blocks(blocks)
            # The trunk's weights summed over the object graph.
            direct = sum(
                op.weight_elements
                for op in build_model_ops(config, 4).operators
                if op.phase != "input_embedding"
            )
            assert model_weight_elements(config) == direct
            assert model_weight_elements(config, include_language_model=True) == (
                direct + config.language_model_params
            )


def assert_operator_latencies_match(fast, legacy):
    assert len(fast) == len(legacy)
    for a, b in zip(fast, legacy):
        assert a.name == b.name and a.phase == b.phase and a.subphase == b.subphase
        assert a.rmpu_cycles == pytest.approx(b.rmpu_cycles, rel=REL, abs=1e-12)
        assert a.vvpu_cycles == pytest.approx(b.vvpu_cycles, rel=REL, abs=1e-12)
        assert a.memory_cycles == pytest.approx(b.memory_cycles, rel=REL, abs=1e-12)
        assert a.bottleneck == b.bottleneck


class TestAcceleratorParity:
    @pytest.mark.parametrize("n", [48, 160])
    @pytest.mark.parametrize("tokenwise_mha", [True, False])
    def test_simulate_matches_legacy(self, paper_config, n, tokenwise_mha):
        accelerator = LightNobelAccelerator(ppm_config=paper_config, tokenwise_mha=tokenwise_mha)
        legacy = simulate_accelerator_workload(accelerator, build_model_ops(paper_config, n))
        fast = accelerator.simulate(n)
        assert relerr(fast.total_cycles, legacy.total_cycles) < REL
        assert relerr(fast.total_seconds, legacy.total_seconds) < REL
        assert relerr(fast.dram_bytes, legacy.dram_bytes) < REL
        assert set(fast.phase_cycles) == set(legacy.phase_cycles)
        for phase, cycles in legacy.phase_cycles.items():
            assert relerr(fast.phase_cycles[phase], cycles) < REL
        for subphase, cycles in legacy.subphase_cycles.items():
            assert relerr(fast.subphase_cycles[subphase], cycles) < REL

    def test_per_operator_latencies_match_legacy(self, paper_config):
        accelerator = LightNobelAccelerator(ppm_config=paper_config)
        workload = build_model_ops(paper_config, 64)
        legacy = simulate_operators(accelerator, workload)
        table = OperatorTable.from_workload(workload)
        fast = operator_latencies(accelerator.simulate_table(table), table)
        assert_operator_latencies_match(fast, legacy)

    @pytest.mark.parametrize("source", ["tiled", "stack segment"])
    @pytest.mark.parametrize("n", [64, 257])
    def test_per_operator_latencies_match_legacy_on_tiled_tables(
        self, paper_config, source, n
    ):
        accelerator = LightNobelAccelerator(ppm_config=paper_config)
        legacy = simulate_operators(accelerator, build_model_ops(paper_config, n))
        if source == "tiled":
            table = get_op_table(paper_config, n)
            fast = accelerator.simulate_table(table)
        else:
            stack = get_stacked_table(paper_config, [48, n, 1000])
            table = stack.tables[stack.segment_index(n)]
            fast = accelerator.simulate_stack(stack)[stack.segment_index(n)]
        assert_operator_latencies_match(operator_latencies(fast, table), legacy)

    def test_stack_segments_equal_one_segment_reports_exactly(self, paper_config):
        accelerator = LightNobelAccelerator(ppm_config=paper_config)
        mix = [64, 257, 1000]
        stack = get_stacked_table(paper_config, mix)
        stacked = accelerator.simulate_stack(stack)
        for n, table, report in zip(mix, stack.tables, stacked):
            alone_table = get_op_table(paper_config, n)
            alone = accelerator.simulate_table(alone_table)
            assert operator_latencies(report, table) == operator_latencies(alone, alone_table)
            assert report.bottleneck_share() == alone.bottleneck_share()
            assert report.total_cycles == alone.total_cycles
            assert report.dram_bytes == alone.dram_bytes

    def test_bottleneck_share_matches_legacy(self, paper_config):
        accelerator = LightNobelAccelerator(ppm_config=paper_config)
        workload = build_model_ops(paper_config, 96)
        legacy = bottleneck_share(simulate_operators(accelerator, workload))
        fast = accelerator.simulate(96).bottleneck_share()
        assert set(fast) == set(legacy)
        for engine, share in legacy.items():
            assert fast[engine] == pytest.approx(share, rel=REL, abs=1e-12)

    def test_dse_sweep_matches_legacy(self, paper_config):
        """Fig. 12-style sweep: every design point identical on both paths."""
        lengths = [48, 96]
        for rmpus in (8, 32):
            hw = LightNobelConfig(num_rmpus=rmpus)
            accelerator = LightNobelAccelerator(hw_config=hw, ppm_config=paper_config)
            legacy = np.mean(
                [
                    simulate_accelerator_workload(
                        accelerator, build_model_ops(paper_config, n)
                    ).total_seconds
                    for n in lengths
                ]
            )
            fast = np.mean([accelerator.simulate(n).total_seconds for n in lengths])
            assert relerr(fast, legacy) < REL


class TestGPUParity:
    @pytest.mark.parametrize("chunked", [False, True])
    @pytest.mark.parametrize("gpu", ["A100", "H100"])
    def test_simulate_matches_legacy(self, paper_config, gpu, chunked):
        model = GPUModel(gpu, ppm_config=paper_config)
        legacy = simulate_gpu_workload(model, build_model_ops(paper_config, 96), chunked=chunked)
        fast = model.simulate(96, chunked=chunked)
        assert relerr(fast.total_seconds, legacy.total_seconds) < REL
        assert relerr(fast.kernel_count, legacy.kernel_count) < REL
        assert fast.out_of_memory == legacy.out_of_memory
        for phase, seconds in legacy.phase_seconds.items():
            assert relerr(fast.phase_seconds[phase], seconds) < REL
        for subphase, seconds in legacy.subphase_seconds.items():
            assert relerr(fast.subphase_seconds[subphase], seconds) < REL


class TestCostModelParity:
    def test_int8_cost_matches_object_graph(self, paper_config, workload, table):
        from repro.ppm.activation_tap import GROUP_C

        for aaq in (None, AAQConfig.paper_optimal()):
            legacy = 0.0
            for op in workload.operators:
                if op.engine == ENGINE_MATMUL and op.macs > 0:
                    if aaq is None:
                        act_bits = 16.0
                    else:
                        group_config = aaq.config_for(op.output_group or GROUP_C)
                        hidden = paper_config.pair_dim
                        outliers = min(group_config.outlier_count, hidden)
                        act_bits = (
                            (hidden - outliers) * group_config.inlier_bits
                            + outliers * group_config.outlier_bits
                        ) / hidden
                    legacy += op.macs * (act_bits / 8.0) * 2.0
                else:
                    legacy += op.vector_ops * 2.0
            assert int8_equivalent_cost(table, aaq) == pytest.approx(legacy, rel=REL)
            # The fitted layout of the same graph prices the same.
            oracle = oracle_table(paper_config, 96, workload=workload)
            assert int8_equivalent_cost(oracle, aaq) == pytest.approx(legacy, rel=REL)
