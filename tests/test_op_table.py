"""Tests for the columnar operator-table engine and its simulator parity.

The acceptance bar for the columnar refactor: `OperatorTable`-backed
`simulate()` and DSE results must be numerically identical (within 1e-9
relative) to the per-operator scalar reference of `reference_pricing`.  The
tables themselves, built from one tiled block per graph segment, must be
bytewise the tables of the object graph (`build_model_ops`, the oracle).
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_pricing import (
    bottleneck_share,
    simulate_accelerator_workload,
    simulate_gpu_workload,
)

from repro.gpu import GPUModel
from repro.hardware import LightNobelAccelerator, LightNobelConfig
from repro.ppm import PPMConfig
from repro.ppm.op_table import (
    NUMERIC_COLUMNS,
    OperatorTable,
    StackedOperatorTable,
    clear_workload_caches,
    get_op_table,
    get_stacked_table,
    get_workload,
    workload_cache_info,
)
from repro.ppm.workload import (
    ENGINE_MATMUL,
    ENGINE_VECTOR,
    PHASE_PAIR,
    PHASE_SEQUENCE,
    SUBPHASE_TRI_ATT,
    build_model_ops,
    model_segments,
    model_weight_elements,
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
        restored = table.to_workload()
        assert len(restored.operators) == len(workload.operators) == len(table)
        for original, back in zip(workload.operators, restored.operators):
            assert original == back  # Operator is a frozen dataclass: field-wise

    def test_vectorized_totals_match_object_graph(self, workload, table):
        assert table.total_macs() == pytest.approx(workload.total_macs(), rel=REL)
        assert table.total_vector_ops() == pytest.approx(workload.total_vector_ops(), rel=REL)
        flops = sum(op.flops for op in workload.operators)
        assert table.total_flops() == pytest.approx(flops, rel=REL)

    def test_filter_matches_object_graph(self, workload, table):
        for phase, engine in [(PHASE_PAIR, None), (None, ENGINE_MATMUL),
                              (PHASE_SEQUENCE, ENGINE_VECTOR)]:
            ops = workload.filter(phase=phase, engine=engine)
            sub = table.filter(phase=phase, engine=engine)
            assert len(sub) == len(ops)
            assert sub.total_macs() == pytest.approx(sum(op.macs for op in ops), rel=REL)

    def test_subphase_filter(self, table, workload):
        sub = table.filter(subphase=SUBPHASE_TRI_ATT)
        expected = [op for op in workload.operators if op.subphase == SUBPHASE_TRI_ATT]
        assert len(sub) == len(expected)

    def test_by_phase_matches_object_graph(self, workload, table):
        legacy = workload.by_phase()
        columnar = table.by_phase()
        assert list(columnar) == list(legacy)  # same first-appearance order
        for phase, sub in columnar.items():
            assert len(sub) == len(legacy[phase])

    def test_groupby_sum(self, workload, table):
        sums = table.groupby_sum("phase", "macs")
        for phase, ops in workload.by_phase().items():
            assert sums[phase] == pytest.approx(sum(op.macs for op in ops), rel=REL)
        engine_sums = table.groupby_sum("engine", "vector_ops")
        assert engine_sums[ENGINE_VECTOR] == pytest.approx(
            workload.total_vector_ops(), rel=REL
        )
        with pytest.raises(ValueError):
            table.groupby_sum("nonsense")
        with pytest.raises(ValueError):
            table.column("nonsense")

    def test_columns_are_read_only(self, table):
        with pytest.raises(ValueError):
            table.macs[0] = 1.0

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
            table.select(mask)

    def test_select_accepts_a_full_length_list(self, table):
        mask = [i % 3 == 0 for i in range(len(table))]
        assert len(table.select(mask)) == sum(mask)


#: Every array column of a table; vocab tuples are compared by equality.
ARRAY_COLUMNS = NUMERIC_COLUMNS + (
    "engine_codes", "phase_codes", "subphase_codes", "group_codes", "fusible",
)
VOCABS = ("names", "engines", "phases", "subphases", "groups")
STACK_VOCABS = ("engines", "phases", "subphases", "groups")

PRESETS = {"paper": PPMConfig.paper, "small": PPMConfig.small, "tiny": PPMConfig.tiny}

configs = st.builds(
    lambda preset, blocks, recycles: PRESETS[preset]()
    .with_blocks(blocks)
    .with_recycles(recycles),
    st.sampled_from(sorted(PRESETS)),
    st.integers(1, 4),
    st.integers(0, 3),
)
lengths = st.integers(1, 8192)


def oracle_table(config, n, include_recycles):
    return OperatorTable.from_workload(
        build_model_ops(config, n, include_recycles=include_recycles)
    )


def assert_bytewise_equal(actual, expected, arrays=ARRAY_COLUMNS, vocabs=VOCABS):
    for name in arrays:
        got, want = getattr(actual, name), getattr(expected, name)
        assert got.dtype == want.dtype, name
        assert got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name
    for name in vocabs:
        assert getattr(actual, name) == getattr(expected, name), name


class TestTableParity:
    """Tiled tables against the object-graph oracle, column for column."""

    @settings(max_examples=60, deadline=None)
    @given(config=configs, n=lengths, include_recycles=st.booleans())
    def test_table_is_bytewise_the_object_graph_table(self, config, n, include_recycles):
        table = get_op_table(config, n, include_recycles=include_recycles)
        expected = oracle_table(config, n, include_recycles)
        assert table.sequence_length == n and table.config == config
        assert_bytewise_equal(table, expected)

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    @pytest.mark.parametrize("include_recycles", [False, True])
    @pytest.mark.parametrize("n", [1, 7, 96, 257, 1000, 4096])
    def test_presets_at_pinned_lengths(self, preset, include_recycles, n):
        config = PRESETS[preset]()
        assert_bytewise_equal(
            get_op_table(config, n, include_recycles=include_recycles),
            oracle_table(config, n, include_recycles),
        )

    @settings(max_examples=25, deadline=None)
    @given(
        config=configs,
        mix=st.lists(lengths, min_size=1, max_size=6, unique=True),
        include_recycles=st.booleans(),
    )
    def test_stacked_table_is_bytewise_the_object_graph_stack(
        self, config, mix, include_recycles
    ):
        stack = get_stacked_table(config, mix, include_recycles=include_recycles)
        expected = StackedOperatorTable.from_tables(
            [oracle_table(config, n, include_recycles) for n in sorted(mix)]
        )
        assert stack.lengths == expected.lengths
        assert stack.segment_starts.tobytes() == expected.segment_starts.tobytes()
        assert_bytewise_equal(stack, expected, vocabs=STACK_VOCABS)

    @settings(max_examples=20, deadline=None)
    @given(config=configs, n=st.integers(1, 512), include_recycles=st.booleans())
    def test_to_workload_round_trips_to_the_object_graph(self, config, n, include_recycles):
        table = get_op_table(config, n, include_recycles=include_recycles)
        restored = table.to_workload()
        expected = build_model_ops(config, n, include_recycles=include_recycles)
        assert restored.sequence_length == n
        assert restored.operators == expected.operators

    def test_non_positive_length_is_rejected(self, paper_config):
        for n in (0, -3):
            with pytest.raises(ValueError):
                get_op_table(paper_config, n)


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
    builders = {b for b, _ in model_segments(config, include_recycles)}
    return sum(len(builder(config, 1, 0)) for builder in builders)


class TestRowMap:
    """Row maps of tiled, object-graph, sub- and stacked tables."""

    @settings(max_examples=60, deadline=None)
    @given(config=configs, n=lengths, include_recycles=st.booleans())
    def test_tiled_rows_match_their_representatives(self, config, n, include_recycles):
        table = get_op_table(config, n, include_recycles=include_recycles)
        assert_valid_row_map(table)
        assert len(table.rep_rows) == tiled_representatives(config, include_recycles)

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
        table = oracle_table(config, n, include_recycles)
        assert_valid_row_map(table)
        # Bytewise dedup never finds more distinct rows than the tiling.
        assert len(table.rep_rows) <= tiled_representatives(config, include_recycles)

    def test_object_graph_keeps_signed_zeros_apart(self, paper_config):
        base = build_model_ops(paper_config, 8).operators[0]
        operators = [replace(base, macs=0.0), replace(base, macs=-0.0)]
        table = OperatorTable.from_operators(operators, paper_config, 8)
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
        sub = table.select(mask)
        assert_valid_row_map(sub)
        assert len(sub.rep_rows) == len(np.unique(table.rep_index[mask]))
        for kwargs in ({"phase": PHASE_PAIR}, {"engine": ENGINE_MATMUL},
                       {"subphase": SUBPHASE_TRI_ATT}):
            assert_valid_row_map(table.filter(**kwargs))
        for sub in table.by_phase().values():
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
    def test_tables_do_not_populate_the_workload_cache(self, paper_config):
        clear_workload_caches()
        get_op_table(paper_config, 64)
        get_op_table(paper_config, 65, include_recycles=True)
        get_stacked_table(paper_config, [66, 67])
        info = workload_cache_info()
        assert info.workloads.currsize == 0
        assert info.labels.currsize == 2  # one template per include_recycles
        assert info.tables.currsize == 4
        assert info.stacks.currsize == 1

    def test_clear_drops_the_label_templates(self, paper_config):
        get_op_table(paper_config, 64)
        assert workload_cache_info().labels.currsize >= 1
        clear_workload_caches()
        assert all(cache.currsize == 0 for cache in workload_cache_info())

    def test_cache_returns_same_object(self, paper_config):
        clear_workload_caches()
        first = get_op_table(paper_config, 64)
        second = get_op_table(paper_config, 64)
        assert first is second

    def test_workload_cache_shares_operators_but_not_the_list(self, paper_config):
        first = get_workload(paper_config, 64)
        second = get_workload(paper_config, 64)
        assert first.operators[0] is second.operators[0]  # cached, frozen entries
        first.operators.append(first.operators[0])  # caller mutation...
        assert len(get_workload(paper_config, 64).operators) == len(second.operators)

    def test_cache_distinguishes_keys(self, paper_config):
        base = get_op_table(paper_config, 64)
        assert get_op_table(paper_config, 65) is not base
        assert get_op_table(paper_config.with_blocks(2), 64) is not base
        assert get_op_table(paper_config, 64, include_recycles=True) is not base

    def test_model_weight_elements_memoized_value(self, paper_config):
        direct = sum(
            op.weight_elements
            for op in build_model_ops(paper_config, 4).operators
            if op.phase != "input_embedding"
        )
        assert model_weight_elements(paper_config) == pytest.approx(direct, rel=REL)
        assert model_weight_elements(paper_config, include_language_model=True) == pytest.approx(
            direct + paper_config.language_model_params, rel=REL
        )


def assert_operator_latencies_match(fast, legacy):
    assert len(fast.operator_latencies) == len(legacy.operator_latencies)
    for a, b in zip(fast.operator_latencies, legacy.operator_latencies):
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
        legacy = simulate_accelerator_workload(accelerator, workload)
        fast = accelerator.simulate_table(OperatorTable.from_workload(workload))
        assert_operator_latencies_match(fast, legacy)

    @pytest.mark.parametrize("source", ["tiled", "stack segment"])
    @pytest.mark.parametrize("n", [64, 257])
    def test_per_operator_latencies_match_legacy_on_tiled_tables(
        self, paper_config, source, n
    ):
        accelerator = LightNobelAccelerator(ppm_config=paper_config)
        legacy = simulate_accelerator_workload(accelerator, build_model_ops(paper_config, n))
        if source == "tiled":
            fast = accelerator.simulate_table(get_op_table(paper_config, n))
        else:
            stack = get_stacked_table(paper_config, [48, n, 1000])
            fast = accelerator.simulate_stack(stack)[stack.segment_index(n)]
        assert_operator_latencies_match(fast, legacy)

    def test_stack_segments_equal_one_segment_reports_exactly(self, paper_config):
        accelerator = LightNobelAccelerator(ppm_config=paper_config)
        mix = [64, 257, 1000]
        stacked = accelerator.simulate_stack(get_stacked_table(paper_config, mix))
        for n, report in zip(mix, stacked):
            alone = accelerator.simulate_table(get_op_table(paper_config, n))
            assert report.operator_latencies == alone.operator_latencies
            assert report.bottleneck_share() == alone.bottleneck_share()
            assert report.total_cycles == alone.total_cycles
            assert report.dram_bytes == alone.dram_bytes

    def test_bottleneck_share_matches_legacy(self, paper_config):
        accelerator = LightNobelAccelerator(ppm_config=paper_config)
        workload = build_model_ops(paper_config, 96)
        legacy = bottleneck_share(simulate_accelerator_workload(accelerator, workload))
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
            # The Workload entry point dispatches through the same columnar code.
            assert int8_equivalent_cost(workload, aaq) == pytest.approx(legacy, rel=REL)
