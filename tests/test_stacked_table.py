"""Stacked multi-length operator tables (PR 7): invariants, goldens, parity.

Every latency number must agree across:

* the **scalar reference** (``reference_pricing``) — one Python iteration
  per operator, independent of the columnar engines,
* the engines' **per-length entry points** (``simulate(n)`` and
  ``simulate_table``), which price a one-segment stack,
* the **stacked path** (``simulate_stack``) — one ragged table, one
  vectorized pass over a whole traffic mix.  A single length must equal the
  same segment of a wider stack exactly.

The stacked path must reproduce the pinned goldens of
:mod:`test_sim_goldens` on every registered backend, the service times the
planner's prefetch reads must be *exactly* equal (``==``, not approx) to the
report totals, and a hypothesis sweep over random length mixes (duplicates,
singletons, unsorted) plus shape-bucket boundaries keeps the batching layers
honest.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_graph import filter_table, get_workload, weighted_sums
from reference_pricing import simulate_accelerator_workload, simulate_gpu_workload
from test_sim_goldens import (
    BACKENDS as GOLDEN_BACKENDS,
    GOLDENS,
    LENGTHS as GOLDEN_LENGTHS,
    assert_matches_golden,
)

from repro.cluster import (
    FleetSpec,
    MultiChipVariant,
    Request,
    RequestTrace,
    WorkerGroup,
    mixture_lengths,
    poisson_trace,
    prefetch_service_times,
)
from repro.cluster.trace import length_bucket
from repro.gpu import GPUModel
from repro.gpu.gpu_config import get_gpu
from repro.hardware import LightNobelAccelerator
from repro.ppm import PPMConfig, get_op_table, get_stacked_table, memory
from repro.ppm.op_table import StackedOperatorTable
from repro.serving import LatencyRequest, LatencyService
from repro.sim import SimulationSession, available_backends, create_backend

RELATIVE_TOLERANCE = 1e-9
MIX = (16, 24, 48, 72)
#: Multi-chip nodes: composed over the inner backend's stack methods, so
#: they have no legacy loop of their own.
MULTICHIP = (
    MultiChipVariant(base="lightnobel", chips=2),
    MultiChipVariant(base="h100-chunk", chips=4),
)
TIMEOUT = 120.0

#: Columns whose stacked concatenation must slice back to the per-length
#: arrays bytewise (everything a backend reads during evaluation).
COLUMNS = (
    "macs",
    "vector_ops",
    "input_elements",
    "output_elements",
    "weight_elements",
    "engine_codes",
    "phase_codes",
    "subphase_codes",
    "group_codes",
    "fusible",
)


@pytest.fixture(scope="module")
def config() -> PPMConfig:
    return PPMConfig.tiny()


@pytest.fixture(scope="module")
def session(config) -> SimulationSession:
    return SimulationSession(ppm_config=config)


def approx_equal(a: float, b: float) -> bool:
    return abs(a - b) <= RELATIVE_TOLERANCE * max(abs(a), abs(b))


def legacy_report(backend, config: PPMConfig, n: int):
    """The per-operator scalar reference of engine ``backend`` for length ``n``."""
    workload = get_workload(config, n)
    if isinstance(backend, LightNobelAccelerator):
        return simulate_accelerator_workload(backend, workload)
    return simulate_gpu_workload(backend, workload)


def trace_of(lengths) -> RequestTrace:
    """One request per entry of ``lengths``, in order (duplicates kept)."""
    requests = tuple(
        Request(id=i, arrival_seconds=float(i), sequence_length=n)
        for i, n in enumerate(lengths)
    )
    return RequestTrace(name="mix", requests=requests, seed=0, offered_rps=1.0)


def fleet_of(*specs) -> FleetSpec:
    """One single-worker group per backend spec."""
    return FleetSpec(groups=tuple(WorkerGroup(backend=spec, count=1) for spec in specs))


def engine_per_length(backend, config: PPMConfig, n: int):
    """Engine ``backend``'s ``simulate(n)`` and ``simulate_table`` reports.

    The accelerator prices ``simulate(n)`` with ``include_recycles=True``
    (the tiny config runs no recycles, so the operators are the same).
    """
    table = get_op_table(config, n)
    if isinstance(backend, LightNobelAccelerator):
        return backend.simulate(n, include_recycles=True), backend.simulate_table(table)
    return backend.simulate(n), backend.simulate_table(table)


# ---------------------------------------------------------------- invariants
class TestStackInvariants:
    def test_canonicalized_and_shared(self, config):
        stack = get_stacked_table(config, [72, 16, 72, 24, 16])
        assert stack.lengths == (16, 24, 72)
        assert stack.num_segments == 3
        # Any order / duplication of the same length set shares one cached stack.
        assert stack is get_stacked_table(config, (16, 24, 72))

    def test_empty_mix_rejected(self, config):
        with pytest.raises(ValueError):
            get_stacked_table(config, ())

    def test_segments_recover_per_length_columns(self, config):
        stack = get_stacked_table(config, MIX)
        assert len(stack) == sum(len(get_op_table(config, n)) for n in MIX)
        for i, n in enumerate(stack.lengths):
            table = get_op_table(config, n)
            sl = stack.segments[i]
            assert sl == stack.segment(i)
            assert stack.segment_index(n) == i
            for column in COLUMNS:
                stacked = getattr(stack, column)[sl]
                assert np.array_equal(stacked, getattr(table, column)), column
            for engine in table.engines:
                assert np.array_equal(
                    stack.engine_mask(engine)[sl], table.engine_mask(engine)
                )
            for phase in table.phases:
                assert np.array_equal(
                    stack.phase_mask(phase)[sl], table.phase_mask(phase)
                )

    def test_segments_property_matches_offsets_and_is_cached(self, config):
        stack = get_stacked_table(config, MIX)
        bounds = stack.segment_starts.tolist()
        assert stack.segments == tuple(
            slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])
        )
        assert stack.segments is stack.segments  # computed once per stack

    def test_segment_sums_match_per_segment_reduction(self, config):
        # Half-integer values keep every sum exact in float64, so the
        # multiplicity-weighted representative sums must equal the row-order
        # per-table reduction exactly.
        stack = get_stacked_table(config, MIX)
        values = np.arange(2 * len(stack.rep_rows), dtype=np.float64).reshape(2, -1) + 0.5
        rows = np.take(values, stack.rep_index, axis=1)
        keys = ("phase", "subphase", "engine", "group")
        totals, labelled = stack.segment_sums(values, *keys)
        for key, dicts in zip(keys, labelled):
            assert dicts == [
                weighted_sums(table, key, rows[0][sl])
                for table, sl in zip(stack.tables, stack.segments)
            ]
        assert totals.tolist() == [
            [float(row[sl].sum()) for sl in stack.segments] for row in rows
        ]

    def test_segment_sums_bins_are_cached(self, config):
        stack = get_stacked_table(config, MIX)
        assert stack._label_bins("phase") is stack._label_bins("phase")
        assert stack.representatives() is stack.representatives()
        # A lone length's one-segment stack is cached like any stack.
        n = stack.lengths[0]
        assert get_stacked_table(config, [n]) is get_stacked_table(config, [n])

    def test_mixed_vocabularies_are_rejected(self, config):
        # Tables of one config share one label vocabulary; sub-tables that
        # factorize their labels differently do not stack.
        tables = [
            filter_table(get_op_table(config, 20), phase="pair_dataflow"),
            filter_table(get_op_table(config, 30), engine="matmul"),
            get_op_table(config, 40),
        ]
        assert tables[0].phases != tables[2].phases
        with pytest.raises(ValueError, match="one label vocabulary"):
            StackedOperatorTable.from_tables(tables)
        for table in tables:  # each still prices as a one-segment stack
            for spec in available_backends():
                (report,) = create_backend(spec, config).simulate_stack(
                    StackedOperatorTable.from_tables([table])
                )
                assert report.sequence_length == table.sequence_length

    def test_single_length_stack(self, config):
        stack = get_stacked_table(config, [40])
        assert stack.lengths == (40,)
        assert stack.segments == (slice(0, len(get_op_table(config, 40))),)

    def test_from_tables_preserves_order(self, config):
        # from_tables (the sweep path) keeps caller order; only the
        # get_stacked_table cache canonicalizes.
        tables = [get_op_table(config, n) for n in (48, 16)]
        stack = StackedOperatorTable.from_tables(tables)
        assert stack.lengths == (48, 16)


# ------------------------------------------------------------------- goldens
class TestStackedGoldens:
    """The stacked path reproduces the pinned PR 2 goldens on every backend."""

    def test_stacked_reports_match_pinned_goldens(self, config):
        stack = get_stacked_table(config, GOLDEN_LENGTHS)
        for backend_name in GOLDEN_BACKENDS:
            backend = create_backend(backend_name, config)
            reports = backend.simulate_stack(stack)
            assert [r.sequence_length for r in reports] == list(stack.lengths)
            for report in reports:
                assert_matches_golden(report, backend_name, report.sequence_length)

    def test_totals_fast_path_matches_pinned_goldens(self, config):
        stack = get_stacked_table(config, GOLDEN_LENGTHS)
        for backend_name in GOLDEN_BACKENDS:
            backend = create_backend(backend_name, config)
            for n, (total, oom) in zip(
                stack.lengths, backend.simulate_stack_totals(stack)
            ):
                golden_total, _, golden_oom = GOLDENS[(backend_name, n)]
                assert total == pytest.approx(golden_total, rel=RELATIVE_TOLERANCE)
                assert oom == golden_oom

    def test_legacy_loop_matches_pinned_goldens(self, config):
        for backend_name in GOLDEN_BACKENDS:
            backend = create_backend(backend_name, config)
            for n in GOLDEN_LENGTHS:
                golden_total, _, _ = GOLDENS[(backend_name, n)]
                assert legacy_report(backend, config, n).total_seconds == pytest.approx(
                    golden_total, rel=RELATIVE_TOLERANCE
                )


# -------------------------------------------------------------------- parity
class TestThreeWayParity:
    def test_stacked_per_length_legacy_agree_on_every_backend(self, config):
        stack = get_stacked_table(config, MIX)
        for spec in (*available_backends(), *MULTICHIP):
            backend = create_backend(spec, config)
            stacked = backend.simulate_stack(stack)
            for n, seg in zip(stack.lengths, stacked):
                (one,) = backend.simulate_stack(
                    StackedOperatorTable.from_tables([get_op_table(config, n)])
                )
                assert seg == one
                if spec in MULTICHIP:
                    continue
                for report in engine_per_length(backend, config, n):
                    assert report == seg
                    assert list(report.phase_seconds) == list(seg.phase_seconds)
                    assert list(report.subphase_seconds) == list(seg.subphase_seconds)
                legacy = legacy_report(backend, config, n)
                assert approx_equal(seg.total_seconds, legacy.total_seconds)

    def test_totals_exactly_equal_stacked_reports(self, config):
        # The planner's prefetch reads each total off a report of the mix:
        # the *identical* floats — `==`, not a tolerance.
        stack = get_stacked_table(config, MIX)
        specs = (*available_backends(), *MULTICHIP)
        times = prefetch_service_times(
            trace_of(MIX), fleet_of(*specs), session=SimulationSession(ppm_config=config)
        )
        for gi, spec in enumerate(specs):
            for r in create_backend(spec, config).simulate_stack(stack):
                expected = None if r.out_of_memory else r.total_seconds
                assert times[(gi, r.sequence_length)] == expected


class TestPricingSurface:
    """Each engine prices stacks through one path and exposes nothing else."""

    @pytest.mark.parametrize("engine", [LightNobelAccelerator, GPUModel])
    def test_engines_expose_only_stack_pricing(self, engine):
        public = {name for name in dir(engine) if name.startswith("simulate")}
        assert public == {
            "simulate",
            "simulate_table",
            "simulate_stack",
            "simulate_stack_totals",
        }
        for name in ("operator_seconds", "simulate_operator", "_assemble_report"):
            assert not hasattr(engine, name), name


#: The sixteen ``dse-sweep`` strata midpoints (256-4096): the paper-config
#: stack the Fig. 12 sweep prices.
PAPER_STRATA = np.linspace(256, 4096, 17)
PAPER_LENGTHS = tuple(int(lo + hi) // 2 for lo, hi in zip(PAPER_STRATA[:-1], PAPER_STRATA[1:]))
#: Multiplicity-weighted sums against the operator-order scalar reference
#: (reads under 4e-14); tighter than the suite's 1e-9.
PAPER_TOLERANCE = 1e-12


class TestPaperScaleStack:
    """The representative reduction on the stack the Fig. 12 sweep prices."""

    @pytest.fixture(scope="class")
    def stack(self):
        return get_stacked_table(PPMConfig.paper(), PAPER_LENGTHS)

    def test_multiplicities_count_every_row(self, stack):
        for table in stack.tables:
            counts = table.representatives().counts
            assert counts.sum() == len(table)
            assert np.array_equal(counts, np.bincount(table.rep_index))
        assert stack.representatives().counts.sum() == len(stack)

    @pytest.mark.parametrize("spec", available_backends())
    def test_segments_equal_one_segment_stacks(self, stack, spec):
        backend = create_backend(spec, stack.config)
        reports = backend.simulate_stack(stack)
        assert backend.simulate_stack_totals(stack) == [
            (r.total_seconds, r.out_of_memory) for r in reports
        ]
        for table, report in zip(stack.tables, reports):
            assert backend.simulate_stack(StackedOperatorTable.from_tables([table])) == [report]

    @pytest.mark.parametrize("spec", available_backends())
    def test_sums_match_the_scalar_reference(self, stack, spec):
        backend = create_backend(spec, stack.config)
        for n, report in zip(stack.lengths, backend.simulate_stack(stack)):
            legacy = legacy_report(backend, stack.config, n)
            pairs = [
                ({"total": report.total_seconds}, {"total": legacy.total_seconds}),
                (report.phase_seconds, legacy.phase_seconds),
                (report.subphase_seconds, legacy.subphase_seconds),
                (report.details, legacy.details),
            ]
            for actual, expected in pairs:
                assert actual.keys() == expected.keys()
                for key, value in expected.items():
                    assert abs(actual[key] - value) <= PAPER_TOLERANCE * abs(value), (n, key)


# ------------------------------------------------------- session batch totals
class TestBatchTotalSeconds:
    """Totals of a length mix, as the planner's prefetch reads them."""

    def test_matches_simulate_exactly_with_duplicates(self, config, session):
        lengths = [48, 16, 48, 24, 16]
        names = ("lightnobel", "h100")
        times = prefetch_service_times(trace_of(lengths), fleet_of(*names), session=session)
        for gi, name in enumerate(names):
            assert [times[(gi, n)] for n in lengths] == [
                session.simulate(n, backend=name).total_seconds for n in lengths
            ]

    def test_single_distinct_length_uses_per_length_fallback(self, config, session):
        """A single distinct length is priced as a one-segment stack."""
        times = prefetch_service_times(
            trace_of([32, 32]), fleet_of("lightnobel"), session=session
        )
        assert times == {(0, 32): session.simulate(32, backend="lightnobel").total_seconds}

    def test_oom_lengths_map_to_none(self, config):
        # Shrink an H100's HBM until only the shorter half of the mix fits;
        # the prefetch must report None exactly where simulate() says OOM.
        lengths = (16, 32, 64, 96)
        peaks = sorted(memory.peak_bytes(memory.GPU_DENSE, config, n) for n in lengths)
        cutoff_gb = (peaks[1] + peaks[2]) / 2 / 1e9
        spec = replace(get_gpu("H100"), name="H100-SMALLHBM", memory_gb=cutoff_gb)
        backend = GPUModel(spec, ppm_config=config, name="h100-smallhbm")
        session = SimulationSession(ppm_config=config)
        times = prefetch_service_times(trace_of(lengths), fleet_of(backend), session=session)
        totals = [times[(0, n)] for n in lengths]
        for n, total in zip(lengths, totals):
            report = session.simulate(n, backend="h100-smallhbm")
            if report.out_of_memory:
                assert total is None
            else:
                assert total == report.total_seconds
        assert totals.count(None) == 2  # the cutoff splits the mix in half


# -------------------------------------------------------- hypothesis sweeps
class TestRandomMixes:
    @settings(max_examples=25, deadline=None)
    @given(mix=st.lists(st.integers(min_value=8, max_value=96), min_size=1, max_size=6))
    def test_any_mix_prices_identically_to_per_length(self, mix):
        # Duplicates, singletons, unsorted order — all must canonicalize to
        # one stack whose totals are exactly the per-length totals.
        config = PPMConfig.tiny()
        stack = get_stacked_table(config, mix)
        assert stack.lengths == tuple(sorted(set(mix)))
        session = SimulationSession(ppm_config=config)
        times = prefetch_service_times(trace_of(mix), fleet_of("lightnobel"), session=session)
        assert [times[(0, n)] for n in mix] == [
            session.simulate(n, backend="lightnobel").total_seconds for n in mix
        ]

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=4096),
        size=st.one_of(st.none(), st.integers(min_value=0, max_value=256)),
    )
    def test_length_bucket_boundaries(self, n, size):
        bucket = length_bucket(n, size)
        if not size:
            assert bucket == 0  # None/0 = one shared bucket
        else:
            assert bucket == (n - 1) // size
            assert bucket * size < n <= (bucket + 1) * size
            assert length_bucket(n + 1, size) >= bucket  # monotone in length

    @settings(max_examples=30, deadline=None)
    @given(
        lengths=st.lists(
            st.integers(min_value=8, max_value=512), min_size=1, max_size=12, unique=True
        ),
        size=st.integers(min_value=1, max_value=128),
    )
    def test_bucket_representative_is_bucket_max(self, lengths, size):
        pool, weights = mixture_lengths([(n, 1.0) for n in lengths])
        trace = poisson_trace(
            rate_rps=50.0,
            num_requests=40,
            length_pool=pool,
            length_weights=weights,
            seed=1,
        )
        distinct = trace.distinct_lengths()
        mapping = trace.bucketed_lengths(size)
        assert set(mapping) == set(distinct)
        for n, representative in mapping.items():
            assert representative >= n  # conservative: never under-priced
            assert length_bucket(representative, size) == length_bucket(n, size)
            assert representative == max(
                m for m in distinct if length_bucket(m, size) == length_bucket(n, size)
            )
        assert trace.bucketed_lengths(None) == {n: n for n in distinct}


# --------------------------------------------------- serving bucketed batches
class TestBucketedServing:
    def test_bucketed_admission_matches_exact_and_counts_batches(self, config, session):
        points = [
            (backend, n) for backend in ("lightnobel", "h100", "a100-chunk") for n in (16, 80)
        ]
        expected = {
            (backend, n): session.simulate(n, backend=backend).total_seconds
            for backend, n in points
        }

        # Queue everything before starting the dispatcher so the whole batch
        # lands in one dispatch: one bucket per backend spec, each priced by
        # one stacked pass over its two lengths.
        service = LatencyService(ppm_config=config, autostart=False)
        tickets = service.submit_batch([LatencyRequest(b, n) for b, n in points])
        service.start()
        reports = [
            service.result(t, timeout=TIMEOUT).raise_for_error().report
            for t in tickets
        ]
        capacity = service.capacity_report()
        service.close()

        for point, report in zip(points, reports):
            assert report.total_seconds == expected[point]
        assert capacity.stacked_batches == 3
        assert capacity.stacked_points == len(points)

    def test_shared_bucket_stacks_the_whole_batch(self, config, session):
        lengths = (16, 40, 72)
        service = LatencyService(ppm_config=config, autostart=False)
        tickets = service.submit_batch(
            [LatencyRequest("lightnobel", n) for n in lengths]
        )
        service.start()
        reports = [
            service.result(t, timeout=TIMEOUT).raise_for_error().report
            for t in tickets
        ]
        capacity = service.capacity_report()
        service.close()

        for n, report in zip(lengths, reports):
            assert report.total_seconds == (
                session.simulate(n, backend="lightnobel").total_seconds
            )
        assert capacity.stacked_batches == 1
        assert capacity.stacked_points == len(lengths)


# ------------------------------------------------------- planner and sweeps
class TestPlannerPrefetch:
    def test_bucketed_prefetch_prices_bucket_representatives(self, config):
        pool, weights = mixture_lengths(
            [(n, 1.0) for n in (24, 40, 56, 88, 104, 136)]
        )
        trace = poisson_trace(
            rate_rps=100.0,
            num_requests=200,
            length_pool=pool,
            length_weights=weights,
            seed=7,
        )
        fleet = FleetSpec.homogeneous("lightnobel", 2)

        def fresh():
            return SimulationSession(ppm_config=config)

        exact = prefetch_service_times(trace, fleet, session=fresh())
        bucketed = prefetch_service_times(
            trace, fleet, session=fresh(), length_bucket_size=64
        )
        mapping = trace.bucketed_lengths(64)
        assert set(bucketed) == set(exact)
        for (group, n), seconds in bucketed.items():
            assert seconds == exact[(group, mapping[n])]


class TestSweepGrouping:
    def test_grouped_sweep_matches_session_exactly(self, config, session):
        # A design sweep priced grouped by backend (one stacked pass each, on
        # a fresh session) equals per-point pricing.
        backends, lengths = ("lightnobel", "h100"), (16, 32, 48)
        fresh = SimulationSession(ppm_config=config)
        batch = fresh.simulate_batch(lengths, backends=backends)
        for backend in backends:
            for n in lengths:
                assert batch.report(backend, n).total_seconds == (
                    session.simulate(n, backend=backend).total_seconds
                )
