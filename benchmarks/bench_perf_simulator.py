"""Perf: columnar (OperatorTable) simulator vs the scalar object-graph reference.

Times `LightNobelAccelerator.simulate()` across sequence lengths and a
Fig. 11-style quantization DSE sweep through the accelerator, comparing the
vectorized + LRU-cached columnar engine against the per-operator scalar
reference (`tests/reference_pricing.py`) that rebuilds the operator graph on
every call.  Prints the speedup table and
asserts the columnar path is no slower (the repeated-sweep workload must be
at least 5x faster; in practice it is 20-60x).

A second benchmark covers the PR 2 unified simulation layer: a
`SimulationSession.simulate_batch` backed by a warm on-disk table cache
versus the PR 1 per-call path, in the cold-process regime (the LRU is cleared
each round, as a fresh sweep worker would see) and in the warm in-process
regime (where the session's report memo skips even the vectorized engine).

A third benchmark is the table-build guard: a fresh-length paper-config
`get_op_table` (one Horner evaluation of the config's fitted per-row cubics)
must be at least 5x faster than building the same table from the object
graph (`OperatorTable.from_workload(build_model_ops(...))`).  It reads the
median of paired oracle/fitted time ratios, alternating which side runs
first, with every cache cleared at the start of each pair.  It is the
wall-clock backstop of two counted guards: once a config is fitted, a fresh
`get_op_table` and a fresh 16-length `get_stacked_table` construct no
`Operator` and call no segment builder; and the fit of a fresh config calls
no `build_model_ops` and constructs at most 8 x 85 = 680 `Operator`s (one
block of each distinct builder at n = 1-8), not the 3,234-row graph.

A fourth guard counts rather than times: the engines run their arithmetic
over a stack's representative rows only (its row map), so the 16-length
paper-config stack of the ``dse-sweep`` strata (256-4096) must price at most
1/20 of its rows on both the accelerator and the GPU model (reads 1,360 of
51,744, one block of each distinct graph segment per length).  Its companion
hides every full-row column of that stack behind objects that raise when
read: both engines' ``simulate_stack`` and ``simulate_stack_totals`` must
return the real stack's numbers without touching one.

A fifth guard counts report objects: pricing that 16-length stack through
``SimulationSession.simulate_batch`` on ``lightnobel`` and ``h100-chunk``
constructs exactly one report per (backend, length), counted over every
``*Report`` class of the loaded ``repro`` modules (the engines price
straight into ``SimReport``; an engine report copied into a second type
would count twice).
"""

import collections
import copy
import statistics
import sys
import tempfile
import time

import numpy as np
import pytest

from conftest import emit_bench_json, print_table
from reference_pricing import simulate_accelerator_workload

from repro.core.aaq import AAQConfig
from repro.gpu import GPUModel
from repro.hardware import LightNobelAccelerator, LightNobelConfig
from repro.ppm import PPMConfig, clear_workload_caches, get_op_table, get_stacked_table
from repro.ppm import op_table as op_table_module
from repro.ppm import workload as workload_module
from repro.ppm.op_table import NUMERIC_COLUMNS, OperatorTable, StackedOperatorTable
from repro.ppm.workload import build_model_ops
from repro.sim import SimulationSession

SEQUENCE_LENGTHS = (200, 400, 800)

#: Fig. 11-style AAQ design points swept through the accelerator model.
AAQ_SWEEP = tuple(
    AAQConfig.uniform(inlier_bits=bits, outlier_count=outliers)
    for bits in (4, 8)
    for outliers in (0, 4, 16)
)


def time_call(fn, repeats=1):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def run_legacy_lengths(config):
    accelerator = LightNobelAccelerator(ppm_config=config)
    return [
        simulate_accelerator_workload(accelerator, build_model_ops(config, n)).total_seconds
        for n in SEQUENCE_LENGTHS
    ]


def run_columnar_lengths(config):
    accelerator = LightNobelAccelerator(ppm_config=config)
    return [accelerator.simulate(n).total_seconds for n in SEQUENCE_LENGTHS]


def run_legacy_sweep(config):
    """Legacy DSE: every design point re-simulates a freshly built graph."""
    results = []
    for aaq in AAQ_SWEEP:
        accelerator = LightNobelAccelerator(ppm_config=config, aaq_config=aaq)
        for n in SEQUENCE_LENGTHS:
            results.append(
                simulate_accelerator_workload(
                    accelerator, build_model_ops(config, n)
                ).total_seconds
            )
    return results


def run_columnar_sweep(config):
    """Columnar DSE: cached tables, vectorized engine models."""
    results = []
    for aaq in AAQ_SWEEP:
        accelerator = LightNobelAccelerator(ppm_config=config, aaq_config=aaq)
        for n in SEQUENCE_LENGTHS:
            results.append(accelerator.simulate(n).total_seconds)
    return results


def run_hardware_sweep(config):
    """Fig. 12-style hardware sweep on the columnar path."""
    results = []
    for rmpus in (4, 8, 16, 32):
        accelerator = LightNobelAccelerator(
            hw_config=LightNobelConfig(num_rmpus=rmpus), ppm_config=config
        )
        for n in SEQUENCE_LENGTHS:
            results.append(accelerator.simulate(n).total_seconds)
    return results


def test_perf_columnar_vs_legacy(paper_config):
    clear_workload_caches()

    legacy_single = time_call(lambda: run_legacy_lengths(paper_config))
    # Warm the table cache once, then measure the steady-state sweep regime.
    run_columnar_lengths(paper_config)
    columnar_single = time_call(lambda: run_columnar_lengths(paper_config), repeats=3)

    legacy_sweep = time_call(lambda: run_legacy_sweep(paper_config))
    columnar_sweep = time_call(lambda: run_columnar_sweep(paper_config), repeats=3)
    hardware_sweep = time_call(lambda: run_hardware_sweep(paper_config), repeats=3)

    single_speedup = legacy_single / columnar_single
    sweep_speedup = legacy_sweep / columnar_sweep
    print_table(
        "Simulator perf: columnar OperatorTable vs legacy object graph",
        [
            ("workload", "legacy", "columnar", "speedup"),
            (
                f"simulate() x {len(SEQUENCE_LENGTHS)} lengths",
                f"{legacy_single * 1e3:8.1f} ms",
                f"{columnar_single * 1e3:8.1f} ms",
                f"{single_speedup:5.1f}x",
            ),
            (
                f"AAQ DSE sweep ({len(AAQ_SWEEP)} configs x {len(SEQUENCE_LENGTHS)} lengths)",
                f"{legacy_sweep * 1e3:8.1f} ms",
                f"{columnar_sweep * 1e3:8.1f} ms",
                f"{sweep_speedup:5.1f}x",
            ),
            (
                "hardware DSE (4 RMPU counts, columnar)",
                "-",
                f"{hardware_sweep * 1e3:8.1f} ms",
                "-",
            ),
        ],
    )

    # Same numbers out of both paths (the whole point of the refactor).
    legacy_values = run_legacy_lengths(paper_config)
    columnar_values = run_columnar_lengths(paper_config)
    for fast, slow in zip(columnar_values, legacy_values):
        assert abs(fast - slow) / slow < 1e-9

    emit_bench_json(
        "perf_simulator",
        {
            "legacy_single_seconds": legacy_single,
            "columnar_single_seconds": columnar_single,
            "single_speedup": single_speedup,
            "legacy_sweep_seconds": legacy_sweep,
            "columnar_sweep_seconds": columnar_sweep,
            "sweep_speedup": sweep_speedup,
            "hardware_sweep_seconds": hardware_sweep,
        },
    )

    # The columnar path must never be slower, and the repeated-sweep
    # workload (the regime every DSE/figure benchmark runs in) must clear
    # the 5x acceptance bar with margin.
    assert columnar_single <= legacy_single
    assert sweep_speedup >= 5.0


def run_percall_cold(config):
    """PR 1 per-call path as a fresh process sees it: rebuild every table."""
    clear_workload_caches()
    accelerator = LightNobelAccelerator(ppm_config=config)
    return [accelerator.simulate(n).total_seconds for n in SEQUENCE_LENGTHS]


def run_session_batch_cold(config, cache_dir):
    """Session batch as a fresh process sees it: reports from the disk cache, no table built."""
    clear_workload_caches()
    session = SimulationSession(ppm_config=config, cache_dir=cache_dir)
    batch = session.simulate_batch(SEQUENCE_LENGTHS, backends=["lightnobel"])
    return batch.totals("lightnobel")


def test_perf_session_batch_and_disk_cache(paper_config):
    with tempfile.TemporaryDirectory(prefix="repro-sim-bench-") as cache_dir:
        # Warm the disk cache once (one stack of the distinct lengths, priced once).
        run_session_batch_cold(paper_config, cache_dir)

        percall_cold = time_call(lambda: run_percall_cold(paper_config), repeats=3)
        session_cold = time_call(
            lambda: run_session_batch_cold(paper_config, cache_dir), repeats=3
        )

        # Warm in-process regime: LRU is hot for the per-call path, the
        # session additionally memoizes whole reports.
        accelerator = LightNobelAccelerator(ppm_config=paper_config)
        percall_warm = time_call(
            lambda: [accelerator.simulate(n).total_seconds for n in SEQUENCE_LENGTHS],
            repeats=5,
        )
        session = SimulationSession(ppm_config=paper_config, cache_dir=cache_dir)
        session.simulate_batch(SEQUENCE_LENGTHS, backends=["lightnobel"])
        session_warm = time_call(
            lambda: session.simulate_batch(
                SEQUENCE_LENGTHS, backends=["lightnobel"]
            ).totals("lightnobel"),
            repeats=5,
        )

        cold_speedup = percall_cold / session_cold
        warm_speedup = percall_warm / session_warm
        print_table(
            "Sim layer perf: simulate_batch + disk cache vs PR 1 per-call path",
            [
                ("regime", "per-call", "session batch", "speedup"),
                (
                    f"cold process ({len(SEQUENCE_LENGTHS)} lengths, warm disk cache)",
                    f"{percall_cold * 1e3:8.1f} ms",
                    f"{session_cold * 1e3:8.1f} ms",
                    f"{cold_speedup:5.1f}x",
                ),
                (
                    "warm in-process (report memo vs LRU re-evaluation)",
                    f"{percall_warm * 1e3:8.2f} ms",
                    f"{session_warm * 1e3:8.2f} ms",
                    f"{warm_speedup:5.1f}x",
                ),
            ],
        )

        # Identical numbers out of both paths.
        expected = run_percall_cold(paper_config)
        actual = run_session_batch_cold(paper_config, cache_dir)
        for fast, slow in zip(actual, expected):
            assert abs(fast - slow) / slow < 1e-9

        emit_bench_json(
            "session_batch",
            {
                "percall_cold_seconds": percall_cold,
                "session_cold_seconds": session_cold,
                "cold_speedup": cold_speedup,
                "percall_warm_seconds": percall_warm,
                "session_warm_seconds": session_warm,
                "warm_speedup": warm_speedup,
            },
        )

        # The batch + warm-disk-cache path must beat the per-call path
        # measurably in the cold-process regime (the sharded-sweep regime).
        assert cold_speedup >= 1.5
        assert session_warm <= percall_warm * 1.5  # memo path never slower


#: Table-build guard: paired rounds and the floor on the median pair ratio.
BUILD_PAIRS = 15
MIN_BUILD_SPEEDUP = 5.0
#: Built untimed after each cache clear, so the timed lengths are fresh
#: lengths of a config that is already fitted (the sweep regime).
TEMPLATE_LENGTH = 17

#: Segment builders of the operator graph, by their names in `repro.ppm.workload`.
SEGMENT_BUILDERS = (
    "build_input_embedding_ops",
    "build_folding_block_ops",
    "build_sequence_dataflow_ops",
    "build_pair_bias_mlp_ops",
    "build_triangle_multiplication_ops",
    "build_triangle_attention_ops",
    "build_structure_module_ops",
)
#: A fit runs one block of each distinct builder at n = 1-8: 85 rows a block
#: on the paper config, against the whole graph's 3,234.
MAX_FIT_OPERATORS = 8 * 85


def count_graph_work(monkeypatch):
    """Counts of `Operator` constructions, segment-builder and graph-build calls from now on."""
    counts = {"operators": 0, "builder calls": 0, "graph builds": 0}

    def counted(function, key):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(workload_module.Operator, "__init__",
                        counted(workload_module.Operator.__init__, "operators"))
    for name in SEGMENT_BUILDERS:
        monkeypatch.setattr(workload_module, name,
                            counted(getattr(workload_module, name), "builder calls"))
    for module in (workload_module, op_table_module):
        monkeypatch.setattr(module, "build_model_ops",
                            counted(module.build_model_ops, "graph builds"))
    return counts


def test_fit_reads_one_block_per_builder(paper_config, monkeypatch):
    """Counted guard: a fresh config's fit builds no operator graph."""
    clear_workload_caches()
    counts = count_graph_work(monkeypatch)
    table = get_op_table(paper_config, TEMPLATE_LENGTH)
    monkeypatch.undo()
    clear_workload_caches()
    print_table(
        "Graph work of one fit, fresh paper config",
        [("Operator objects", "builder calls", "build_model_ops calls")]
        + [(str(counts["operators"]), str(counts["builder calls"]), str(counts["graph builds"]))],
    )
    assert len(table) == 3234
    assert counts["graph builds"] == 0
    assert 0 < counts["operators"] <= MAX_FIT_OPERATORS


def test_fitted_lengths_build_no_operator_graph(paper_config, monkeypatch):
    """Counted guard: a fitted config prices fresh lengths with no graph work."""
    clear_workload_caches()
    get_op_table(paper_config, TEMPLATE_LENGTH)
    counts = count_graph_work(monkeypatch)
    # The counters are live: one block of the graph trips both.
    workload_module.model_segments(paper_config)[1][0](paper_config, 8)
    workload_module.build_model_ops(paper_config.with_blocks(1), 8)
    assert all(counts.values())
    counts.update(dict.fromkeys(counts, 0))
    lengths = [int(lo + hi) // 2 + 1 for lo, hi in zip(DSE_STRATA[:-1], DSE_STRATA[1:])]
    work = {}
    table = get_op_table(paper_config, TEMPLATE_LENGTH + 1)
    work["fresh get_op_table"] = dict(counts)
    stack = get_stacked_table(paper_config, lengths)
    work[f"fresh {len(lengths)}-length get_stacked_table"] = {
        key: counts[key] - work["fresh get_op_table"][key] for key in counts
    }
    monkeypatch.undo()
    clear_workload_caches()
    print_table(
        "Graph work per fresh length, paper config already fitted",
        [("call", "Operator objects", "builder calls", "build_model_ops calls")]
        + [(call, *map(str, c.values())) for call, c in work.items()],
    )
    assert len(table) == 3234 and stack.num_segments == len(lengths)
    for call, c in work.items():
        assert not any(c.values()), call


def time_builds(build, config, lengths):
    """Seconds ``build(config, n)`` takes for each of ``lengths``."""
    times = []
    for n in lengths:
        start = time.perf_counter()
        build(config, n)
        times.append(time.perf_counter() - start)
    return times


def oracle_build(config, n):
    return OperatorTable.from_workload(build_model_ops(config, n))


def test_perf_table_build_guard(paper_config):
    oracle_times, fitted_times = [], []
    for pair in range(BUILD_PAIRS):
        clear_workload_caches()
        get_op_table(paper_config, TEMPLATE_LENGTH)
        if pair % 2 == 0:
            oracle_times.append(time_builds(oracle_build, paper_config, SEQUENCE_LENGTHS))
            fitted_times.append(time_builds(get_op_table, paper_config, SEQUENCE_LENGTHS))
        else:
            fitted_times.append(time_builds(get_op_table, paper_config, SEQUENCE_LENGTHS))
            oracle_times.append(time_builds(oracle_build, paper_config, SEQUENCE_LENGTHS))
    clear_workload_caches()
    ratios = [sum(o) / sum(t) for o, t in zip(oracle_times, fitted_times)]
    speedup = statistics.median(ratios)
    per_length = [
        (
            n,
            statistics.median(o[i] for o in oracle_times),
            statistics.median(t[i] for t in fitted_times),
        )
        for i, n in enumerate(SEQUENCE_LENGTHS)
    ]
    print_table(
        f"Table build: fresh length, paper config (medians of {BUILD_PAIRS} pairs)",
        [("length", "object graph", "fitted", "speedup")]
        + [
            (str(n), f"{oracle * 1e3:7.2f} ms", f"{fitted * 1e3:7.3f} ms", f"{oracle / fitted:5.1f}x")
            for n, oracle, fitted in per_length
        ]
        + [("median pair ratio", "-", "-", f"{speedup:5.1f}x")],
    )
    emit_bench_json(
        "table_build",
        {
            "per_length_ms": {
                str(n): {"object_graph": oracle * 1e3, "fitted": fitted * 1e3}
                for n, oracle, fitted in per_length
            },
            "speedup": speedup,
            "pair_ratio_quartiles": statistics.quantiles(ratios, n=4),
            "pairs": BUILD_PAIRS,
        },
    )
    assert speedup >= MIN_BUILD_SPEEDUP


#: Row-count guard: the dse-sweep length strata and the ceiling on the share
#: of a stack's rows the engines' arithmetic may read.
DSE_STRATA = np.linspace(256, 4096, 17)
MAX_PRICED_SHARE = 1 / 20


def test_pricing_reads_representative_rows_only(paper_config):
    lengths = [int(lo + hi) // 2 for lo, hi in zip(DSE_STRATA[:-1], DSE_STRATA[1:])]
    stack = get_stacked_table(paper_config, lengths)
    priced = {
        "accelerator": len(LightNobelAccelerator(ppm_config=paper_config)._engine_cycles(stack)[0]),
        "gpu": len(GPUModel("H100", ppm_config=paper_config, chunked=True)._operator_columns(stack)[0]),
    }
    print_table(
        f"Rows priced per {len(lengths)}-length paper stack ({len(stack)} rows)",
        [("engine", "priced rows", "share")]
        + [(name, str(rows), f"1/{len(stack) / rows:.0f}") for name, rows in priced.items()],
    )
    for rows in priced.values():
        assert rows == len(stack.rep_rows)
        assert rows <= MAX_PRICED_SHARE * len(stack)


#: Every per-row column of a table: label codes, ``fusible``, numbers, row map.
ROW_COLUMNS = (
    "engine_codes", "phase_codes", "subphase_codes", "group_codes", "fusible", "rep_index",
) + NUMERIC_COLUMNS


class RowRead(AssertionError):
    """A pricing path read a full-row column."""


class Unreadable:
    """Stands in for a full-row column; any read of it raises :class:`RowRead`."""

    def __init__(self, name):
        self.name = name

    def _read(self, *args, **kwargs):
        raise RowRead(f"pricing read the full-row column {self.name!r}")

    __array__ = __getitem__ = __len__ = __iter__ = _read
    __add__ = __mul__ = __eq__ = __bool__ = _read

    def __getattr__(self, attribute):
        self._read()


def row_free_stack(stack):
    """A fresh stack over copies of ``stack.tables`` whose per-row columns raise.

    Each copy keeps its table's cached representatives (per-representative
    columns, which pricing may read), so the stack builds its own from them.
    """
    hidden = []
    for table in stack.tables:
        table.representatives()
        clone = copy.copy(table)
        for name in ROW_COLUMNS:
            object.__setattr__(clone, name, Unreadable(name))
        hidden.append(clone)
    return StackedOperatorTable.from_tables(hidden)


def priced(engine, stack):
    """Both pricing methods' numbers (report fields that hold no arrays)."""
    reports = engine.simulate_stack(stack)
    fields = [
        {k: v for k, v in vars(r).items() if not k.startswith("_")} for r in reports
    ]
    return fields, engine.simulate_stack_totals(stack)


class RowGatheringAccelerator(LightNobelAccelerator):
    """The accelerator with one per-row gather put back: the guard must trip."""

    def simulate_stack_totals(self, stack):
        rmpu, vvpu, memory, _ = self._engine_cycles(stack)
        np.take(np.maximum(np.maximum(rmpu, vvpu), memory), stack.rep_index)
        return super().simulate_stack_totals(stack)


def test_pricing_reads_no_full_row_column(paper_config):
    lengths = [int(lo + hi) // 2 for lo, hi in zip(DSE_STRATA[:-1], DSE_STRATA[1:])]
    stack = get_stacked_table(paper_config, lengths)
    hidden = row_free_stack(stack)
    engines = {
        "accelerator": LightNobelAccelerator(ppm_config=paper_config),
        "gpu": GPUModel("H100", ppm_config=paper_config),
    }
    for name, engine in engines.items():
        assert priced(engine, hidden) == priced(engine, stack), name
    # The guard is live: one np.take through the stack's row map trips it.
    gatherer = RowGatheringAccelerator(ppm_config=paper_config)
    gatherer.simulate_stack_totals(stack)
    with pytest.raises(RowRead):
        gatherer.simulate_stack_totals(hidden)
    print_table(
        f"Full-row reads while pricing the {len(lengths)}-length paper stack",
        [("engine", "simulate_stack + totals")]
        + [(name, "0 (every column hidden)") for name in engines],
    )


#: The backends the report-count guard prices: the accelerator and a GPU.
COUNTED_BACKENDS = ("lightnobel", "h100-chunk")


def report_classes():
    """Every class named ``*Report`` defined in a loaded ``repro`` module."""
    modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "repro"]
    return {
        value
        for module in modules
        for value in vars(module).values()
        if isinstance(value, type)
        and value.__name__.endswith("Report")
        and value.__module__ == module.__name__
    }


def count_constructions(monkeypatch, classes):
    """Counts of ``__init__`` calls per class name from now on."""
    counts = collections.Counter()

    def counted(cls):
        init = cls.__init__

        def wrapper(self, *args, **kwargs):
            # A subclass that inherits this __init__ is counted by its own.
            counts[cls.__name__] += type(self) is cls
            init(self, *args, **kwargs)
        return wrapper

    for cls in classes:
        monkeypatch.setattr(cls, "__init__", counted(cls))
    return counts


def test_one_report_object_per_priced_point(paper_config, monkeypatch):
    lengths = [int(lo + hi) // 2 for lo, hi in zip(DSE_STRATA[:-1], DSE_STRATA[1:])]
    get_stacked_table(paper_config, lengths)  # tables build no report; keep them out
    session = SimulationSession(ppm_config=paper_config, backends=(), use_disk_cache=False)
    classes = report_classes()
    counts = count_constructions(monkeypatch, classes)
    batch = session.simulate_batch(lengths, backends=COUNTED_BACKENDS)
    monkeypatch.undo()
    points = len(COUNTED_BACKENDS) * len(lengths)
    print_table(
        f"Report objects built pricing {points} points ({len(classes)} report classes counted)",
        [("report class", "objects", "per point")]
        + [(name, str(n), f"{n / points:.2f}") for name, n in sorted(counts.items())],
    )
    assert len(batch.reports) == points
    assert sum(counts.values()) == points, dict(counts)
