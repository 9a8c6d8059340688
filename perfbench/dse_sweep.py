"""Workload ``dse-sweep``: the Fig. 12 hardware grid plus GPU baselines, all misses.

Each pass opens a fresh paper-config ``LatencyService`` and two tenant
threads sweep the same figure through it: ``analysis.dse.hardware_dse`` over
the hardware grid, then the H100/A100 (+chunk) baselines through
``query_batch``.  Every point is therefore requested twice, and every first
request is a memo miss: op-table construction, the accelerator and GPU
simulators and the service's miss path (coalesce -> stacked batch -> seed
memo) do the work.  The sixteen lengths (one per stratum of 256-4096) shift
by one residue each pass, so the process has not built their op tables yet.
Every report must be bit-identical to a direct ``SimulationSession``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from harness import (
    Patch, Result, ScaledClock, Spans, capacity_metrics, digest_of, median, own_peak_rss_mb,
    result_rows, rows_of,
)

from repro.analysis.dse import hardware_dse
from repro.gpu.gpu_model import GPUModel
from repro.hardware.accelerator import LightNobelAccelerator
from repro.hardware.config import LightNobelConfig
from repro.ppm import PPMConfig, op_table
from repro.ppm.op_table import OperatorTable, StackedOperatorTable
from repro.serving import LatencyRequest, LatencyService
from repro.sim import SimulationSession

#: The Fig. 12 axes, swept around three (RMPUs, VVPUs per RMPU) anchors so
#: that pricing and table building each take a third to two thirds of a
#: pass (see README.md).
RMPU_COUNTS = (1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64)
VVPU_COUNTS = (1, 2, 3, 4, 5, 6, 7, 8)
ANCHORS = ((32, 4), (64, 2), (16, 8))
BASELINES = ("h100", "h100-chunk", "a100", "a100-chunk")
NUM_LENGTHS = 16
MIN_LENGTH, MAX_LENGTH = 256, 4096
#: Room left in each stratum for the per-pass shift.
MAX_SHIFT = 160
TENANTS = 2
#: peak_rss_mb is read after this many passes of a run: every pass starts
#: new threads and the heap keeps growing with them, so a reading at the
#: end of the run would track how many passes the machine managed.
RSS_PASSES = 4


def hardware_grid() -> List[LightNobelConfig]:
    """The accelerator configs the hardware_dse calls price, in their order."""
    return [
        config
        for rmpus, vvpus in ANCHORS
        for config in (
            [LightNobelConfig(num_rmpus=rmpus, vvpus_per_rmpu=v) for v in VVPU_COUNTS]
            + [LightNobelConfig(num_rmpus=r, vvpus_per_rmpu=vvpus) for r in RMPU_COUNTS]
        )
    ]


POINTS_PER_LENGTH = len(ANCHORS) * (len(RMPU_COUNTS) + len(VVPU_COUNTS)) + len(BASELINES)


@dataclass
class State:
    config: PPMConfig
    base_lengths: List[int]
    passes: int = 0
    digest: str = ""
    #: (start, end) of every pass measured with spans on.
    windows: List[Tuple[float, float]] = field(default_factory=list)


def make_lengths(seed: int) -> List[int]:
    rng = np.random.default_rng(seed)
    edges = np.linspace(MIN_LENGTH, MAX_LENGTH, NUM_LENGTHS + 1)
    return [int(rng.integers(int(lo), int(hi) - MAX_SHIFT)) for lo, hi in zip(edges[:-1], edges[1:])]


def _sweep(service: LatencyService, config: PPMConfig, lengths: List[int]):
    dse = [
        hardware_dse(
            lengths,
            rmpu_counts=RMPU_COUNTS,
            vvpu_counts=VVPU_COUNTS,
            fixed_vvpus_per_rmpu=vvpus,
            fixed_rmpus=rmpus,
            config=config,
            service=service,
        )
        for rmpus, vvpus in ANCHORS
    ]
    baselines = service.query_batch(
        [LatencyRequest(backend=b, sequence_length=n) for b in BASELINES for n in lengths]
    )
    return dse, baselines


def run_pass(config: PPMConfig, lengths: List[int]):
    """One timed pass: returns ((start, end), per-tenant outputs, capacity report)."""
    service = LatencyService(ppm_config=config, use_disk_cache=False)
    outputs: List[Optional[tuple]] = [None] * TENANTS

    def tenant(index: int) -> None:
        outputs[index] = _sweep(service, config, lengths)

    threads = [threading.Thread(target=tenant, args=(i,)) for i in range(TENANTS)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    end = time.perf_counter()
    report = service.capacity_report()
    service.close()
    return (start, end), outputs, report


def reference(config: PPMConfig, lengths: List[int]):
    """The same figure priced point by point on a direct session."""
    session = SimulationSession(ppm_config=config, backends=(), use_disk_cache=False)
    averages = [
        float(np.mean([session.simulate(n, backend=hw).total_seconds for n in lengths]))
        for hw in hardware_grid()
    ]
    baselines = [session.simulate(n, backend=b) for b in BASELINES for n in lengths]
    return averages, baselines


def mismatches(output, expected) -> int:
    """Points of one tenant's output that differ from the direct session."""
    if output is None:
        return POINTS_PER_LENGTH * len(expected[1]) // len(BASELINES)
    dse, baselines = output
    averages = [
        p.average_latency_seconds
        for figure in dse
        for p in figure["vvpu_sweep"] + figure["rmpu_sweep"]
    ]
    wrong = sum(a != b for a, b in zip(averages, expected[0]))
    wrong += sum(a != b for a, b in zip(baselines, expected[1]))
    return wrong


def setup(seed: int, root: Path) -> State:
    config = PPMConfig.paper()
    # Load every code path once on lengths outside the measured strata.
    run_pass(config, [MIN_LENGTH - 2, MIN_LENGTH - 1])
    return State(config=config, base_lengths=make_lengths(seed))


def measure(state: State, seconds: float, spans: Optional[Spans] = None) -> Result:
    result = Result()
    capacity: Dict[str, float] = {}
    scaled = ScaledClock()
    deadline = time.perf_counter() + seconds
    while not result.tasks_s or time.perf_counter() < deadline:
        shift = state.passes % MAX_SHIFT
        lengths = [n + shift for n in state.base_lengths]
        window, outputs, report = run_pass(state.config, lengths)
        elapsed = window[1] - window[0]
        scaled.read()
        if spans is not None:
            state.windows.append(window)
        expected = reference(state.config, lengths)
        wrong = sum(mismatches(output, expected) for output in outputs)
        digest = digest_of(expected[0], [r.total_seconds for r in expected[1]])
        if state.passes == 0:
            state.digest = digest
        state.passes += 1
        result.tasks_s.append(elapsed)
        result.rates.append(POINTS_PER_LENGTH * len(lengths) / elapsed)
        if len(result.tasks_s) == RSS_PASSES:
            result.peak_rss_mb = own_peak_rss_mb()
        result.attempted += TENANTS * POINTS_PER_LENGTH * len(lengths)
        result.failed += wrong
        for name in ("requests", "memo_hits", "coalesced", "simulations",
                     "stacked_batches", "busy_seconds"):
            capacity[name] = capacity.get(name, 0) + getattr(report, name)
        capacity["peak_queue_depth"] = max(
            capacity.get("peak_queue_depth", 0.0), float(report.peak_queue_depth)
        )
    result.digest = state.digest
    result.tasks_s = [t * scaled.factor for t in result.tasks_s]
    result.rates = [r / scaled.factor for r in result.rates]
    passes = len(result.tasks_s)
    result.notes = {
        "dse_points_per_s": median(result.rates),
        "dse_pass_ms": median(result.tasks_s) * 1e3,
        "dse_passes": passes,
    }
    result.notes.update({f"capacity.{k}": v for k, v in capacity.items()})
    return result


def _engine(args: tuple, kwargs: dict) -> str:
    return "price.hardware" if isinstance(args[0], LightNobelAccelerator) else "price.gpu"


PATCHES: Tuple[Patch, ...] = (
    Patch(op_table, "build_model_ops", "op_table.build_ops"),
    Patch(OperatorTable, "from_workload", "op_table.from_workload", result_rows),
    Patch(StackedOperatorTable, "from_tables", "op_table.stack"),
    *(
        Patch(engine, method, _engine, rows_of)
        for engine in (LightNobelAccelerator, GPUModel)
        for method in ("simulate_table", "simulate_stack")
    ),
    *(
        Patch(engine, "simulate_stack_totals", "price.stack_totals", rows_of)
        for engine in (LightNobelAccelerator, GPUModel)
    ),
    Patch(SimulationSession, "simulate_batch", "session.simulate_batch"),
    Patch(LatencyService, "query_batch", "service.query_batch"),
)


def layer_metrics(state: State, traced: Result, spans: Spans) -> Dict[str, float]:
    windows = state.windows
    inside = spans.within(windows)  # excludes the reference pricing
    tables = max(1, len(inside.named("op_table.from_workload")))
    capacity = {k.split(".", 1)[1]: v for k, v in traced.notes.items() if k.startswith("capacity.")}

    def per_pass_ms(*names: str) -> float:
        return median(inside.window_totals(windows, *names)) * 1e3

    return {
        "service.miss_batch_ms": median(inside.seconds("service.query_batch")) * 1e3,
        **capacity_metrics(capacity, len(windows)),
        "session.simulate_batch_ms": median(inside.seconds("session.simulate_batch")) * 1e3,
        "op_table.build_ms": inside.total("op_table.build_ops", "op_table.from_workload") / tables * 1e3,
        "op_table.stack_ms": median(inside.seconds("op_table.stack")) * 1e3,
        "op_table.rows": median([s.size for s in inside.named("op_table.from_workload")]),
        "hardware.price_ns_per_row": inside.per_unit_ns("price.hardware"),
        "gpu.price_ns_per_row": inside.per_unit_ns("price.gpu"),
        "hardware.stack_totals_us": median(inside.seconds("price.stack_totals")) * 1e6,
        # Per-pass medians for the budget (not reported as metrics).
        "dse.pass_ms": median([b - a for a, b in windows]) * 1e3,
        "dse.tables_ms": per_pass_ms("op_table.build_ops", "op_table.from_workload"),
        "dse.stack_ms": per_pass_ms("op_table.stack"),
        "dse.price_hardware_ms": per_pass_ms("price.hardware"),
        "dse.price_gpu_ms": per_pass_ms("price.gpu"),
    }


def budget_lines(per_layer: Dict[str, float]) -> List[str]:
    """One pass as a sum of per-layer medians plus the remainder."""
    total = per_layer["dse.pass_ms"]
    terms = [
        ("op tables: build", per_layer["dse.tables_ms"]),
        ("op tables: stack", per_layer["dse.stack_ms"]),
        ("hardware: price", per_layer["dse.price_hardware_ms"]),
        ("gpu: price", per_layer["dse.price_gpu_ms"]),
    ]
    terms.append(("unexplained remainder (service, session, threads)",
                  total - sum(v for _, v in terms)))
    lines = [f"budget dse-sweep: pass median {total:.1f} ms ="]
    for label, value in terms:
        lines.append(f"  {value:9.1f} ms  {value / total:6.1%}  {label}")
    return lines


def close(state: State) -> int:
    return 0
