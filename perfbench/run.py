"""Benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout (``src/repro`` must sit next to
``perfbench/``).  Inputs are generated from ``--seed``; the program only sees
the generated inputs.  ``--trace 0`` measures the end-to-end metrics with no
instrumentation; ``--trace 1`` measures an untraced half and a traced half of
the run and reports the per-layer metrics (see harness.PER_LAYER) plus the
tracing overhead.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Lines before it are a
human-readable report; a JSON file with the same figures and a summary of
every span lands in ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

from harness import (
    END_TO_END, PER_LAYER, Result, ScaledClock, Spans, median, own_peak_rss_mb, patched,
    percentile,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

#: Workload name -> module in this directory.
WORKLOADS = {
    "http-warm": "http_warm",
    "dse-sweep": "dse_sweep",
    "plan-grid": "plan_grid",
    "fold-aaq": "fold_aaq",
}

#: Fresh processes timed from start to the end of set-up; setup_s is their median.
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 150


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: run set-up only, print "ready", tear down (see setup_probes).
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup_probes(args: argparse.Namespace) -> List[float]:
    """Seconds from process start to the end of set-up, in fresh processes.

    Scaled to reference-machine seconds like every timed task (ScaledClock).
    """
    samples = []
    clock = ScaledClock()
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        probe = subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0", "--probe-setup"],
            cwd=str(ROOT),
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            line = probe.stdout.readline().strip()
            samples.append(time.perf_counter() - start)
            probe.communicate(timeout=PROBE_TIMEOUT_S)
            clock.read()
        finally:
            if probe.poll() is None:
                probe.kill()
                probe.wait()
        if line != "ready" or probe.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {probe.returncode}, {line!r})")
    return [sample * clock.factor for sample in samples]


def end_to_end(result: Result, setup_samples: List[float]) -> Dict[str, float]:
    return {
        "setup_s": median(setup_samples),
        "peak_rss_mb": own_peak_rss_mb() if result.peak_rss_mb is None else result.peak_rss_mb,
        "work_per_s": median(result.rates),
        "task_p50_ms": median(result.tasks_s) * 1e3,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no src/repro under {ROOT}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # Every session is in-memory and serial: no disk cache, no worker pool.
    os.environ.pop("REPRO_SIM_CACHE_DIR", None)
    os.environ.pop("REPRO_SIM_WORKERS", None)
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    # Pin to one CPU before anything starts a thread or a process, which
    # all inherit it: the reference-loop readings then measure the CPU the
    # work runs on (harness.ScaledClock).
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    setup_samples = [] if args.probe_setup else setup_probes(args)
    workload = importlib.import_module(WORKLOADS[args.workload])

    if args.probe_setup:
        state = workload.setup(args.seed, ROOT)
        print("ready", flush=True)
        workload.close(state)
        return 0

    state = workload.setup(args.seed, ROOT)
    spans = Spans()
    results: List[Result] = []
    per_layer: Dict[str, float] = {}
    try:
        if args.trace:
            results.append(workload.measure(state, args.seconds / 2))
            with patched(spans, workload.PATCHES):
                results.append(workload.measure(state, args.seconds / 2, spans))
            per_layer = {name: 0.0 for name, _, _ in PER_LAYER}
            per_layer.update(workload.layer_metrics(state, results[1], spans))
            untraced, traced = (median(r.tasks_s) for r in results)
            per_layer["bench.trace_overhead_frac"] = traced / untraced - 1.0
        else:
            results.append(workload.measure(state, args.seconds))
    finally:
        shutdown_failures = workload.close(state)

    digests = sorted({r.digest for r in results})
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results) + shutdown_failures + (len(digests) - 1)
    if args.trace:
        units = {name: unit for name, unit, _ in PER_LAYER}
        metrics = per_layer
    else:
        units = {name: unit for name, unit, _ in END_TO_END}
        metrics = end_to_end(results[0], setup_samples)

    lines = [
        f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}",
        f"setup probes (s): {', '.join(f'{s:.3f}' for s in setup_samples)}",
    ]
    lines += [f"  {name:32s} {metrics[name]:16.6g} {units[name]}" for name in units]
    for result in results:
        lines += [f"  {name:32s} {value:16.6g}" for name, value in result.notes.items()]
    lines.append(f"failed_frac {failed / max(1, attempted):.6g} ratio ({failed}/{attempted})")
    lines.append(f"digest {args.workload} seed={args.seed}: {' '.join(digests)}")
    if args.trace and hasattr(workload, "budget_lines"):
        lines += workload.budget_lines(per_layer)
    print("\n".join(lines))

    OUT_DIR.mkdir(exist_ok=True)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_samples_s": setup_samples,
        "metrics": metrics,
        "notes": [r.notes for r in results],
        "task_p99_ms": [percentile(r.tasks_s, 99.0) * 1e3 for r in results],
        "tasks": [len(r.tasks_s) for r in results],
        "digests": digests,
        "spans": spans.summary(),
    }
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(detail, indent=1, sort_keys=True))

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
