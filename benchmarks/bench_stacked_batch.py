"""Perf: stacked multi-length operator tables vs the per-length loop.

The PR 7 tentpole: a traffic mix of N distinct sequence lengths used to cost
N separate columnar evaluations — N x ~40 small numpy ufunc launches plus N
Python-level parameter-grouping passes.  A :class:`StackedOperatorTable`
concatenates the mix into one ragged table (per-length segments recoverable
by offset) and each backend prices the whole mix with ONE vectorized pass.

Two guards:

* the 30-length CI guard — stacked evaluation must beat the per-length loop
  by >= 3x on the tiny config (the overhead-dominated regime every planner
  grid and serving batch runs in).  It reads the median of paired
  per-length/stacked time ratios: each pair times both back to back, with
  the order alternating from pair to pair, so machine drift cancels out of
  a pair's ratio and the median discards the pairs a hiccup landed in,
* bit-parity — every stacked segment report must match its per-length
  counterpart to <= 1e-9 relative on every registered backend.

The headline 50-length measurement and the planner-grid wall-clock
before/after are printed and written to ``BENCH_stacked_batch.json`` for
EXPERIMENTS.md.
"""

import statistics
import time

from conftest import emit_bench_json, print_table

from repro.cluster import (
    FleetSpec,
    SLOPolicy,
    bursty_trace,
    mixture_lengths,
    prefetch_service_times,
)
from repro.ppm import PPMConfig, get_stacked_table
from repro.sim import SimulationSession, available_backends, create_backend

#: CI guard: stacked pass over a 30-length mix must beat the loop by >= 3x.
GUARD_MIX = 30
MIN_GUARD_SPEEDUP = 3.0

#: Headline measurement recorded in EXPERIMENTS.md.
HEADLINE_MIX = 50

#: Paired rounds per measurement; the guard reads the median pair ratio.
PAIRS = 21
#: Calls per timed round, so a round outlasts a scheduler hiccup.
CALLS_PER_ROUND = 5


def length_mix(count, start=16, step=8):
    return tuple(start + i * step for i in range(count))


def time_call(fn, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def one_segment_stacks(config, lengths):
    """Prebuilt one-segment stacks: how a single length is priced."""
    return [get_stacked_table(config, [n]) for n in lengths]


def price_each(backend, singles):
    """The per-length loop: one stacked pass per one-segment stack."""
    return [backend.simulate_stack(single)[0] for single in singles]


def assert_parity(per_length, stacked):
    """Stacked segment reports must match per-length reports to <= 1e-9."""
    assert len(per_length) == len(stacked)
    for one, seg in zip(per_length, stacked):
        assert seg.sequence_length == one.sequence_length
        assert abs(seg.total_seconds - one.total_seconds) <= 1e-9 * abs(
            one.total_seconds
        )
        for phase, seconds in one.phase_seconds.items():
            assert abs(seg.phase_seconds[phase] - seconds) <= 1e-9 * abs(seconds)
        assert seg.out_of_memory == one.out_of_memory


def paired_rounds(first, second):
    """Per-call seconds of ``first`` and ``second`` over PAIRS adjacent pairs.

    Each pair times one round of each back to back; which goes first
    alternates from pair to pair.
    """
    def one_round(fn):
        t0 = time.perf_counter()
        for _ in range(CALLS_PER_ROUND):
            fn()
        return (time.perf_counter() - t0) / CALLS_PER_ROUND

    firsts, seconds = [], []
    for pair in range(PAIRS):
        if pair % 2 == 0:
            firsts.append(one_round(first))
            seconds.append(one_round(second))
        else:
            seconds.append(one_round(second))
            firsts.append(one_round(first))
    return firsts, seconds


def measure_backend(config, backend_name, lengths):
    """Paired per-length vs stacked timings with warm tables.

    Returns the median per-call seconds of each side, the median of the
    per-pair loop/stacked ratios and that ratio's quartiles.
    """
    backend = create_backend(backend_name, config)
    singles = one_segment_stacks(config, lengths)
    stack = get_stacked_table(config, lengths)

    per_length_reports = price_each(backend, singles)
    stacked_reports = backend.simulate_stack(stack)
    assert_parity(per_length_reports, stacked_reports)

    loops, stacks = paired_rounds(
        lambda: price_each(backend, singles), lambda: backend.simulate_stack(stack)
    )
    ratios = [loop / stacked for loop, stacked in zip(loops, stacks)]
    return {
        "per_length_seconds": statistics.median(loops),
        "stacked_seconds": statistics.median(stacks),
        "speedup": statistics.median(ratios),
        "pair_ratio_quartiles": statistics.quantiles(ratios, n=4),
        "pairs": PAIRS,
    }


def test_stacked_mix_beats_per_length_loop():
    """CI guard: >= 3x on a 30-length mix; headline 50-length table."""
    config = PPMConfig.tiny()
    guard = length_mix(GUARD_MIX)
    headline = length_mix(HEADLINE_MIX)

    rows = [("backend", "mix", "per-length", "stacked", "speedup", "pair quartiles")]
    results = {}
    for backend_name in ("lightnobel", "h100", "h100-chunk"):
        for label, lengths in (("guard30", guard), ("headline50", headline)):
            result = measure_backend(config, backend_name, lengths)
            results[f"{backend_name}_{label}"] = result
            low, _, high = result["pair_ratio_quartiles"]
            rows.append(
                (
                    backend_name,
                    f"{len(lengths)} lengths",
                    f"{result['per_length_seconds'] * 1e3:8.2f} ms",
                    f"{result['stacked_seconds'] * 1e3:8.2f} ms",
                    f"{result['speedup']:5.1f}x",
                    f"{low:4.1f}x / {high:4.1f}x",
                )
            )
    print_table(
        f"Stacked operator tables: one pass prices the whole mix "
        f"(medians of {PAIRS} pairs)",
        rows,
    )

    emit_bench_json("stacked_batch", results)

    # The CI perf guard: the overhead-dominated tiny-config regime is where
    # planner grids and serving batches live; stacking must win big there.
    for backend_name in ("lightnobel", "h100"):
        speedup = results[f"{backend_name}_guard30"]["speedup"]
        assert speedup >= MIN_GUARD_SPEEDUP, (
            f"stacked pass only {speedup:.1f}x faster than the per-length loop "
            f"on {backend_name} ({GUARD_MIX} lengths, median of {PAIRS} paired "
            f"ratios); floor is {MIN_GUARD_SPEEDUP:.0f}x"
        )


def test_stacked_parity_on_every_registered_backend():
    """Stacked == per-length to <= 1e-9 on every registry backend."""
    config = PPMConfig.tiny()
    lengths = length_mix(12)
    singles = one_segment_stacks(config, lengths)
    stack = get_stacked_table(config, lengths)
    for backend_name in available_backends():
        backend = create_backend(backend_name, config)
        assert_parity(price_each(backend, singles), backend.simulate_stack(stack))


def test_planner_prefetch_wall_clock():
    """Planner-grid service-time prefetch: per-length vs stacked vs bucketed."""
    config = PPMConfig.tiny()
    pool, weights = mixture_lengths(
        [(n, 1.0) for n in length_mix(40, start=24, step=8)]
    )
    trace = bursty_trace(
        rate_rps=200.0,
        num_requests=2000,
        length_pool=pool,
        length_weights=weights,
        slo=SLOPolicy(base_seconds=0.05, per_residue_seconds=2.5e-4),
        seed=3,
    )
    fleet = FleetSpec.homogeneous("lightnobel", 4)
    distinct = trace.distinct_lengths()

    def fresh_session():
        return SimulationSession(ppm_config=config)

    # Warm the process-wide table LRU once so every variant below measures
    # pricing, not graph construction (the regime a planner grid runs in).
    prefetch_service_times(trace, fleet, session=fresh_session())

    def per_length_prefetch():
        # The pre-PR-7 shape: one simulate() call per (group, length) pair.
        session = fresh_session()
        spec = fleet.groups[0].backend
        return {
            (0, n): session.simulate(n, backend=spec).total_seconds
            for n in distinct
        }

    before = time_call(lambda: per_length_prefetch(), repeats=3)
    after = time_call(
        lambda: prefetch_service_times(trace, fleet, session=fresh_session()),
        repeats=3,
    )
    bucketed = time_call(
        lambda: prefetch_service_times(
            trace, fleet, session=fresh_session(), length_bucket_size=64
        ),
        repeats=3,
    )

    exact = prefetch_service_times(trace, fleet, session=fresh_session())
    reference = per_length_prefetch()
    for n in distinct:
        assert abs(exact[(0, n)] - reference[(0, n)]) <= 1e-9 * reference[(0, n)]

    buckets = len(set(trace.bucketed_lengths(64).values()))
    print_table(
        "Planner service-time prefetch wall-clock",
        [
            ("variant", "points", "seconds", "speedup"),
            ("per-length loop", len(distinct), f"{before * 1e3:8.2f} ms", "1.0x"),
            (
                "stacked prefetch",
                len(distinct),
                f"{after * 1e3:8.2f} ms",
                f"{before / after:5.1f}x",
            ),
            (
                "stacked + bucket64",
                buckets,
                f"{bucketed * 1e3:8.2f} ms",
                f"{before / bucketed:5.1f}x",
            ),
        ],
    )
    emit_bench_json(
        "planner_prefetch",
        {
            "distinct_lengths": len(distinct),
            "buckets_64": buckets,
            "per_length_seconds": before,
            "stacked_seconds": after,
            "bucketed_seconds": bucketed,
            "stacked_speedup": before / after,
            "bucketed_speedup": before / bucketed,
        },
    )
    assert after <= before  # the stacked prefetch must never lose
