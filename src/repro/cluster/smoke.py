"""CI smoke entry: small cluster replays, deterministically, healthy or faulty.

Run as ``PYTHONPATH=src python -m repro.cluster.smoke [--scenario NAME]``.

* ``--scenario healthy`` (default) — the PR 5 smoke: a bursty trace on the
  tiny configuration replayed against a 3-worker fleet under FIFO and EDF
  (sharing one service-time prefetch), asserting bit-determinism and the
  deadline-count dominance of EDF.
* ``--scenario faulty`` (or ``diurnal`` / ``flash-crowd``) — one pinned
  scenario from :func:`repro.cluster.scenarios.scenario_suite` replayed
  twice against a 4-worker multi-chip fleet, asserting bit-determinism of
  the *closed-loop* path (faults, retries, admission control, autoscaler)
  and the drop-accounting identity ``dropped == oom + shed + failed``.
* ``--scenario hetero`` — long-tail traffic on a mixed fleet (one big-memory
  worker, two cheap small-memory ones): cost-greedy routing must complete
  everything with zero OOM drops where the unrouted baseline drops the
  512-residue tail, deterministically.
* ``--scenario log-replay`` — a live :class:`~repro.serving.service.LatencyService`
  batch, its request log exported via
  :meth:`~repro.cluster.trace.RequestTrace.from_serving_log`, replayed
  through the simulator: digest-stable and bit-deterministic.

Both modes print the drop split (``oom``/``shed``/``failed``) so a CI log
shows where requests went, and every cache write is sandboxed in a
throwaway directory.
"""

from __future__ import annotations

import argparse
import sys
import tempfile

from ..ppm.config import PPMConfig
from ..sim.cache import sandbox_cache_dir
from ..sim.session import SimulationSession
from .des import prefetch_service_times, replay_trace
from .fleet import FleetSpec, MultiChipVariant
from .scenarios import named_scenario
from .trace import SLOPolicy, bursty_trace, mixture_lengths


def _drop_split(report) -> str:
    return (
        f"drops[oom={report.oom_dropped} shed={report.shed}"
        f" failed={report.failed} total={report.dropped}]"
    )


def _healthy(cache_dir: str) -> int:
    config = PPMConfig.tiny()
    pool, weights = mixture_lengths([(24, 0.6), (48, 0.3), (96, 0.1)])
    trace = bursty_trace(
        rate_rps=400.0,
        num_requests=150,
        length_pool=pool,
        length_weights=weights,
        slo=SLOPolicy(base_seconds=0.03, per_residue_seconds=2.0e-4),
        seed=11,
    )
    fleet = FleetSpec.homogeneous("h100-chunk", 3)
    session = SimulationSession(ppm_config=config, cache_dir=cache_dir)
    times = prefetch_service_times(trace, fleet, session=session)
    reports = {}
    for policy in ("fifo", "edf"):
        first = replay_trace(trace, fleet, scheduler=policy, service_times=times)
        again = replay_trace(trace, fleet, scheduler=policy, service_times=times)
        if first != again:
            print(f"FAIL: {policy} replay is not deterministic", file=sys.stderr)
            return 1
        reports[policy] = first
        print(
            f"replay[{policy}] completed={first.completed}"
            f" p50={first.p50_latency_seconds * 1e3:.2f} ms"
            f" p99={first.p99_latency_seconds * 1e3:.2f} ms"
            f" slo={first.slo_attainment:.3f}"
            f" util={ {k: round(v, 3) for k, v in first.utilization.items()} }"
            f" events={first.events_processed}"
            f" {_drop_split(first)}"
        )
    if reports["fifo"].completed != len(trace) or reports["edf"].completed != len(trace):
        print("FAIL: replay lost requests", file=sys.stderr)
        return 1
    if reports["edf"].deadlines_missed > reports["fifo"].deadlines_missed:
        print("FAIL: EDF missed more deadlines than FIFO", file=sys.stderr)
        return 1
    print("smoke ok: deterministic 3-worker replay, FIFO vs EDF, sandboxed cache")
    return 0


def _scenario(name: str, cache_dir: str) -> int:
    config = PPMConfig.tiny()
    scenario = named_scenario(name, num_workers=4)
    fleet = FleetSpec.homogeneous(MultiChipVariant(base="h100-chunk", chips=2), 4)
    session = SimulationSession(ppm_config=config, cache_dir=cache_dir)
    times = prefetch_service_times(scenario.trace, fleet, session=session)
    first = scenario.replay(
        fleet, service_times=times, same_length_reuse_discount=0.25,
        ppm_config=config,
    )
    again = scenario.replay(
        fleet, service_times=times, same_length_reuse_discount=0.25,
        ppm_config=config,
    )
    if first != again:
        print(f"FAIL: scenario {name!r} replay is not deterministic", file=sys.stderr)
        return 1
    print(
        f"scenario[{name}] completed={first.completed}/{first.requests}"
        f" slo={first.slo_attainment:.4f}"
        f" retried={first.retried}"
        f" availability={first.availability:.4f}"
        f" mean_fleet={first.mean_fleet_size:.2f}"
        f" peak_fleet={first.peak_fleet_size}"
        f" events={first.events_processed}"
        f" {_drop_split(first)}"
    )
    if first.dropped != first.oom_dropped + first.shed + first.failed:
        print("FAIL: drop split does not sum to total drops", file=sys.stderr)
        return 1
    if first.completed + first.dropped != first.requests:
        print("FAIL: requests not conserved", file=sys.stderr)
        return 1
    print(f"smoke ok: deterministic closed-loop replay of scenario {name!r}")
    return 0


def _hetero(cache_dir: str) -> int:
    """Mixed-fleet smoke: routed dispatch beats OOM drops, deterministically."""
    from .fleet import WorkerGroup
    from .scenarios import mixed_fleet_trace, small_memory_gpu

    config = PPMConfig.tiny()
    trace = mixed_fleet_trace(seed=11, rate_rps=15.0, num_requests=80)
    fleet = FleetSpec(
        groups=(
            WorkerGroup(backend="h100-chunk", count=1),
            WorkerGroup(backend=small_memory_gpu(), count=2, cost_per_hour=2.05),
        ),
        name="hetero-smoke",
    )
    session = SimulationSession(ppm_config=config, cache_dir=cache_dir)
    times = prefetch_service_times(trace, fleet, session=session)
    routed = replay_trace(
        trace, fleet, scheduler="edf", router="cost-greedy", service_times=times
    )
    again = replay_trace(
        trace, fleet, scheduler="edf", router="cost-greedy", service_times=times
    )
    if routed != again:
        print("FAIL: routed mixed-fleet replay is not deterministic", file=sys.stderr)
        return 1
    unrouted = replay_trace(trace, fleet, scheduler="edf", service_times=times)
    print(
        f"hetero[router={routed.router}] completed={routed.completed}/{routed.requests}"
        f" slo={routed.slo_attainment:.4f}"
        f" util={ {k: round(v, 3) for k, v in routed.utilization.items()} }"
        f" {_drop_split(routed)}"
    )
    print(
        f"hetero[router={unrouted.router}] completed={unrouted.completed}/{unrouted.requests}"
        f" {_drop_split(unrouted)}"
    )
    if routed.oom_dropped != 0 or routed.completed != routed.requests:
        print("FAIL: router left OOM drops on a fleet that can serve everything",
              file=sys.stderr)
        return 1
    if unrouted.oom_dropped == 0:
        print("FAIL: unrouted baseline shows no OOM drops — smoke traffic has no"
              " long tail, routing is untested", file=sys.stderr)
        return 1
    if min(routed.utilization.values()) <= 0.0:
        print("FAIL: a worker group sat completely idle under routing", file=sys.stderr)
        return 1
    print("smoke ok: cost-greedy routing on a mixed fleet, zero OOM drops")
    return 0


def _log_replay(cache_dir: str) -> int:
    """Serving-log round trip: live traffic becomes a replayable trace."""
    from ..serving.api import LatencyRequest
    from ..serving.service import LatencyService
    from .trace import RequestTrace

    config = PPMConfig.tiny()
    requests = [
        LatencyRequest(
            backend="h100-chunk",
            sequence_length=n,
            priority=i % 2,
            deadline_seconds=0.5 + 0.01 * i,
        )
        for i, n in enumerate((24, 48, 96, 24, 48, 96, 24, 48))
    ]
    service = LatencyService(ppm_config=config, cache_dir=cache_dir, autostart=False)
    tickets = service.submit_batch(requests)
    with service:
        for ticket in tickets:
            service.result(ticket, timeout=120.0).raise_for_error()
        records = service.request_log()
    trace = RequestTrace.from_serving_log(records)
    if len(trace) != len(requests):
        print("FAIL: serving log lost requests on the way to a trace", file=sys.stderr)
        return 1
    if trace.config_digest() != RequestTrace.from_serving_log(records).config_digest():
        print("FAIL: log-derived trace digest is unstable", file=sys.stderr)
        return 1
    fleet = FleetSpec.homogeneous("h100-chunk", 2)
    session = SimulationSession(ppm_config=config, cache_dir=cache_dir)
    times = prefetch_service_times(trace, fleet, session=session)
    first = replay_trace(trace, fleet, scheduler="edf", service_times=times)
    again = replay_trace(trace, fleet, scheduler="edf", service_times=times)
    if first != again:
        print("FAIL: log-derived trace does not replay deterministically", file=sys.stderr)
        return 1
    print(
        f"log-replay digest={trace.config_digest()[:12]}"
        f" requests={first.requests} completed={first.completed}"
        f" slo={first.slo_attainment:.4f} {_drop_split(first)}"
    )
    if first.completed != first.requests:
        print("FAIL: replay of logged traffic lost requests", file=sys.stderr)
        return 1
    print("smoke ok: LatencyService log -> RequestTrace -> deterministic replay")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--scenario",
        default="healthy",
        choices=("healthy", "diurnal", "flash-crowd", "faulty", "hetero", "log-replay"),
        help=(
            "healthy = PR 5 FIFO/EDF smoke; diurnal/flash-crowd/faulty = pinned "
            "closed-loop scenarios; hetero = routed mixed-fleet replay; "
            "log-replay = serving-log -> trace round trip"
        ),
    )
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="repro-cluster-smoke-") as cache_dir:
        # Sandbox every cache write in the throwaway directory, as the test
        # suite's conftest does — nothing lands in the runner workspace/home.
        with sandbox_cache_dir(cache_dir):
            if args.scenario == "healthy":
                return _healthy(cache_dir)
            if args.scenario == "hetero":
                return _hetero(cache_dir)
            if args.scenario == "log-replay":
                return _log_replay(cache_dir)
            return _scenario(args.scenario, cache_dir)


if __name__ == "__main__":
    raise SystemExit(main())
