"""CI smoke entry: a concurrent batch through a ``LatencyService``.

Run as ``PYTHONPATH=src python -m repro.serving.smoke``.  Submits a small
batch with duplicates, asserts coalescing happened and that each backend's
lengths were priced by one stacked pass, and checks the served numbers
against a direct :class:`~repro.sim.session.SimulationSession` before
exiting 0.
"""

from __future__ import annotations

import sys
import tempfile

from ..hardware.config import LightNobelConfig
from ..ppm.config import PPMConfig
from ..sim.cache import sandbox_cache_dir
from ..sim.session import SimulationSession
from .api import LatencyRequest
from .service import LatencyService


def main() -> int:
    config = PPMConfig.tiny()
    requests = [
        LatencyRequest(backend=spec, sequence_length=n)
        for spec in ("lightnobel", "h100", "h100-chunk", LightNobelConfig(num_rmpus=8))
        for n in (24, 48)
    ]
    # Duplicate the whole batch: the copies must coalesce, not re-simulate.
    requests = requests + requests

    with tempfile.TemporaryDirectory(prefix="repro-serving-smoke-") as cache_dir:
        # Sandbox every cache write in the throwaway directory, as the test
        # suite's conftest does: the env var covers the reference session in
        # _run, which would otherwise write into the CI runner's workspace/home.
        with sandbox_cache_dir(cache_dir):
            return _run(config, requests, cache_dir)


def _run(config: PPMConfig, requests, cache_dir: str) -> int:
    # Stage the whole batch before starting the dispatcher so every
    # duplicate is deterministically in-flight together — otherwise a
    # fast dispatcher could fulfill a key before its duplicate arrives
    # (a memo hit, not coalescing) and flake the assertion below.
    service = LatencyService(ppm_config=config, cache_dir=cache_dir, autostart=False)
    tickets = service.submit_batch(requests)
    with service:
        responses = [service.result(t, timeout=120.0) for t in tickets]
        report = service.capacity_report()

    reference = SimulationSession(ppm_config=config)
    for response in responses:
        response.raise_for_error()
        direct = reference.simulate(
            response.request.sequence_length, backend=response.request.backend
        )
        if response.report.total_seconds != direct.total_seconds:
            print(
                f"FAIL: served {response.request} diverged from direct session",
                file=sys.stderr,
            )
            return 1
        print(
            f"serve[{response.report.backend}, n={response.request.sequence_length}]"
            f" {response.report.total_seconds * 1e3:.3f} ms"
            f" (coalesced={response.coalesced},"
            f" service={response.service_seconds * 1e3:.1f} ms)"
        )

    unique = len({(r.backend if isinstance(r.backend, str) else "cfg", r.sequence_length) for r in requests})
    print(
        f"capacity: {report.completed} served, {report.coalesced} coalesced, "
        f"{report.simulations} simulations in {report.stacked_batches} stacked "
        f"batches, hit_rate={report.hit_rate:.2f}, "
        f"{report.queries_per_second:.0f} q/s sustained"
    )
    if report.coalesced < len(requests) - unique:
        print("FAIL: duplicate in-flight requests did not coalesce", file=sys.stderr)
        return 1
    if report.stacked_points != unique:
        print("FAIL: misses were not priced by stacked passes", file=sys.stderr)
        return 1
    if report.errors:
        print("FAIL: service reported errors", file=sys.stderr)
        return 1
    print("smoke ok: LatencyService batch + coalescing + stacked parity")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
