"""Golden-parity fixtures pinning `SimReport` numbers for a (backend, length) grid.

The unified simulation layer is the single source of every latency number in
the repository, so a silent drift here would corrupt every figure downstream
without failing a single shape-level assertion.  These goldens pin the
*absolute* totals (and the Fig. 14b-d folding-block metric) of the tiny
configuration on a small grid, captured from the PR 2 engine; any refactor
that changes them must update this table deliberately and say why.

The values must hold bit-for-bit modulo float noise (relative 1e-9, the
repo-wide parity bar) on every execution path: direct session, disk-cache
round trip, a fresh stacked grid pass, and the serving layer.
"""

import pytest

from repro.ppm import PPMConfig
from repro.serving import LatencyService
from repro.sim import SimulationSession

RELATIVE_TOLERANCE = 1e-9

#: (backend, length) -> (total_seconds, folding_block_seconds, out_of_memory),
#: captured on the tiny configuration.  Regenerate deliberately with:
#:   PYTHONPATH=src python -c "import tests.test_sim_goldens as g; g.regenerate()"
GOLDENS = {
    ("lightnobel", 24): (0.005248631339166666, 0.0002092832991666667, False),
    ("lightnobel", 40): (0.005256996985416666, 0.00021741971875, False),
    ("lightnobel", 64): (0.005279828238333334, 0.00023968479833333346, False),
    ("a100", 24): (0.004395410000980873, 0.0004081409396763121, False),
    ("a100", 40): (0.004407705366683017, 0.00041994246853032535, False),
    ("a100", 64): (0.0044405768213176405, 0.0004518521968285112, False),
    ("h100", 24): (0.004396228496, 0.00034126068800000025, False),
    ("h100", 40): (0.004408763621333332, 0.00035329234666666657, False),
    ("h100", 64): (0.004442276069333335, 0.0003858243146666667, False),
    ("a100-chunk", 24): (0.006234695189455387, 0.0022474261281508283, False),
    ("a100-chunk", 40): (0.00780602720245303, 0.0038182643043003493, False),
    ("a100-chunk", 64): (0.010298898272837233, 0.0063101736483481075, False),
    ("h100-chunk", 24): (0.005929417462793619, 0.0018744496547936187, False),
    ("h100-chunk", 40): (0.0072420225064343605, 0.003186551231767691, False),
    ("h100-chunk", 64): (0.009327897569150374, 0.005271445814483713, False),
}

BACKENDS = tuple(dict.fromkeys(backend for backend, _ in GOLDENS))
LENGTHS = tuple(dict.fromkeys(length for _, length in GOLDENS))


def regenerate() -> None:  # pragma: no cover - maintenance helper
    session = SimulationSession(ppm_config=PPMConfig.tiny(), use_disk_cache=False)
    for backend in BACKENDS:
        for n in LENGTHS:
            r = session.simulate(n, backend=backend)
            print(
                f'    ("{backend}", {n}): '
                f"({r.total_seconds!r}, {r.folding_block_seconds!r}, {r.out_of_memory}),"
            )


def assert_matches_golden(report, backend, length):
    total, folding, oom = GOLDENS[(backend, length)]
    assert report.total_seconds == pytest.approx(total, rel=RELATIVE_TOLERANCE)
    assert report.folding_block_seconds == pytest.approx(
        folding, rel=RELATIVE_TOLERANCE
    )
    assert report.out_of_memory == oom


@pytest.fixture(scope="module")
def tiny_session() -> SimulationSession:
    return SimulationSession(ppm_config=PPMConfig.tiny(), use_disk_cache=False)


@pytest.mark.parametrize("backend,length", sorted(GOLDENS))
def test_session_matches_goldens(tiny_session, backend, length):
    assert_matches_golden(tiny_session.simulate(length, backend=backend), backend, length)


def test_batch_matches_goldens(tiny_session):
    batch = tiny_session.simulate_batch(LENGTHS, backends=BACKENDS)
    for backend in BACKENDS:
        for length in LENGTHS:
            assert_matches_golden(batch.report(backend, length), backend, length)


def test_disk_cache_roundtrip_matches_goldens(tmp_path):
    cold = SimulationSession(ppm_config=PPMConfig.tiny(), cache_dir=tmp_path)
    cold.simulate_batch(LENGTHS, backends=BACKENDS)
    warm = SimulationSession(ppm_config=PPMConfig.tiny(), cache_dir=tmp_path)
    for backend in BACKENDS:
        for length in LENGTHS:
            assert_matches_golden(
                warm.simulate(length, backend=backend), backend, length
            )
    assert warm.cache.hits > 0  # the goldens really came off disk


def test_fresh_grid_batch_matches_goldens():
    # The Fig. 12 grid path: a fresh session prices every backend's lengths
    # in one stacked pass, with nothing memoized beforehand.
    session = SimulationSession(
        ppm_config=PPMConfig.tiny(), backends=(), use_disk_cache=False
    )
    batch = session.simulate_batch(LENGTHS, backends=BACKENDS)
    for backend in BACKENDS:
        for length in LENGTHS:
            assert_matches_golden(batch.report(backend, length), backend, length)


def test_serving_layer_matches_goldens():
    with LatencyService(ppm_config=PPMConfig.tiny(), use_disk_cache=False) as service:
        reports = service.query_batch(sorted(GOLDENS), timeout=120.0)
    for (backend, length), report in zip(sorted(GOLDENS), reports):
        assert_matches_golden(report, backend, length)
