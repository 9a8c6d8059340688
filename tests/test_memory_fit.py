"""Every backend's out-of-memory verdict is ``n > memory.max_length(...)``.

LightNobel at the paper config holds 10,655 residues in its 80 GB of HBM
(Section 8.3).  Each surface that reports a fit (the session, the totals
path, stacks, multi-chip nodes and the cluster replay) must read that one
threshold, and the threshold is searched once per
``(row, config, capacity, aaq)``, however many backends ask.
"""

from dataclasses import replace

import pytest

from repro._memo import CONFIG_MEMO
from repro.cluster import (
    FleetSpec,
    MultiChipVariant,
    Request,
    RequestTrace,
    WorkerGroup,
    replay_trace,
)
from repro.core.aaq import AAQConfig
from repro.gpu.gpu_config import get_gpu
from repro.gpu.gpu_model import GPUModel
from repro.hardware.config import LightNobelConfig
from repro.ppm import PPMConfig, memory
from repro.ppm.op_table import get_stacked_table
from repro.sim import SimulationSession
from repro.sim.backend import AcceleratorVariant, create_backend

#: Longest sequence LightNobel holds at the paper config.
LIMIT = 10655

#: The same without token-wise MHA: both score intermediates live in HBM.
UNFUSED_LIMIT = 1685

#: The Fig. 12 grid the ``dse-sweep`` workload prices: three anchors, each
#: swept over VVPUs per RMPU and over RMPUs (60 configs, some repeated).
FIG12_ANCHORS = ((32, 4), (64, 2), (16, 8))
FIG12_RMPUS = (1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64)
FIG12_VVPUS = (1, 2, 3, 4, 5, 6, 7, 8)


def fig12_grid():
    return [
        LightNobelConfig(num_rmpus=r, vvpus_per_rmpu=v)
        for rmpus, vvpus in FIG12_ANCHORS
        for r, v in [(rmpus, v) for v in FIG12_VVPUS] + [(r, vvpus) for r in FIG12_RMPUS]
    ]


@pytest.fixture(scope="module")
def session():
    return SimulationSession(use_disk_cache=False)


class TestLightNobelOutOfMemory:
    def test_the_threshold_is_the_memory_models(self):
        paper = PPMConfig.paper()
        capacity = LightNobelConfig.paper().hbm_capacity_gb
        aaq = AAQConfig.paper_optimal()
        expected = memory.max_length(memory.LIGHTNOBEL_AAQ, paper, capacity, aaq)
        assert create_backend("lightnobel").max_length == expected == LIMIT

    def test_without_tokenwise_mha_the_scores_are_resident(self, session):
        paper = PPMConfig.paper()
        capacity = LightNobelConfig.paper().hbm_capacity_gb
        aaq = AAQConfig.paper_optimal()
        unfused = AcceleratorVariant(tokenwise_mha=False, name="lightnobel-unfused")
        expected = memory.max_length(memory.LIGHTNOBEL_AAQ_UNFUSED, paper, capacity, aaq)
        assert unfused.build(paper).max_length == expected == UNFUSED_LIMIT
        assert not session.simulate(UNFUSED_LIMIT, backend=unfused).out_of_memory
        assert session.simulate(UNFUSED_LIMIT + 1, backend=unfused).out_of_memory
        assert not session.simulate(UNFUSED_LIMIT + 1, backend="lightnobel").out_of_memory

    def test_simulate(self, session):
        assert not session.simulate(LIMIT, backend="lightnobel").out_of_memory
        assert session.simulate(LIMIT + 1, backend="lightnobel").out_of_memory
        assert session.simulate(12000, backend="lightnobel").out_of_memory

    def test_batch_total_seconds_gives_none(self, session):
        (totals,) = session.batch_total_seconds([LIMIT, LIMIT + 1], backends=["lightnobel"])
        assert totals[0] == session.simulate(LIMIT, backend="lightnobel").total_seconds
        assert totals[1] is None

    def test_stack_and_totals_agree_on_a_mixed_stack(self):
        backend = create_backend("lightnobel")
        stack = get_stacked_table(PPMConfig.paper(), [256, LIMIT, LIMIT + 1, 12000])
        reports = backend.simulate_stack(stack)
        assert [r.out_of_memory for r in reports] == [False, False, True, True]
        assert backend.simulate_stack_totals(stack) == [
            (r.total_seconds, r.out_of_memory) for r in reports
        ]

    def test_multi_chip_passes_the_verdict_through(self, session):
        node = MultiChipVariant(base="lightnobel", chips=2)
        assert not session.simulate(LIMIT, backend=node).out_of_memory
        assert session.simulate(LIMIT + 1, backend=node).out_of_memory
        (totals,) = session.batch_total_seconds([LIMIT, LIMIT + 1], backends=[node])
        assert totals[0] is not None and totals[1] is None

    def test_group_oblivious_replay_drops_the_long_request(self, session):
        requests = tuple(
            Request(id=i, arrival_seconds=float(i), sequence_length=n)
            for i, n in enumerate([LIMIT, LIMIT + 1])
        )
        trace = RequestTrace(name="limit", requests=requests, seed=0, offered_rps=1.0)
        fleet = FleetSpec(groups=(WorkerGroup(backend="lightnobel", count=2),), name="ln")
        report = replay_trace(trace, fleet, session=session)
        assert report.oom_dropped == 1
        assert report.completed == 1


class TestNothingFits:
    def test_max_length_is_zero_below_the_weights(self):
        paper = PPMConfig.paper()
        assert memory.weight_bytes(paper) / memory.GB > 0.5
        assert memory.max_length(memory.GPU_DENSE, paper, 0.5) == 0
        assert not memory.fits(memory.GPU_DENSE, paper, 1, 0.5)

    def test_gpu_reports_oom_at_one_residue(self):
        model = GPUModel(replace(get_gpu("H100"), memory_gb=0.5))
        assert model.max_length == 0
        assert model.simulate(1).out_of_memory

    @pytest.mark.parametrize("capacity_gb", [0.5, 4.0, 40.0, 80.0])
    def test_fits_exactly_up_to_max_length(self, capacity_gb):
        paper = PPMConfig.paper()
        limit = memory.max_length(memory.GPU_CHUNKED, paper, capacity_gb)
        for n in {1, 2, max(limit, 1), limit + 1, limit + 2}:
            assert memory.fits(memory.GPU_CHUNKED, paper, n, capacity_gb) == (n <= limit)


def test_fig12_grid_backends_search_the_fit_once(monkeypatch):
    CONFIG_MEMO.clear()  # the threshold is memoized per process
    calls = []
    fits = memory.fits

    def counting(*args, **kwargs):
        calls.append(args)
        return fits(*args, **kwargs)

    monkeypatch.setattr(memory, "fits", counting)
    grid = fig12_grid()
    assert len(grid) == 60 and len(set(grid)) > 1
    stack = get_stacked_table(PPMConfig.paper(), [256, LIMIT + 1])
    create_backend(grid[0]).simulate_stack_totals(stack)
    one_search = len(calls)
    assert one_search > 0
    for _ in range(2):  # fresh backends each time, as each dse-sweep pass builds
        for hw in grid:
            totals = create_backend(hw).simulate_stack_totals(stack)
            assert [oom for _, oom in totals] == [False, True]
    assert len(calls) == one_search
