"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.ppm import PPMConfig, ProteinStructureModel
from repro.proteins import generate_protein
from repro.sim.cache import CACHE_DIR_ENV


@pytest.fixture(scope="session", autouse=True)
def _isolated_sim_cache(tmp_path_factory):
    """Point ``REPRO_SIM_CACHE_DIR`` at a per-run tmp dir for the whole suite.

    Tests must never read cache state leaked by an earlier run (stale entries
    could mask regressions) nor write into the developer's real
    ``~/.cache/repro-sim``.  Session-scoped on purpose: child processes (the
    HTTP server tests, the Fig. 11 model pool) inherit the environment, so
    they share the same sandboxed directory.  Tests that need a pristine or
    disabled cache still override per-test with ``monkeypatch``/``cache_dir=``.
    """
    cache_dir = tmp_path_factory.mktemp("repro-sim-cache")
    previous = os.environ.get(CACHE_DIR_ENV)
    os.environ[CACHE_DIR_ENV] = str(cache_dir)
    yield
    if previous is None:
        os.environ.pop(CACHE_DIR_ENV, None)
    else:
        os.environ[CACHE_DIR_ENV] = previous


@pytest.fixture(scope="session")
def tiny_config() -> PPMConfig:
    # float64: the dense ≡ chunked parity tests built on this fixture hold
    # at the 1e-9 bar only in float64 (float32 parity is its own test).
    return PPMConfig.tiny().with_dtype("float64")


@pytest.fixture(scope="session")
def small_config() -> PPMConfig:
    return PPMConfig.small()


@pytest.fixture(scope="session")
def tiny_protein():
    """A short synthetic protein with ground-truth structure."""
    return generate_protein(24, seed=7, name="tiny_target")


@pytest.fixture(scope="session")
def medium_protein():
    """A medium synthetic protein used by accuracy-sensitive tests."""
    return generate_protein(56, seed=11, name="medium_target")


@pytest.fixture(scope="session")
def tiny_model(tiny_config) -> ProteinStructureModel:
    return ProteinStructureModel(tiny_config, seed=0)


@pytest.fixture(scope="session")
def small_model(small_config) -> ProteinStructureModel:
    return ProteinStructureModel(small_config, seed=0)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)
