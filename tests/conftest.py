"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ppm import PPMConfig, ProteinStructureModel
from repro.proteins import generate_protein


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
