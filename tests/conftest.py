"""Shared pytest fixtures and options."""

from __future__ import annotations

import numpy as np
import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--update-goldens",
        action="store_true",
        default=False,
        help="regenerate tests/goldens/*.txt from the current drivers "
        "instead of asserting against them",
    )
    parser.addoption(
        "--update-parity",
        action="store_true",
        default=False,
        help="regenerate tests/data/engine_parity.json and "
        "tests/data/driver_wiring.json from the current code instead of "
        "asserting against them (see tests/test_engine_parity.py and "
        "tests/test_driver_wiring.py)",
    )


@pytest.fixture
def update_goldens(request) -> bool:
    """Whether ``--update-goldens`` was passed (see tests/test_goldens.py)."""
    return request.config.getoption("--update-goldens")


@pytest.fixture
def update_parity(request) -> bool:
    """Whether ``--update-parity`` was passed (see tests/test_engine_parity.py)."""
    return request.config.getoption("--update-parity")

from repro.linalg.matgen import convection_diffusion_2d, poisson_1d, poisson_2d
from repro.machine.model import MachineModel


@pytest.fixture
def rng():
    """A deterministic NumPy generator for tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def poisson_small():
    """A small SPD Poisson matrix (10x10 grid -> n = 100)."""
    return poisson_2d(10)


@pytest.fixture
def poisson_tiny():
    """A tiny 1-D Poisson matrix (n = 12)."""
    return poisson_1d(12)


@pytest.fixture
def convdiff_small():
    """A small nonsymmetric convection-diffusion matrix."""
    return convection_diffusion_2d(8, peclet=8.0)


@pytest.fixture
def ideal_machine():
    """A noise-free machine model with zero latency."""
    return MachineModel.ideal()


@pytest.fixture
def fast_recovery_machine():
    """A machine model with small recovery overheads, for failure tests."""
    return MachineModel(
        flop_rate=1e9,
        latency=1e-7,
        bandwidth=1e9,
        local_recovery_overhead=1e-5,
        restart_overhead=1e-3,
    )
