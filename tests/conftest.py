import numpy as np
import pytest

from heatkernel import PolynomialPotential
from heatkernel.spectral import cached_spectral


@pytest.fixture(scope="session")
def spectral_vxx1():
    """V = x^2 + x + 1 on [-8, 8], 2001 interior points, t >= 0.05 (shared)."""
    return cached_spectral(PolynomialPotential([1.0, 1.0, 1.0]), 8.0, 2001, 0.05)


@pytest.fixture(scope="session")
def spectral_free():
    """V = 0 on [-2, 2], 799 interior points, t >= 0.05."""
    return cached_spectral(PolynomialPotential([0.0]), 2.0, 799, 0.05)


@pytest.fixture(scope="session")
def spectral_harmonic():
    """V = x^2 on [-8, 8], 2001 interior points, t >= 0.05."""
    return cached_spectral(PolynomialPotential([0.0, 0.0, 1.0]), 8.0, 2001, 0.05)


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)
