import math

import numpy as np
import pytest
from scipy.special import ai_zeros, airy

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


def abs_x_mode_count(t_min: float) -> int:
    """K, the fewest modes per parity of H = -d^2/dx^2 + |x| with lambda_K t_min >= 40."""
    lam = 40.0 / t_min
    # |a'_k| is about (3 pi (4k - 3) / 8)^(2/3), so k is about 2 lam^1.5 / (3 pi) + 3/4
    ap = ai_zeros(int(2.0 * lam**1.5 / (3.0 * math.pi)) + 8)[1]
    assert -ap[-1] >= lam
    return int(np.searchsorted(-ap, lam)) + 1


def abs_x_log_kernel(xs, ys, ts, modes: int | None = None) -> np.ndarray:
    """The exact heat kernel of H = -d^2/dx^2 + |x| on the line, as log p shaped [t, x, y].

    On x > 0 the eigenfunctions are Ai(x - lambda).  Even modes have
    Ai'(-lambda) = 0, so lambda = -a'_k and psi = Ai(|x| - lambda) / sqrt(2 lambda Ai(-lambda)^2);
    odd modes have Ai(-lambda) = 0, so lambda = -a_k and
    psi = sign(x) Ai(|x| - lambda) / sqrt(2 Ai'(-lambda)^2), as
    int_0^inf Ai(x + a)^2 dx = Ai'(a)^2 - a Ai(a)^2.  p is the sum of
    exp(-lambda t) psi(x) psi(y) over `modes` modes of each parity, by default
    `abs_x_mode_count` of the earliest t.  It is a signed sum, exact only
    where p is well above its rounding floor; a sum <= 0 maps to -inf.
    """
    xs, ys, ts = (np.asarray(v, dtype=float).ravel() for v in (xs, ys, ts))
    k = abs_x_mode_count(float(ts.min())) if modes is None else modes
    a, ap, ai, aip = ai_zeros(k)
    lam = np.concatenate([-ap, -a])
    norm = np.sqrt(np.concatenate([2.0 * -ap * ai**2, 2.0 * aip**2]))

    def psi(z):  # [point, mode]
        values = airy(np.abs(z)[:, None] - lam)[0] / norm
        values[:, k:] *= np.sign(z)[:, None]
        return values

    A, B = psi(xs), psi(ys)
    p = np.stack([(A * np.exp(-lam * t)) @ B.T for t in ts])
    return np.where(p > 0.0, np.log(np.where(p > 0.0, p, 1.0)), -np.inf)


@pytest.fixture(scope="session")
def abs_x_kernel():
    """`abs_x_log_kernel`, the exact kernel of V = |x| on the line."""
    return abs_x_log_kernel


@pytest.fixture(scope="session")
def abs_x_modes():
    """`abs_x_mode_count`, the modes per parity `abs_x_kernel` sums by default."""
    return abs_x_mode_count
