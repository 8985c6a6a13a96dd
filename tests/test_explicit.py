import math

import numpy as np
import pytest
from scipy.integrate import quad

from heatkernel import (
    ParameterError,
    QuadraticCoeffs,
    gaussian_kernel,
    quadratic_kernel,
)
from heatkernel.explicit import _time_factors, coth_minus_csch, csch, log_csch


def test_gaussian_normalization_point():
    assert math.exp(gaussian_kernel(1, 0.0, 0.0, 1.0 / (4.0 * math.pi))) == pytest.approx(1.0)


def test_gaussian_mass():
    for t in (0.3, 1.0):
        m, _ = quad(lambda y: math.exp(gaussian_kernel(1, 0.2, y, t)), -40, 40, epsabs=1e-14, epsrel=1e-13)
        assert m == pytest.approx(1.0, abs=1e-12)


def test_gaussian_chapman_kolmogorov():
    t, s, x, y = 0.4, 0.7, -0.3, 1.1
    val, _ = quad(
        lambda z: math.exp(gaussian_kernel(1, x, z, t)) * math.exp(gaussian_kernel(1, z, y, s)),
        -60,
        60,
        epsabs=1e-14,
        epsrel=1e-13,
    )
    assert val == pytest.approx(math.exp(gaussian_kernel(1, x, y, t + s)), rel=1e-12)


def test_gaussian_nd_product():
    for x, y in [((0.1, -0.2), (0.5, 0.3)), ((0.3, -0.2), (0.1, 0.5))]:
        g2 = gaussian_kernel(2, x, y, 0.7)
        g1a = gaussian_kernel(1, x[0], y[0], 0.7)
        g1b = gaussian_kernel(1, x[1], y[1], 0.7)
        assert g2 == pytest.approx(g1a + g1b, rel=1e-14)


def test_gaussian_errors():
    with pytest.raises(ParameterError):
        gaussian_kernel(1, 0.0, 0.0, 0.0)
    with pytest.raises(ParameterError):
        gaussian_kernel(0, 0.0, 0.0, 1.0)


def test_quadratic_origin_oracle():
    # direct substitution, independent of the log-space assembly
    for t in (0.1, 0.5, 2.0):
        want = math.sqrt(csch(2.0 * t) / (2.0 * math.pi))
        got = quadratic_kernel(QuadraticCoeffs(0, 0, 1), 0.0, 0.0, t)
        assert math.exp(got) == pytest.approx(want, rel=1e-13)


def test_quadratic_symmetry_exact():
    c = QuadraticCoeffs(0.5, -1.2, 2.0)
    for x, y, t in [(0.3, -0.8, 0.2), (1.5, 2.5, 1.0), (-2.0, 0.1, 0.05)]:
        assert quadratic_kernel(c, x, y, t) == quadratic_kernel(c, y, x, t)


def test_quadratic_small_t_gaussian_limit():
    c = QuadraticCoeffs(0, 0, 1)
    for x in np.linspace(-1, 1, 5):
        for y in np.linspace(-1, 1, 5):
            r = math.exp(
                quadratic_kernel(c, x, y, 1e-4) - gaussian_kernel(1, x, y, 1e-4)
            )
            assert abs(r - 1.0) < 1e-3


def test_a0_shift_identity():
    # p_{a0} = e^{-a0 t} p_0 for any a0, signed included
    for (a0, a1, a2), (x, y, t), tol in [
        ((5.0, 0.0, 1.0), (0.0, 0.0, 0.5), 1e-12),
        ((0.0, 2.0, 1.0), (0.4, 0.6, 0.3), 0.0),
        ((-3.0, 1.0, 2.0), (-0.7, 1.1, 0.9), 1e-12),
    ]:
        base = quadratic_kernel(QuadraticCoeffs(0.0, a1, a2), x, y, t)
        assert abs(quadratic_kernel(QuadraticCoeffs(a0, a1, a2), x, y, t) - (base - a0 * t)) <= tol


def test_gaussian_domination_when_nonnegative():
    # a1^2 <= 4 a0 a2 keeps V >= 0, so the free kernel dominates
    for c in (QuadraticCoeffs(0, 0, 1), QuadraticCoeffs(1, 1, 1), QuadraticCoeffs(2.0, -2.0, 0.5)):
        assert c.nonnegative
        for x in np.linspace(-4, 4, 9):
            for y in np.linspace(-4, 4, 9):
                for t in (1e-3, 0.1, 1.0, 4.0):
                    lq = quadratic_kernel(c, x, y, t)
                    lg = gaussian_kernel(1, x, y, t)
                    assert lq <= lg + 1e-10


def test_hyperbolic_stability_extremes():
    c = QuadraticCoeffs(0, 0, 1)
    for t in (1e-12, 1e-6, 1.0, 1e2, 1e4):
        for x in (0.0, 1.0, 1e3):
            assert math.isfinite(quadratic_kernel(c, x, -x, t))


def test_scaled_hyperbolic_forms_match_direct():
    # the exp-scaled branch must agree with the naive one near the switch
    for u in (29.0, 29.999, 30.001, 35.0):
        assert log_csch(u) == pytest.approx(math.log(1.0 / math.sinh(u)), rel=1e-13)
        assert csch(u) == pytest.approx(1.0 / math.sinh(u), rel=1e-13)
        direct = 1.0 / math.tanh(u) - 1.0 / math.sinh(u)
        assert coth_minus_csch(u) == pytest.approx(direct, rel=1e-12)


def test_large_t_factorized_decay():
    # V = x^2: log p(x,x,t) -> const - t - x^2 with const = log(1/pi)/2
    const = 0.5 * math.log(1.0 / math.pi)
    c = QuadraticCoeffs(0, 0, 1)
    worst = 0.0
    for t in np.linspace(3.0, 50.0, 12):
        for x in np.linspace(-3, 3, 7):
            dev = abs(quadratic_kernel(c, x, x, t) + t + x * x - const)
            worst = max(worst, dev)
    assert worst <= 0.05


def test_quadratic_mass_bounds():
    c = QuadraticCoeffs(0, 0, 1)
    for t in (1e-3, 0.01, 0.1, 1.0):
        w = 14.0 * math.sqrt(t) + 1.0
        m, _ = quad(lambda y: math.exp(quadratic_kernel(c, 0.0, y, t)), -w, w, epsabs=1e-14, epsrel=1e-12)
        assert m <= 1.0 + 1e-8
    m0, _ = quad(lambda y: math.exp(quadratic_kernel(c, 0.0, y, 1e-3)), -1.5, 1.5, epsabs=1e-14, epsrel=1e-12)
    assert m0 >= 0.99


def test_parameter_validation():
    with pytest.raises(ParameterError):
        QuadraticCoeffs(0, 0, 0)
    with pytest.raises(ParameterError):
        QuadraticCoeffs(0, 0, -1)
    with pytest.raises(ParameterError):
        quadratic_kernel(QuadraticCoeffs(0, 0, 1), 0.0, 0.0, 1e-13)


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


def test_time_factors_are_memoised_per_coefficients():
    _time_factors.cache_clear()
    c1, c2 = QuadraticCoeffs(0.5, 0.3, 1.2), QuadraticCoeffs(0.9, 0.3, 1.2)
    first, second = _time_factors(c1, 0.4), _time_factors(c2, 0.4)
    assert _bits(first) == _bits(_time_factors.__wrapped__(c1, 0.4))
    assert _bits(second) == _bits(_time_factors.__wrapped__(c2, 0.4))
    assert first != second
    assert _time_factors(c1, 0.4) is first and _time_factors.cache_info().hits == 1


@pytest.mark.parametrize("a1", [0.0, -0.0, 0.7])
def test_signed_zero_coefficients_give_bit_identical_factors(a1):
    # QuadraticCoeffs(0.0, ...) == QuadraticCoeffs(-0.0, ...), so they share a memo entry
    signs = (1.0, -1.0) if a1 == 0.0 else (1.0,)
    variants = [QuadraticCoeffs(a0, s * a1, 1.3) for a0 in (0.0, -0.0) for s in signs]
    for t in (0.05, 2.5):
        want = _bits(_time_factors.__wrapped__(variants[0], t))
        assert all(_bits(_time_factors.__wrapped__(c, t)) == want for c in variants)
        _time_factors.cache_clear()
        assert all(_bits(_time_factors(c, t)) == want for c in variants)
