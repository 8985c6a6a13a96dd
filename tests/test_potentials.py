import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly
from scipy.integrate import quad

from heatkernel import (
    Cube,
    Potential,
    DomainError,
    ParameterError,
    PolynomialPotential,
    PowerPotential,
    ScaledPotential,
    SumPotential,
    TabulatedPotential,
    ap_constant,
    constant,
    cube_average,
    cube_averages,
    doubling_fit,
    m_beta,
    rh_constant,
)
from heatkernel import potentials
from heatkernel.potentials import (
    DIVERGENCE_THRESHOLD,
    ESS_SUP_GRID,
    _power_means,
    _safe_ratio,
    interval_integral,
    powered_interval_integral,
)


# independent oracle: integral of |x|^a over [lo, hi] by direct antiderivative
def power_integral(lo, hi, a):
    def prim(v):
        return v ** (a + 1.0) / (a + 1.0)

    if lo >= 0:
        return prim(hi) - prim(lo)
    if hi <= 0:
        return prim(-lo) - prim(-hi)
    return prim(-lo) + prim(hi)


def test_eval_examples():
    assert PolynomialPotential([0, 0, 1])(3.0) == 9.0
    assert PowerPotential(-0.5)(4.0) == 0.5
    with pytest.raises(DomainError):
        PowerPotential(-0.5)(0.0)


def test_eval_vectorized():
    xs = np.array([[-2.5, -1.0, 0.0], [0.3, 1.0, 3.75]])
    for V in (
        PolynomialPotential([1.0, 2.0, 0.5]),
        PowerPotential(0.7),
        PowerPotential(2.0),
        _tabulated([1.0, 0.0, 2.0, 4.0]),
        SumPotential(ScaledPotential(3.0, PolynomialPotential([0.0, 0.0, 1.0])), PowerPotential(0.5)),
    ):
        got = V(xs)
        assert isinstance(got, np.ndarray) and got.shape == xs.shape
        assert _bits(got) == _bits([[V(float(x)) for x in row] for row in xs])
        assert all(isinstance(V(float(x)), float) for x in xs.flat)
    # a length-1 array stays an array
    assert PowerPotential(2.0)(np.array([3.0])).shape == (1,)


def test_one_dimensional_signatures():
    for make in (
        lambda: PolynomialPotential([0.0, 0.0, 1.0], n=2),
        lambda: PowerPotential(2.0, n=2),
        lambda: constant(1.0, n=2),
        lambda: cube_average(constant(1.0), Cube(0.0, 1.0), method="quad"),
    ):
        with pytest.raises(TypeError):
            make()
    with pytest.raises(TypeError):
        PolynomialPotential([[1.0, 2.0], [1.0, 2.0]])  # no per-axis product form


def test_cube_average_quadratic_formula():
    # mean of a2 z^2 + a1 z + a0 over the side-r cube at x is a2(x^2 + r^2/12) + a1 x + a0
    for a0, a1, a2, x, r in [(0, 0, 1, 1.0, 1.0), (2.0, -1.5, 3.0, 0.4, 0.7), (1, 1, 1, -2.0, 2.5)]:
        V = PolynomialPotential([a0, a1, a2])
        got = cube_average(V, Cube(x, r))
        assert got == pytest.approx(a2 * (x * x + r * r / 12.0) + a1 * x + a0, rel=1e-14)
    assert cube_average(PolynomialPotential([0, 0, 1]), Cube(1.0, 1.0)) == pytest.approx(13.0 / 12.0)


def test_cube_average_constant():
    for side in (0.1, 1.0, 7.0):
        assert cube_average(constant(4.2), Cube(-3.0, side)) == pytest.approx(4.2)


def test_cube_average_closed_vs_quadrature():
    V = PolynomialPotential([1.0, -2.0, 0.5, 0.25])
    for center, side in [(0.0, 1.0), (2.5, 0.3), (-1.0, 4.0)]:
        closed = cube_average(V, Cube(center, side))
        lo, hi = center - side / 2.0, center + side / 2.0
        adaptive = quad(lambda x: float(V(x)), lo, hi, epsabs=1e-300, epsrel=1e-10, limit=200)[0] / (hi - lo)
        assert closed == pytest.approx(adaptive, rel=1e-12)


def test_cube_average_singular_power_closed_form():
    V = PowerPotential(-0.5)
    Z = Cube(0.0, 2.0)
    # integrable singularity handled by closed form: mean of |x|^{-1/2} over [-1,1] is 2
    assert cube_average(V, Z) == pytest.approx(2.0, rel=1e-14)
    with pytest.raises(DomainError, match="alpha <= -1"):
        cube_average(PowerPotential(-1.5), Z)


def test_tabulated_roundtrip():
    xs = np.linspace(-1, 1, 41)
    V = TabulatedPotential(xs, xs**2)
    assert V(0.5) == pytest.approx(0.25, abs=2e-3)
    # integral of the interpolant equals trapezoid exactly
    got = cube_average(V, Cube(0.0, 2.0))
    assert got == pytest.approx(np.trapezoid(xs**2, xs) / 2.0, rel=1e-14)
    with pytest.raises(DomainError):
        V(1.5)
    with pytest.raises(ParameterError):
        TabulatedPotential(xs, xs)  # negative values


def test_compositions():
    V = SumPotential(ScaledPotential(2.0, PolynomialPotential([0, 0, 1])), constant(1.0))
    Z = Cube(0.5, 1.0)
    want = 2.0 * cube_average(PolynomialPotential([0, 0, 1]), Z) + 1.0
    assert cube_average(V, Z) == pytest.approx(want, rel=1e-14)
    assert V(2.0) == pytest.approx(9.0)


def test_m_beta_examples():
    assert m_beta(0.5, 0.3) == 0.5
    assert m_beta(4.0, 0.5) == 2.0
    assert m_beta(1.0, 0.7) == 1.0


def test_m_beta_properties():
    xs = np.linspace(0, 10, 2001)
    for beta in (0.1, 0.5, 0.99, 1.0):
        vals = [m_beta(float(x), beta) for x in xs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))  # nondecreasing
        assert all(v <= x + 1e-15 for v, x in zip(vals, xs))  # below identity
        # continuity at the knee
        assert abs(m_beta(1.0 - 1e-12, beta) - m_beta(1.0 + 1e-12, beta)) < 1e-10
    with pytest.raises(ParameterError):
        m_beta(-1.0, 0.5)
    with pytest.raises(ParameterError):
        m_beta(1.0, 0.0)


def test_rh_constant_unit_weight():
    for q in (1.5, 3.0, math.inf):
        rep = rh_constant(constant(1.0), q, Cube(0.0, 2.0), 6)
        assert rep.constant == pytest.approx(1.0, abs=1e-12)
        assert not rep.divergent


def test_rh_power_convergent():
    # |x|^{-1/2} is reverse-Holder for q < 2; the singular cube realizes the sup
    rep = rh_constant(PowerPotential(-0.5), 1.5, Cube(0.0, 2.0), 12)
    # oracle: mean(V^q)^{1/q} / mean(V) over [0, s] = (4 s^{-3/4})^{2/3} / (2 s^{-1/2})
    oracle = 4.0 ** (2.0 / 3.0) / 2.0
    assert rep.constant == pytest.approx(oracle, rel=1e-12)
    assert not rep.divergent
    assert math.isfinite(rep.constant)


def test_rh_power_divergent():
    rep = rh_constant(PowerPotential(-0.5), 3.0, Cube(0.0, 2.0), 20)
    assert rep.divergent
    assert rep.divergent_at_side == 2.0  # window itself contains the singularity
    tail = [r for _, r in rep.trace[-11:]]
    assert all(b > a for a, b in zip(tail, tail[1:]))
    assert tail[-1] > 10.0 * tail[0]


def test_rh_jensen_lower_bound():
    # power-mean inequality: ratio >= 1 on integrable inputs
    for V in (PolynomialPotential([1.0, 0.5, 2.0]), PowerPotential(0.5), constant(2.0)):
        for q in (1.5, 2.0, 4.0):
            rep = rh_constant(V, q, Cube(0.3, 1.7), 8)
            assert all(r >= 1.0 - 1e-10 for _, r in rep.trace)


def rh_infinity_trace(V, window, depth):
    """Per level, the max over its cubes of (max of V on ESS_SUP_GRID + 1 points) / (mean of V)."""
    trace = []
    for d in range(depth + 1):
        side = window.side * 2.0**-d
        edges = window.bounds()[0] + side * np.arange(2**d + 1)
        lo, hi = edges[:-1], edges[1:]
        sup = np.max(V(lo[:, None] + np.linspace(0.0, side, ESS_SUP_GRID + 1)), axis=1)
        trace.append((side, float(np.max(sup / (interval_integral(V, lo, hi) / (hi - lo))))))
    return tuple(trace)


def test_rh_infinity():
    rep = rh_constant(PolynomialPotential([0, 0, 1]), math.inf, Cube(0.0, 4.0), 8)
    # sup over [0,s] of z^2 is s^2, mean is s^2/3: ratio 3 at the origin cubes
    assert rep.constant == pytest.approx(3.0, rel=1e-9)
    assert rep.trace == rh_infinity_trace(PolynomialPotential([0, 0, 1]), Cube(0.0, 4.0), 8)
    assert rh_constant(PowerPotential(0.5), math.inf, Cube(0.3, 1.7), 8).trace == rh_infinity_trace(
        PowerPotential(0.5), Cube(0.3, 1.7), 8
    )
    with pytest.raises(ParameterError):
        rh_constant(PolynomialPotential([0, 0, 1]), math.inf, Cube(0.0, 4.0), 20)


@pytest.mark.parametrize(
    "V",
    [
        PowerPotential(-0.5),
        ScaledPotential(2.0, PowerPotential(-0.5)),
        SumPotential(PolynomialPotential([0.0, 0.0, 1.0]), PowerPotential(-0.5)),
    ],
)
def test_rh_infinity_flags_cubes_reaching_a_singularity_of_any_kind(V):
    # decided by V(0) raising DomainError, so a scaled or summed power is flagged as the bare one is
    rep = rh_constant(V, math.inf, Cube(0.0, 2.0), 4)
    assert rep.divergent and rep.divergent_at_side == 2.0
    assert all(r == math.inf for _, r in rep.trace)
    away = rh_constant(V, math.inf, Cube(3.0, 2.0), 4)
    assert not away.divergent and away.trace == rh_infinity_trace(V, Cube(3.0, 2.0), 4)


def test_rh_parameter_errors():
    with pytest.raises(ParameterError):
        rh_constant(constant(1.0), 1.0, Cube(0.0, 2.0), 4)
    with pytest.raises(ParameterError):
        rh_constant(constant(1.0), 2.0, Cube(0.0, 2.0), 0)


def test_ap_constants():
    rep = ap_constant(constant(5.0), 2.0, Cube(0.0, 2.0), 6)
    assert rep.constant == pytest.approx(1.0, abs=1e-12)
    assert rep.beta == pytest.approx(2.0 / 3.0)
    rep3 = ap_constant(constant(0.1), 3.0, Cube(0.0, 2.0), 4)
    assert rep3.constant == pytest.approx(1.0, abs=1e-12)
    assert rep3.beta == pytest.approx(2.0 / (2.0 + 2.0))


def test_ap_power_cross_check():
    # oracle for V = |x|^{1/2}, p = 2 on cubes touching 0:
    # mean(V) * mean(1/V) = (2/3) s^{1/2} * 2 s^{-1/2} = 4/3
    rep = ap_constant(PowerPotential(0.5), 2.0, Cube(0.0, 2.0), 10)
    assert rep.constant == pytest.approx(4.0 / 3.0, rel=1e-10)
    assert not rep.divergent


def test_ap_divergent_dual_weight():
    # V = x^2 has 1/V non-integrable at 0 for p = 2
    rep = ap_constant(PolynomialPotential([0, 0, 1]), 2.0, Cube(0.0, 2.0), 6)
    assert rep.divergent


def test_ap_polynomial_root_of_integrable_order():
    # x^2 is A_p for p > 3: on [0, s] or [-s, s], mean(x^2) mean(|x|^{-0.8})^{2.5} = (1/3) 5^{2.5}
    rep = ap_constant(PolynomialPotential([0, 0, 1]), 3.5, Cube(0.0, 2.0), 6)
    assert not rep.divergent
    assert rep.constant == pytest.approx(5.0**2.5 / 3.0, rel=1e-12)
    for side, ratio in rep.trace[:2]:
        assert ratio == pytest.approx(5.0**2.5 / 3.0, rel=1e-12)


@pytest.mark.parametrize("p", [3.05, 3.5, 5.0])
def test_powered_integral_at_polynomial_roots_against_weighted_quadrature(p):
    # V = x^2 (1 + x): a double root at 0 and a simple one at -1, both integrable for q = -1/(p-1)
    q = -1.0 / (p - 1.0)
    V = PolynomialPotential([0.0, 0.0, 1.0, 1.0])
    roots = {-1.0: q, 0.0: 2.0 * q}  # root -> exponent of |x - root| in V^q
    for lo, hi in [(-1.0, 1.0), (-1.0, 0.0), (0.0, 1.0), (-0.5, 0.25), (-1.0, -0.5), (-1.0, -0.9921875)]:
        vals, flags = powered_interval_integral(V, np.array([lo]), np.array([hi]), q)
        assert not flags[0]
        cuts = [lo] + [r for r in roots if lo < r < hi] + [hi]
        want = 0.0
        for a, b in zip(cuts, cuts[1:]):
            # quad's "alg" weight (x - a)^ea (b - x)^eb carries the root factors at the ends
            ea, eb = roots.get(a, 0.0), roots.get(b, 0.0)
            rest = [r for r in roots if r not in (a, b)]
            f = lambda x, rest=rest: math.prod(abs(x - r) ** roots[r] for r in rest)  # noqa: E731
            want += quad(f, a, b, weight="alg", wvar=(ea, eb), epsabs=1e-15, epsrel=1e-13)[0]
        assert vals[0] == pytest.approx(want, rel=1e-6)


def test_doubling_fit_exact_cases():
    window = Cube(0.0, 2.0)
    lebesgue = doubling_fit(constant(1.0), window, 8)
    assert lebesgue.epsilon == pytest.approx(1.0, abs=1e-12)
    assert lebesgue.C == pytest.approx(1.0, abs=1e-12)

    cubic = doubling_fit(PolynomialPotential([0, 0, 1]), window, 12)
    assert cubic.epsilon == pytest.approx(3.0, abs=1e-6)
    assert cubic.residual < 1e-10

    root = doubling_fit(PowerPotential(-0.5), window, 12)
    assert root.epsilon == pytest.approx(0.5, abs=1e-6)


def test_doubling_fit_needs_pairs():
    with pytest.raises(ParameterError):
        doubling_fit(constant(1.0), Cube(0.0, 2.0), 2)


def test_rh_matches_independent_quadrature(rng):
    # dual route: scan ratios against direct quad on a smooth potential
    V = PolynomialPotential([1.0, 0.0, 1.0])
    rep = rh_constant(V, 2.0, Cube(0.0, 2.0), 3)
    for side, got in rep.trace:
        best = 0.0
        k = int(round(2.0 / side))
        for j in range(k):
            lo = -1.0 + j * side
            hi = lo + side
            num = quad(lambda x: V(x) ** 2, lo, hi, epsabs=1e-14, epsrel=1e-12)[0] / side
            den = quad(lambda x: float(V(x)), lo, hi, epsabs=1e-14, epsrel=1e-12)[0] / side
            best = max(best, math.sqrt(num) / den)
        assert got == pytest.approx(best, rel=1e-9)


def test_rh_constant_tabulated_potential():
    xs = np.linspace(-1, 1, 201)
    V = TabulatedPotential(xs, 1.0 + xs**2)
    rep = rh_constant(V, 2.0, Cube(0.0, 2.0), 6)
    assert not rep.divergent
    assert 1.0 - 1e-10 <= rep.constant < 2.0


def test_power_interval_integrals_fuzzed_against_quadrature(rng):
    from heatkernel.potentials import interval_integral

    for _ in range(25):
        alpha = float(rng.uniform(-0.9, 3.0))
        V = PowerPotential(alpha)
        lo = float(rng.uniform(-2.0, 1.5))
        hi = lo + float(rng.uniform(0.05, 2.0))
        got = float(interval_integral(V, lo, hi))
        if lo < 0.0 < hi and alpha < 0:
            # split the improper integral at the singularity
            want = (
                quad(lambda x: abs(x) ** alpha, lo, 0.0, epsabs=1e-13, epsrel=1e-11)[0]
                + quad(lambda x: abs(x) ** alpha, 0.0, hi, epsabs=1e-13, epsrel=1e-11)[0]
            )
        else:
            want = quad(lambda x: abs(x) ** alpha, lo, hi, epsabs=1e-13, epsrel=1e-11)[0]
        assert got == pytest.approx(want, rel=1e-8)


def test_powered_integrals_fuzzed(rng):
    from heatkernel.potentials import powered_interval_integral

    for _ in range(15):
        alpha = float(rng.uniform(-0.4, 2.0))
        q = float(rng.uniform(1.1, 2.5))
        V = PowerPotential(alpha)
        lo = float(rng.uniform(-1.5, 1.0))
        hi = lo + float(rng.uniform(0.1, 1.5))
        vals, flags = powered_interval_integral(V, np.array([lo]), np.array([hi]), q)
        assert not flags[0]
        s = alpha * q
        if lo < 0.0 < hi and s < 0:
            want = (
                quad(lambda x: abs(x) ** s, lo, 0.0, epsabs=1e-13, epsrel=1e-11)[0]
                + quad(lambda x: abs(x) ** s, 0.0, hi, epsabs=1e-13, epsrel=1e-11)[0]
            )
        else:
            want = quad(lambda x: abs(x) ** s, lo, hi, epsabs=1e-13, epsrel=1e-11)[0]
        assert vals[0] == pytest.approx(want, rel=1e-8)


def test_rh_ratio_scale_invariance():
    V = PowerPotential(-0.5)
    base = rh_constant(V, 1.5, Cube(0.0, 2.0), 8)
    scaled = rh_constant(ScaledPotential(37.0, V), 1.5, Cube(0.0, 2.0), 8)
    for (s1, r1), (s2, r2) in zip(base.trace, scaled.trace):
        assert s1 == s2
        assert r1 == pytest.approx(r2, rel=1e-12)


def quadratic_with_minimum(a2, vertex, min_v):
    """a2 (x - vertex)^2 + min_v."""
    return PolynomialPotential([a2 * vertex * vertex + min_v, -2.0 * a2 * vertex, a2])


def assert_same_weight_scans(V, window, W, W_window, q, p):
    for scan, exponent in ((rh_constant, q), (ap_constant, p)):
        a, b = scan(V, exponent, window, 5), scan(W, exponent, W_window, 5)
        assert a.divergent == b.divergent
        for (_, x), (_, y) in zip(a.trace, b.trace):
            assert x == y or abs(x - y) <= 1e-12 * abs(x)


RH_Q = st.one_of(st.floats(1.1, 4.0), st.sampled_from([2.0, 3.0, 4.0, math.inf]))


@settings(max_examples=150, deadline=None)
@given(
    a2=st.floats(0.25, 2.0),
    vertex=st.floats(-1.0, 1.0),
    min_v=st.floats(0.25, 2.0),
    center=st.floats(-1.0, 1.0),
    side=st.floats(0.5, 2.0),
    r=st.floats(0.25, 4.0),
    s=st.floats(-1.0, 1.0),
    k=st.floats(0.1, 10.0),
    q=RH_Q,
    p=st.floats(1.1, 4.0),
)
@example(a2=1.0, vertex=-1.0, min_v=1.0, center=-1.0, side=1.0, r=1.0, s=1.0, k=1.0, q=3.0, p=2.0)
def test_weight_classes_invariant_under_scaling_dilation_and_translation(
    a2, vertex, min_v, center, side, r, s, k, q, p
):
    # W(x) = k V(r x + s) maps the dyadic cubes of ((c - s)/r, side/r) onto those of (c, side)
    V = quadratic_with_minimum(a2, vertex, min_v)
    W = quadratic_with_minimum(k * a2 * r * r, (vertex - s) / r, k * min_v)
    assert_same_weight_scans(V, Cube(center, side), W, Cube((center - s) / r, side / r), q, p)


@settings(max_examples=150, deadline=None)
@given(
    alpha=st.floats(-0.6, 0.9, exclude_min=True, exclude_max=True),
    side=st.floats(0.25, 4.0),
    offset=st.sampled_from([0.5, -0.5, 0.0]),
    r=st.floats(0.25, 4.0),
    k=st.floats(0.1, 10.0),
    q=RH_Q,
    p=st.floats(1.1, 4.0),
)
def test_power_weight_classes_invariant_under_dilation(alpha, side, offset, r, k, q, p):
    # k |r x|^alpha = k r^alpha |x|^alpha.  The windows [0, side], [-side, 0] and
    # [-side/2, side/2] put the singularity on a cube edge at every level for both
    # scans, divergent exponents included.
    V = PowerPotential(alpha)
    W = ScaledPotential(k * r**alpha, V)
    center = offset * side
    assert_same_weight_scans(V, Cube(center, side), W, Cube(center / r, side / r), q, p)


def test_scans_of_a_non_dyadic_window_meet_0_on_a_shared_cube_edge():
    # Each cube's right edge is the next cube's left edge, so an edge at 0 is 0 exactly
    # whatever the side: these scans must read as their dyadic dilations do.
    V = PowerPotential(0.875)
    assert_same_weight_scans(V, Cube(0.0, 0.8864315433389292), V, Cube(0.0, 2.0), math.inf, 1.1336156699668196)
    V = PowerPotential(-0.37421275436823376)
    rep = rh_constant(V, math.inf, Cube(-1.029148227873756, 2.058296455747512), 5)
    assert all(r == math.inf for _, r in rep.trace)
    assert_same_weight_scans(V, Cube(-1.029148227873756, 2.058296455747512), V, Cube(-1.0, 2.0), math.inf, 2.0)


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


COEFF = st.floats(-8.0, 8.0, allow_nan=False)
SIDE = st.floats(1e-4, 4.0)


def test_polynomial_cube_average_matches_mpmath_and_cube_averages_bitwise():
    # the depth-8 cubes far from 0 where an antiderivative about 0 read 2.9e-12 off: Gauss-Legendre
    # about each cube's centre sums nonnegative terms only
    mp = pytest.importorskip("mpmath")
    V = quadratic_with_minimum(2.9241, 2.6041, 0.4646)
    window = Cube(2.857128743523547, 1.9554598018883609)
    side = window.side / 2**8
    centers = window.bounds()[0] + side * (np.arange(2**8) + 0.5)
    scalar = [cube_average(V, Cube(c, side)) for c in centers]
    assert _bits(cube_averages(V, centers, side)) == _bits(scalar)
    with mp.workdps(50):
        P = npoly.polyint(np.array([mp.mpf(a) for a in V.coeffs], dtype=object))
        for c, got in zip(centers, scalar):
            lo, hi = (mp.mpf(e) for e in Cube(c, side).bounds())
            want = (npoly.polyval(hi, P) - npoly.polyval(lo, P)) / mp.mpf(side)
            assert abs(got - want) <= 1e-14 * want, (c, got, want)


# signed zeros, subnormals and magnitudes up to 1e300, whose products overflow
POLYVAL_COEFF = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300]),
    st.floats(-1e300, 1e300),
)
POLYVAL_X = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e150, 1e150))


@settings(max_examples=400, deadline=None)
@given(
    st.lists(POLYVAL_COEFF, min_size=1, max_size=7),
    st.lists(st.tuples(POLYVAL_X, POLYVAL_X), min_size=1, max_size=6),
)
def test_polynomial_gauss_legendre_evaluates_v_bitwise(coeffs, intervals):
    # interval_integral takes V at each node with V's own IEEE operations (npoly.polyval of the
    # quotient, times the real-root factors), for a float and for an array of intervals alike
    with np.errstate(all="ignore"):
        V = PolynomialPotential(coeffs)
        nodes, weights = np.polynomial.legendre.leggauss((len(coeffs) - 1) // 2 + 1)
        lo, hi = (np.array(col) for col in zip(*intervals))
        total, mid, half = 0.0, 0.5 * (lo + hi), 0.5 * (hi - lo)
        for t, w in zip(nodes.tolist(), weights.tolist()):
            total = total + w * V(mid + half * t)
        want = half * total
        assert _bits(interval_integral(V, lo, hi)) == _bits(want)
        assert _bits([interval_integral(V, a, b) for a, b in intervals]) == _bits(want)
        if not V.breaks[0].size:  # with no real root, V is polyval of its coefficients
            assert _bits(V(mid)) == _bits(npoly.polyval(mid, coeffs))


def test_power_means_divide_by_the_length_integrated():
    # The scan's cube edges are rounded, so a cube's length is hi - lo, not the
    # nominal side; the per-level maxima must match an exact evaluation on the
    # same float edges.  Dividing by the side puts the depth-10 level 966 ulp off.
    mp = pytest.importorskip("mpmath")
    window, alpha, sigma = Cube(-0.45, 3.3), mp.mpf(-0.5), mp.mpf(-0.5)  # A_3: M_1 / M_sigma, sigma = -1/(3-1)

    def integral(a, b, s):  # of |x|^s over [a, b]
        F = lambda x: mp.sign(x) * abs(x) ** (s + 1) / (s + 1)  # noqa: E731
        return F(mp.mpf(b)) - F(mp.mpf(a))

    report = ap_constant(PowerPotential(-0.5), 3.0, window, 10)
    for d, (side, got) in enumerate(report.trace):
        edges = window.bounds()[0] + side * np.arange(2**d + 1)
        with mp.workdps(40):
            want = max(
                integral(a, b, alpha) / (b - a) * (integral(a, b, alpha * sigma) / (b - a)) ** -(1 / sigma)
                for a, b in zip(map(mp.mpf, edges[:-1]), map(mp.mpf, edges[1:]))
            )
        assert abs(got - want) <= 2e-15 * want, (side, got, want)


def test_integer_power_of_a_polynomial_on_small_cubes_matches_mpmath():
    # V^3 expanded in monomials about 0 cancelled on these cubes far from 0: the
    # depth-8 level read 3.6e-10 off; Gauss-Legendre is exact for this degree.
    mp = pytest.importorskip("mpmath")
    coeffs = quadratic_with_minimum(2.9241, 2.6041, 0.4646).coeffs
    window = Cube(2.857128743523547, 1.9554598018883609)
    report = rh_constant(PolynomialPotential(coeffs), 3.0, window, 8)
    with mp.workdps(50):
        c = np.array([mp.mpf(a) for a in coeffs], dtype=object)
        P1, P3 = npoly.polyint(c), npoly.polyint(npoly.polypow(c, 3))  # object arrays keep 50 digits

        def mean(P, a, b):
            return (npoly.polyval(b, P) - npoly.polyval(a, P)) / (b - a)

        for d, (side, got) in enumerate(report.trace):
            edges = list(map(mp.mpf, window.bounds()[0] + side * np.arange(2**d + 1)))
            want = max(mean(P3, a, b) ** (mp.mpf(1) / 3) / mean(P1, a, b) for a, b in zip(edges, edges[1:]))
            assert abs(got - want) <= 1e-12 * want, (side, got, want)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("q", [2000.0, 2000.5])
def test_an_overflowing_power_mean_is_rescaled(q):
    # (1 + x^2)^q overflows on every cube of the window, which used to read inf and
    # divergent; M_q = s (mean (V/s)^q)^(1/q) with s the cube's max of V stays finite
    V, window = PolynomialPotential([1.0, 0.0, 1.0]), Cube(0.0, 2.0)
    report = rh_constant(V, q, window, 8)
    low, high = (rh_constant(V, e, window, 8) for e in (2.0, math.inf))
    assert math.isfinite(report.constant) and not report.divergent
    assert low.constant <= report.constant <= high.constant
    for (_, lo), (_, got), (_, hi) in zip(low.trace, report.trace, high.trace):  # power means grow with q
        assert lo <= got <= hi


def per_level_scan(V, window, depth, a, b):
    """(trace, divergent_at_side) of M_a / M_b with one `_power_means` call per level and exponent."""
    trace, divergent_at = [], None
    for d in range(depth + 1):
        side = window.side * 2.0**-d
        edges = window.bounds()[0] + side * np.arange(2**d + 1)
        sides, excision = np.full(2**d, side), np.full(2**d, window.side * 8.0 ** -(d + 2))
        (num, num_flags), (den, den_flags) = (
            _power_means(V, edges[:-1], edges[1:], sides, e, excision) for e in (a, b)
        )
        top = float(np.max(_safe_ratio(num, den)))
        trace.append((side, top))
        if divergent_at is None and (np.any(num_flags | den_flags) or top > DIVERGENCE_THRESHOLD):
            divergent_at = side
    return tuple(trace), divergent_at


SINGULAR = PowerPotential(-0.5)
DOUBLE_ROOTS = PolynomialPotential(npoly.polymul([-0.15, 0.2, 1.0], [-0.15, 0.2, 1.0]))  # (x - 0.3)^2 (x + 0.5)^2
TABLE = TabulatedPotential(np.linspace(-4.0, 4.0, 41), 0.2 + np.linspace(-4.0, 4.0, 41) ** 2)


@pytest.mark.parametrize(
    "V, window, kind, exponent",
    [
        (DOUBLE_ROOTS, Cube(0.1, 2.0), "ap", 4.0),  # q = -1/3 < 0, cubes split at the real roots
        (PowerPotential(0.5), Cube(0.0, 2.0), "rh", 2.0),
        (PowerPotential(0.5), Cube(0.3, 1.7), "ap", 2.0),
        (SINGULAR, Cube(0.0, 2.0), "rh", 3.0),  # divergent: excised at window_side 8^-(d+2)
        (SINGULAR, Cube(-0.45, 3.3), "ap", 3.0),
        (ScaledPotential(2.5, SINGULAR), Cube(0.0, 2.0), "rh", 3.0),
        (SumPotential(PolynomialPotential([0.3, 0.0, 1.0]), PowerPotential(0.7)), Cube(0.1, 2.0), "rh", 2.0),
        (TABLE, Cube(0.2, 3.0), "rh", 2.0),
        (TABLE, Cube(0.2, 3.0), "ap", 2.0),
        (PolynomialPotential([0.0, 0.0, 1.0]), Cube(0.0, 4.0), "rh", math.inf),
        (SINGULAR, Cube(0.0, 2.0), "rh", math.inf),
        (TABLE, Cube(0.2, 3.0), "rh", math.inf),
    ],
)
@pytest.mark.parametrize("depth", [1, 2, 7])
def test_level_batched_scan_equals_a_per_level_scan_bit_for_bit(V, window, kind, exponent, depth):
    if kind == "rh":
        rep, (a, b) = rh_constant(V, exponent, window, depth), (exponent, 1.0)
    else:
        rep, (a, b) = ap_constant(V, exponent, window, depth), (1.0, -1.0 / (exponent - 1.0))
    trace, divergent_at = per_level_scan(V, window, depth, a, b)
    assert _bits(rep.trace) == _bits(trace)
    assert rep.divergent_at_side == divergent_at
    assert rep.divergent == (divergent_at is not None)


@pytest.mark.parametrize("depth", [1, 2, 9])
def test_scan_calls_power_means_twice_per_exponent(monkeypatch, depth):
    sizes = []

    def counted(V, lo, *args):
        sizes.append(len(lo))
        return _power_means(V, lo, *args)

    monkeypatch.setattr(potentials, "_power_means", counted)
    for scan in (lambda: rh_constant(SINGULAR, 1.5, Cube(0.0, 2.0), depth),
                 lambda: ap_constant(TABLE, 2.0, Cube(0.2, 3.0), depth)):
        sizes.clear()
        scan()
        # levels 0..depth-1 together, then the deepest level alone, for each exponent
        assert sizes == [2**depth - 1, 2**depth - 1, 2**depth, 2**depth]


@given(st.floats(allow_nan=False, allow_infinity=False), SIDE)
def test_cube_center_from_a_numpy_float(x, side):
    Z = Cube(np.float64(x), side)
    assert Z == Cube(x, side)
    assert type(Z.center[0]) is float
    assert Cube(np.array(x), side) == Z


def _tabulated(values):
    return TabulatedPotential(np.linspace(-4.0, 4.0, len(values)), values)


# every kind with a closed form, scaled and summed; alpha <= -1 and tables
# that do not cover a cube make some draws raise
POTENTIALS = st.recursive(
    st.one_of(
        st.lists(COEFF, min_size=1, max_size=5).map(PolynomialPotential),
        st.floats(-2.0, 3.0).map(PowerPotential),
        st.lists(st.floats(0.0, 10.0), min_size=2, max_size=12).map(_tabulated),
    ),
    lambda inner: st.one_of(
        st.tuples(st.floats(0.1, 10.0), inner).map(lambda fv: ScaledPotential(*fv)),
        st.lists(inner, min_size=1, max_size=3).map(lambda parts: SumPotential(*parts)),
    ),
    max_leaves=4,
)
CENTER = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-5.0, 5.0))


def _one_tuple(c):
    return (c,)


# the forms `Cube` takes a center in (float is its fast path) and sides that are ints
CENTER_FORM = st.sampled_from([float, np.float64, _one_tuple])


@settings(max_examples=300, deadline=None)
@given(POTENTIALS, st.lists(st.tuples(CENTER, SIDE | st.integers(1, 4), CENTER_FORM), min_size=1, max_size=6))
def test_cube_averages_is_cube_average_bitwise(V, cubes):
    expected, errors = [], set()
    for center, side, form in cubes:
        try:
            expected.append(cube_average(V, Cube(form(center), side)))
        except (DomainError, ParameterError) as exc:
            errors.add(type(exc))
    centers, sides = (np.array(col) for col in list(zip(*cubes))[:2])
    if errors:
        with pytest.raises((DomainError, ParameterError)) as info:
            cube_averages(V, centers, sides)
        assert type(info.value) in errors
    else:
        assert _bits(cube_averages(V, centers, sides)) == _bits(expected)


class _Bump(Potential):
    """A kind with no closed-form interval integral."""

    def __call__(self, x):
        return np.exp(-np.square(x))


class _Plane(Potential):
    """A two-dimensional kind, which every average here refuses."""

    n = 2

    def __call__(self, x):
        return np.sum(np.square(x), axis=-1)


def test_cube_averages_checks_and_refusals():
    centers = np.array([-1.5, 0.0, 0.25, 2.0])
    # one side broadcasts against every center, and the shape follows the broadcast
    V = PowerPotential(-0.5)
    got = cube_averages(V, centers, 0.5)
    assert got.shape == (4,)
    assert _bits(got) == _bits([cube_average(V, Cube(c, 0.5)) for c in centers])
    assert cube_averages(V, centers.reshape(2, 2), 0.5).shape == (2, 2)
    # alpha <= -1 is refused as soon as one cube contains 0, as cube_average refuses it
    for alpha in (-1.0, -1.5):
        assert np.all(np.isfinite(cube_averages(PowerPotential(alpha), [1.0, 2.0], 0.5)))
        with pytest.raises(DomainError):
            cube_average(PowerPotential(alpha), Cube(0.2, 0.5))
        with pytest.raises(DomainError):
            cube_averages(PowerPotential(alpha), [1.0, 0.2], 0.5)
    # an edge at 0, or within 1e-15 of it (`_refuse_divergent`), counts as containing 0
    for center in (0.25, 0.25 + 1e-16, -0.25 - 1e-16):
        with pytest.raises(DomainError):
            cube_average(PowerPotential(-1.0), Cube(center, 0.5))
        with pytest.raises(DomainError):
            cube_averages(PowerPotential(-1.0), [2.0, center], 0.5)
    # a cube that leaves the table
    T = _tabulated([1.0, 2.0, 0.5])
    with pytest.raises(DomainError):
        cube_average(T, Cube(3.9, 0.5))
    with pytest.raises(DomainError):
        cube_averages(T, [0.0, 3.9], 0.5)
    with pytest.raises(ParameterError, match="side must be > 0"):
        cube_averages(T, [0.0, 1.0], [0.5, 0.0])
    with pytest.raises(ParameterError, match="side must be > 0"):
        cube_averages(T, 0.0, math.nan)
    with pytest.raises(ParameterError, match="one-dimensional"):
        cube_averages(_Plane(), [0.0], 1.0)
    with pytest.raises(ParameterError, match="one-dimensional"):
        cube_average(_Plane(), Cube((0.0, 0.0), 1.0))
    with pytest.raises(ParameterError, match="one-dimensional"):
        cube_average(_Plane(), Cube(0.0, 1.0))
    with pytest.raises(ParameterError, match="one-dimensional"):
        cube_average(T, Cube((0.0, 0.0), 1.0))
    # a kind with no closed form is refused by both
    with pytest.raises(ParameterError, match="no interval integral for _Bump"):
        cube_average(_Bump(), Cube(0.0, 0.5))
    with pytest.raises(ParameterError, match="no interval integral for _Bump"):
        cube_averages(_Bump(), centers, 0.5)


@pytest.mark.parametrize(
    "V",
    [
        ScaledPotential(2.0, PowerPotential(-1.5)),
        SumPotential(PolynomialPotential([0.0, 0.0, 1.0]), PowerPotential(-1.0)),
        SumPotential(constant(1.0), ScaledPotential(0.5, PowerPotential(-2.0))),
    ],
)
def test_wrapped_singular_powers_are_refused_on_cubes_reaching_0(V):
    # refused by what V integrates to, not by its kind: the wrappers used to return inf
    for center in (0.0, 0.25, 0.25 + 1e-16, -0.25 - 1e-16):
        with pytest.raises(DomainError, match="alpha <= -1"):
            cube_average(V, Cube(center, 0.5))
        with pytest.raises(DomainError, match="alpha <= -1"):
            cube_averages(V, [2.0, center], 0.5)
    # away from 0 the averages stay finite and agree bit for bit
    got = cube_averages(V, [1.0, -2.0], 0.5)
    assert np.all(np.isfinite(got))
    assert _bits(got) == _bits([cube_average(V, Cube(c, 0.5)) for c in (1.0, -2.0)])


# ---------------------------------------------------------------------------
# the one rule for V^q: break points, substitution, geometric grading


def _mp_table(xs, vs):
    """Exact mean of V^q on [lo, hi] for the piecewise-linear interpolant, in mpmath."""
    mp = pytest.importorskip("mpmath")
    X, Y = [mp.mpf(a) for a in xs], [mp.mpf(a) for a in vs]

    def mean(lo, hi, q):
        lo, hi, total = mp.mpf(lo), mp.mpf(hi), mp.mpf(0)
        for i in range(len(X) - 1):
            a, b = max(lo, X[i]), min(hi, X[i + 1])
            if a < b:
                va, vb = (Y[i] + (Y[i + 1] - Y[i]) * (e - X[i]) / (X[i + 1] - X[i]) for e in (a, b))
                total += va**q * (b - a) if va == vb else (b - a) * (vb ** (q + 1) - va ** (q + 1)) / ((vb - va) * (q + 1))
        return (total / (hi - lo)) ** (1 / mp.mpf(q))

    return mean


def _mp_quad(f, breaks):
    """Mean of f^q on [lo, hi] by mpmath quadrature, split geometrically toward each break."""
    mp = pytest.importorskip("mpmath")

    def mean(lo, hi, q):
        pts = set(np.linspace(lo, hi, 17).tolist())
        for b in breaks:
            if lo <= b <= hi:
                pts |= {b} | {b + s * d * 0.5**k for s, d in ((-1, b - lo), (1, hi - b)) for k in range(1, 30)}
        with mp.workdps(30):
            total = mp.quad(lambda x: f(x) ** q, sorted(p for p in pts if lo <= p <= hi))
            return (total / (mp.mpf(hi) - mp.mpf(lo))) ** (1 / mp.mpf(q))

    return mean


def _rule_cases():
    mp = pytest.importorskip("mpmath")
    cubic = [0.15625, -1.1875, 2.0, 1.0]  # (x - 1/4)^2 (x + 5/2), exact in binary
    tab_x = np.linspace(-2.0, 2.0, 41)
    tab_v = 0.5 + np.abs(np.sin(3.0 * tab_x))
    tab_v[22] = 0.0  # an isolated zero node at 0.2, inside the cube with 9 kinks
    root = lambda x: (x - mp.mpf(0.25)) ** 2 * (x + mp.mpf(2.5))  # noqa: E731
    return [
        ("no real root", PolynomialPotential([4.5, -4.0, 1.0]), -0.5, 1.0, _mp_quad(lambda x: 4.5 - 4 * x + x * x, [])),
        ("root inside", PolynomialPotential(cubic), -0.7, 1.1, _mp_quad(root, [0.25])),
        ("power", PowerPotential(0.5), -0.3, 1.2, _mp_quad(lambda x: abs(x) ** mp.mpf(0.5), [0.0])),
        ("scaled", ScaledPotential(2.5, PolynomialPotential(cubic)), -0.4, 1.0, _mp_quad(lambda x: 2.5 * root(x), [0.25])),
        ("table", TabulatedPotential(tab_x, tab_v), -0.33, 0.71, _mp_table(tab_x, tab_v)),
        (
            "sum",
            SumPotential(PolynomialPotential([0.0, 0.0, 1.0]), PowerPotential(0.7)),
            -0.6,
            1.0,
            _mp_quad(lambda x: x * x + abs(x) ** mp.mpf(0.7), [0.0]),
        ),
    ]


@pytest.mark.parametrize("q", [-0.9, -0.5, 1.5, 3.0, 300.0, 2000.0])
def test_power_means_of_every_kind_match_mpmath(q):
    for name, V, lo, hi, mean in _rule_cases():
        (got,), (flag,) = _power_means(V, np.array([lo]), np.array([hi]), np.array([hi - lo]), q, np.array([0.0]))
        # the double root at 1/4 makes V^q non-integrable for 2 q <= -1, and only there
        assert flag == (name in ("root inside", "scaled") and q < 0), name
        if not flag:
            want = mean(lo, hi, q)
            assert abs(got - want) <= 1e-12 * want, (name, got, want)


@pytest.mark.filterwarnings("error")
def test_weight_readings_the_plain_rule_got_wrong():
    mp = pytest.importorskip("mpmath")
    # a node of 33-point Gauss-Legendre sat on the zero of x^2 + |x|^0.7 and read inf
    ap = ap_constant(SumPotential(PolynomialPotential([0.0, 0.0, 1.0]), PowerPotential(0.7)), 2.0, Cube(0.0, 2.0), 12)
    assert math.isfinite(ap.constant) and not ap.divergent
    # (1 + x^2)^300 peaks at the cube's ends, which 33 plain nodes underweighted (1.4717241)
    rh = rh_constant(PolynomialPotential([1.0, 0.0, 1.0]), 300.0, Cube(0.0, 2.0), 1)
    with mp.workdps(30):
        want = (mp.quad(lambda x: (1 + x * x) ** 300, [-1, 0, 1]) / 2) ** (mp.mpf(1) / 300) / (mp.mpf(4) / 3)
    assert abs(rh.trace[0][1] - want) <= 1e-12 * want
    # the square of a table over a cube holding 100 of its nodes: a quadratic on each segment
    xs = np.linspace(-4.0, 4.0, 801)
    V = TabulatedPotential(xs, 1.0 + np.sin(3.0 * xs) ** 2)
    (got,), _ = _power_means(V, np.array([-0.503]), np.array([0.497]), np.array([1.0]), 2.0, np.array([0.0]))
    want = _mp_table(xs, V.values)(-0.503, 0.497, 2)
    assert abs(got - want) <= 1e-14 * want


def _scaled_kind(V, c):
    """c V built in V's own kind where it has one, so that M_q(c V) takes its own path."""
    if isinstance(V, PolynomialPotential):
        return PolynomialPotential([c * a for a in V.coeffs])
    if isinstance(V, TabulatedPotential):
        return TabulatedPotential(V.xs, [c * v for v in V.values])
    if isinstance(V, SumPotential):
        return SumPotential(*(_scaled_kind(p, c) for p in V.parts))
    return ScaledPotential(c, V)


# subnormal values carry no relative precision, so the 1e-13 homogeneity cannot hold for them
NONNEGATIVE_POTENTIALS = st.recursive(
    st.one_of(
        st.tuples(st.floats(0.0, 2.0), st.floats(-1.0, 1.0), st.floats(0.1, 3.0)).map(
            lambda m: quadratic_with_minimum(m[2], m[1], m[0])
        ),
        st.floats(-0.45, 3.0).map(PowerPotential),
        st.lists(st.floats(0.0, 10.0, allow_subnormal=False), min_size=2, max_size=12).map(_tabulated),
    ),
    lambda inner: st.one_of(
        st.tuples(st.floats(0.1, 10.0), inner).map(lambda fv: ScaledPotential(*fv)),
        st.lists(inner, min_size=1, max_size=3).map(lambda parts: SumPotential(*parts)),
    ),
    max_leaves=3,
)
EXPONENTS = (-1.0, -0.5, 1.0, 1.5, 2.0, 3.0, 300.0)


@settings(max_examples=60, deadline=None)
# c a power of 2, so that c V in V's own kind is exactly c times V: a polynomial with a near-double
# root is ill-conditioned, and rounding its coefficients times c would move its power means
@given(NONNEGATIVE_POTENTIALS, st.floats(-3.0, 3.0), st.floats(1e-3, 2.0), st.integers(-3, 3).map(lambda k: 2.0**k))
def test_power_means_grow_with_q_and_scale_with_v(V, center, side, c):
    lo, hi = np.array([center - side / 2.0]), np.array([center + side / 2.0])
    means = []
    for q in EXPONENTS:
        (m,), (flag,) = _power_means(V, lo, hi, np.array([side]), q, np.array([0.0]))
        (mc,), _ = _power_means(_scaled_kind(V, c), lo, hi, np.array([side]), q, np.array([0.0]))
        if not flag and 0.0 < m < math.inf:
            assert abs(mc - c * m) <= 1e-13 * c * m, (q, m, mc)
        means.append(m)
    # M_a <= M_b for a < b, a divergent or infinite mean included
    assert all(a <= b * (1.0 + 1e-12) for a, b in zip(means, means[1:])), means
