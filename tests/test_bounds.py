import dataclasses
import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatkernel import (
    BoundEnvelope,
    ParameterError,
    PolynomialPotential,
    PowerPotential,
    QuadraticCoeffs,
    chain_plan,
    chained_lower_bound,
    constant,
    fefferman_phong_ratio,
    fit_constants,
    gaussian_log_kernel,
    grid_points,
    grid_samples,
    m_beta,
    moser_ratio,
    quadratic_kernel,
    quadratic_log_kernel,
    energy_test_family,
    log_envelope,
)
from heatkernel.spectral import build_spectral, dirichlet_interval_log_kernel
from heatkernel.bounds import C0_LOWER, FAMILIES

V_SQ = PolynomialPotential([0.0, 0.0, 1.0])
V0 = constant(0.0)
Q_SQ = QuadraticCoeffs(0, 0, 1)


def sampled(K, pts):
    """(x, y, t, log p) samples of a scalar kernel, as fit_constants takes them."""
    return [(x, y, t, K(x, y, t)) for x, y, t in pts]


def _upper_env(**kw):
    base = dict(family="avg_upper", c0=1.0, c1=1.0, c2=0.25, beta=0.5)
    base.update(kw)
    return BoundEnvelope(**base)


def test_avg_upper_zero_potential_is_gaussian_shape():
    e = _upper_env()
    for x, y, t in [(0.0, 1.0, 0.3), (-2.0, 0.5, 1.0)]:
        got = log_envelope(V0, e, [x], [y], [t])[0]
        want = log_envelope(None, _upper_env(family="gaussian_upper"), [x], [y], [t])[0]
        assert got == pytest.approx(want, rel=1e-14)


def test_avg_upper_quadratic_average_term():
    # V = z^2 at x = 0: the averaged decay argument is t * (t/12)
    e = _upper_env(beta=0.5)
    t = 0.9
    got = log_envelope(V_SQ, e, [0.0], [0.0], [t])[0]
    gauss = log_envelope(None, _upper_env(family="gaussian_upper", beta=0.5), [0.0], [0.0], [t])[0]
    want = gauss - e.c1 * math.sqrt(m_beta(t * t / 12.0, e.beta))
    assert got == pytest.approx(want, rel=1e-14)


def test_avg_upper_monotone_in_c1():
    lo = log_envelope(V_SQ, _upper_env(c1=0.5), [1.0], [0.0], [1.0])[0]
    hi = log_envelope(V_SQ, _upper_env(c1=2.0), [1.0], [0.0], [1.0])[0]
    assert hi < lo


def test_beta_ordering_weakens_bound():
    # smaller beta gives a larger envelope once the decay argument exceeds 1
    t, x = 2.0, 2.0
    small = log_envelope(V_SQ, _upper_env(beta=0.3), [x], [0.0], [t])[0]
    large = log_envelope(V_SQ, _upper_env(beta=0.9), [x], [0.0], [t])[0]
    assert t * (x * x + t / 12.0) > 1.0
    assert small > large


def test_symmetrized_properties():
    e = _upper_env(family="symmetrized_upper")
    a = log_envelope(V_SQ, e, [0.4], [-1.0], [0.7])[0]
    b = log_envelope(V_SQ, e, [-1.0], [0.4], [0.7])[0]
    assert a == pytest.approx(b, rel=1e-14)
    # x = y doubles the single-point decay of avg_upper (with the c-roles swapped)
    x = 1.3
    t = 0.6
    got = log_envelope(V_SQ, e, [x], [x], [t])[0]
    single = log_envelope(V_SQ, _upper_env(c1=2.0 * e.c2, c2=e.c1), [x], [x], [t])[0]
    assert got == pytest.approx(single, rel=1e-13)
    assert log_envelope(V0, e, [0.3], [0.9], [0.5])[0] == pytest.approx(
        log_envelope(None, _upper_env(family="gaussian_upper", c2=e.c1), [0.3], [0.9], [0.5])[0], rel=1e-14
    )


def test_quadratic_sharp_branches_at_one():
    e = BoundEnvelope(family="quadratic_sharp", c0=0.2, c1=0.3, c2=0.8, c3=0.4)
    # t = 1 takes the small-t branch, -c0 (x-y)^2/t - c1 t (x^2+y^2); just past it the large-t one
    small = log_envelope(None, e, [1.0], [-1.0], [1.0])[0]
    large = log_envelope(None, e, [1.0], [-1.0], [1.001])[0]
    assert math.isfinite(small) and math.isfinite(large)
    assert small == pytest.approx(-0.2 * 4.0 - 0.3 * 2.0)
    assert large == pytest.approx(-0.8 * 1.001 - 0.4 * 2.0)
    assert large != small
    # origin small-t shape is the bare power of t
    assert log_envelope(None, e, [0.0], [0.0], [0.25])[0] == pytest.approx(-0.5 * math.log(0.25))


def test_avg_lower_branches():
    e = BoundEnvelope(
        family="avg_lower_near", c0=0.1, c1=1.0, c2=2.0, c3=0.5, kappa=0.125
    )
    # near branch at x = 0 for V = z^2 decays like exp(-c1 t^2 / 12)
    t = 0.64
    got = log_envelope(V_SQ, e, [0.0], [0.0], [t])[0]
    want = math.log(e.c0) - 0.5 * math.log(t) - e.c1 * t * (t / 12.0)
    assert got == pytest.approx(want, rel=1e-14)
    # the boundary |x-y| = kappa sqrt(t) selects the far branch
    d = e.kappa * math.sqrt(t)
    far = log_envelope(V_SQ, e, [0.0], [d], [t])[0]
    explicit_far = (
        math.log(e.c0)
        - 0.5 * math.log(t)
        - e.c3 * d * d / t
        - e.c1 * t * e.c2 ** (d * d / t) * (t / d) ** 2 / 12.0
    )
    # far-branch average for V=z^2 at x=0 with side t/d is (t/d)^2/12
    assert far == pytest.approx(explicit_far, rel=1e-12)
    # zero potential: both branches carry the Gaussian-type shape only
    near0 = log_envelope(V0, e, [0.0], [0.01], [1.0])[0]
    assert near0 == pytest.approx(math.log(e.c0) - 0.0, rel=1e-12)
    far0 = log_envelope(V0, e, [0.0], [1.0], [1.0])[0]
    assert far0 == pytest.approx(math.log(e.c0) - e.c3, rel=1e-12)


def _interval(eps, C):
    return BoundEnvelope(family="dirichlet_interval", epsilon=eps, C=C)


def test_interval_lower_bound_clamp():
    eps = 0.8
    lv = log_envelope(None, _interval(eps, 0.5), [0.2], [0.4], [1e-3])[0]
    assert lv > -math.inf  # not clamped
    # tiny t: the boundary factor is essentially 1
    want = math.log(0.5) - 0.5 * math.log(1e-3) - 0.04 / (4e-3)
    assert lv == pytest.approx(want, rel=1e-6)
    t_clamp = eps**2 / math.log(2.0)  # the factor 1 - 2 e^{-eps^2/t} reaches 0
    lv2 = log_envelope(None, _interval(eps, 0.5), [0.2], [0.4], [t_clamp * 1.0001])[0]
    assert lv2 == -math.inf and math.exp(lv2) == 0.0  # clamped
    with pytest.raises(ParameterError):
        log_envelope(None, _interval(0.0, 0.5), [0.1], [0.2], [0.5])
    with pytest.raises(ParameterError):
        log_envelope(None, _interval(1.0, 1.5), [0.1], [0.2], [0.5])


def test_interval_lower_holds_for_sine_series():
    # fitted C in (0,1) makes the bound valid on the sampled window
    eps = math.pi / 4.0
    inner, ts = np.linspace(math.pi / 4, 3 * math.pi / 4, 11)[1:-1], np.linspace(0.01, 1.0, 6)
    samples = grid_samples(inner, inner, ts, dirichlet_interval_log_kernel(0.0, math.pi, inner, inner, ts))
    fit = fit_constants(None, samples, "dirichlet_interval", epsilon=eps)
    assert fit.feasible
    assert 0.0 < fit.envelope.C < 1.0
    assert fit.min_slack >= -1e-12


def test_chain_plan_sizes():
    assert chain_plan(0.0, 1.0, 1.0).M == 257  # ratio exactly 1
    assert chain_plan(0.0, 1.0, 2.0).M == 129  # ratio 0.5
    assert chain_plan(0.0, 0.1, 1.0).M == 3  # ratio 0.01
    plan = chain_plan(0.0, 0.1, 1.0)
    assert plan.spacing == pytest.approx(0.1 / 3.0)


def test_chain_plan_waypoints_and_sigma():
    plan = chain_plan(-1.0, 2.0, 0.25)
    assert plan.waypoints.shape == (plan.M + 1,)
    assert plan.waypoints[0] == -1.0 and plan.waypoints[-1] == 2.0
    steps = np.diff(plan.waypoints)
    assert np.allclose(steps, steps[0])
    # spacing invariant from the M construction
    assert plan.spacing < math.sqrt(plan.t / plan.M) / 16.0
    with pytest.raises(ParameterError):
        chain_plan(0.0, 1.0, 1.0, sigma=0.25)  # violates the adjacent-cube condition
    with pytest.raises(ParameterError):
        chain_plan(0.0, 1.0, 0.0)


def test_reports_compare_by_value_or_by_identity():
    # a chain plan holds numbers only: equal plans compare and hash equal
    plan = chain_plan(-1.0, 2.0, 0.25)
    assert plan == chain_plan(-1.0, 2.0, 0.25) and hash(plan) == hash(chain_plan(-1.0, 2.0, 0.25))
    assert plan != chain_plan(-1.0, 2.0, 0.5) and len({plan, chain_plan(-1.0, 2.0, 0.25)}) == 1
    assert np.array_equal(plan.waypoints, plan.waypoints) and plan.waypoints is not plan.waypoints
    # a fit and a spectral kernel hold arrays: == and hash go by identity, and fields are frozen
    K = lambda x, y, t: float(gaussian_log_kernel([x], [y], [t])[0, 0, 0])
    samples = sampled(K, grid_points([-1.0, 0.0, 1.0], [-1.0, 0.0, 1.0], [0.5, 1.0]))
    fits = [fit_constants(V0, samples, "avg_upper", beta=0.9) for _ in range(2)]
    kernels = [build_spectral(V_SQ, 4.0, 101, 0.1) for _ in range(2)]
    for a, b, field in ((*fits, "records"), (*kernels, "phi")):
        assert a == a and a != b and hash(a) == hash(a) and len({a, b}) == 2
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(a, field, getattr(b, field))


def test_chain_plan_keeps_its_default_sigma_where_the_length_ratio_is_just_below_m():
    # 256 y^2 / t = 1998.9999999999998, so M = 1999 and sigma_bound rounds to 1/16 itself
    plan = chain_plan(0.0, 1.9759293699421545, 0.5)
    assert plan.M == 1999 and plan.sigma == 1.0 / 16.0 and plan.sigma_bound == 1.0 / 16.0


def test_chained_lower_bound_zero_potential():
    plan = chain_plan(0.0, 1.0, 1.0)
    c0 = 0.1
    got = chained_lower_bound(V0, plan, c0, 1.0)
    want = (
        -math.log(plan.sigma)
        - 0.5 * math.log(plan.t)
        + 0.5 * math.log(plan.M)
        + plan.M * math.log(plan.sigma * c0)
    )
    assert got == pytest.approx(want, rel=1e-12)


def test_chained_lower_bound_is_minus_inf_when_the_link_means_overflow():
    # 257 link means of 1e306 sum past the largest float, with no RuntimeWarning
    assert chained_lower_bound(constant(1e306), chain_plan(0.0, 1.0, 1.0), 0.1, 1.0) == -math.inf


def test_chained_lower_bound_monotone_in_m():
    # sigma c0 < 1 makes the bound strictly decreasing as M grows
    c0, c1 = 0.1, 1.0
    vals = []
    for y in (0.8, 1.0, 1.2):
        plan = chain_plan(0.0, y, 1.0)
        vals.append((plan.M, chained_lower_bound(V0, plan, c0, c1)))
    vals.sort()
    assert vals[0][1] > vals[1][1] > vals[2][1]


def test_chained_below_reference_kernel():
    for y in (0.3, 0.7, 1.1):
        plan = chain_plan(0.0, y, 1.0)
        bound = chained_lower_bound(V_SQ, plan, 0.14, 1.0)
        ref = quadratic_log_kernel(Q_SQ, [0.0], [y], [1.0])[0, 0, 0]
        assert bound < ref


# (a2, y, M, the chained bound) for V = a2 x^2, x = 0, t = 1, c0 = 0.0705237 and c1 = 1.4192: near constants
# whose envelope holds on each of these V with slack >= 0.67.
CHAIN_ROWS = [
    (1.0, 0.15, 6, -28.910184366),
    (1.0, 1.2, 369, -1996.595070370),
    (1e2, 1.0, 257, -1438.547979048),
    (1e4, 0.05, 1, -1421.216585101),
    (1e5, 0.2, 11, -3089.978840770),
    (1e5, 0.5, 65, -12843.306284339),
]


@pytest.mark.parametrize("a2, y, M, want", CHAIN_ROWS)
def test_chained_lower_bound_on_scaled_squares(a2, y, M, want):
    c0, c1 = 0.0705237, 1.4192
    plan = chain_plan(0.0, y, 1.0)
    got = chained_lower_bound(PolynomialPotential([0.0, 0.0, a2]), plan, c0, c1)
    s, side = 1.0 / M, (1.0 + plan.sigma) / math.sqrt(M)
    avgs = a2 * (plan.waypoints[:-1] ** 2 + side * side / 12.0)  # V's exact mean over each link cube
    formula = (M - 1) * math.log(plan.sigma * math.sqrt(s)) + M * (math.log(c0) - 0.5 * math.log(s))
    formula -= c1 * s * (1.0 + plan.sigma) * avgs.sum()
    assert plan.M == M and abs(got - want) <= 1e-6 and got == pytest.approx(formula, rel=1e-12)
    assert got <= quadratic_log_kernel(QuadraticCoeffs(0, 0, a2), [0.0], [y], [1.0])[0, 0, 0]


@settings(max_examples=40, deadline=None)
@given(log_a2=st.floats(-2.0, 5.0), t=st.floats(0.05, 2.0), u=st.floats(0.0, 1.0))
def test_chained_lower_bound_is_below_the_kernel(log_a2, t, u):
    a2, y = 10.0**log_a2, u * math.sqrt(1999.0 * t / 256.0)  # M <= 2000
    plan = chain_plan(0.0, y, t)
    V, Q, s = PolynomialPotential([0.0, 0.0, a2]), QuadraticCoeffs(0, 0, a2), t / plan.M
    # near pairs at time s: z across the waypoint cubes, z' within sqrt(s) / 8 of z, the near regime's kappa
    half, reach = plan.cube_side / 2.0, math.sqrt(s) / 8.0
    z, d = np.meshgrid(np.linspace(-half, y + half, 101), np.linspace(-reach, reach, 11)[1:-1], indexing="ij")
    pts = [(a, a + b, s) for a, b in zip(z.ravel().tolist(), d.ravel().tolist())]
    near = fit_constants(V, sampled(partial(quadratic_kernel, Q), pts), "avg_lower_near")
    # feasible: min slack >= 0 on every pair, up to the fitter's 1e-12 allowance for rounding
    assert near.envelope.c0 == C0_LOWER and near.feasible and len(near.records[0]) == len(pts)
    assert chained_lower_bound(V, plan, near.envelope.c0, near.envelope.c1) <= quadratic_kernel(Q, 0.0, y, t)


def test_fefferman_phong_constant_function():
    xs, _ = energy_test_family(0.0, 1.0, count=1)
    flat = np.ones((1, len(xs)))
    # r^2 v <= 1: linear branch of the weight gives ratio exactly 1
    assert fefferman_phong_ratio(constant(0.5), xs, flat, 0.0, 1.0, beta=0.5)[0] == pytest.approx(1.0, rel=1e-12)
    # r^2 v > 1: power branch gives (r^2 v)^{1-beta}
    v = 9.0
    want = v / (v**0.5)
    assert fefferman_phong_ratio(constant(v), xs, flat, 0.0, 1.0, beta=0.5)[0] == pytest.approx(want, rel=1e-12)


def test_fefferman_phong_family_floor():
    xs, family = energy_test_family(0.0, 1.0, count=50)
    assert family.shape == (50, len(xs))
    for V in (constant(1.0), V_SQ, PowerPotential(1.0)):
        ratios = fefferman_phong_ratio(V, xs, family, 0.0, 1.0, beta=0.5)
        assert min(ratios) >= 0.01


def test_energy_test_family_deterministic():
    (_, a), (_, b) = energy_test_family(0.0, 2.0, count=12), energy_test_family(0.0, 2.0, count=12)
    assert np.allclose(a, b)


def energy_family_per_row(center, side, count):
    """The family drawn row by row, one generator draw per row: the reference for the broadcast."""
    lo = center - side / 2.0
    grid = np.linspace(lo, center + side / 2.0, 129)
    rng, rows = np.random.default_rng(0), []
    for k in range(count):
        middle = lo + (k % 7 + 0.5) / 7.0 * side + rng.uniform(-0.02, 0.02) * side
        width = (0.15 + 0.25 * ((k // 7) % 3)) * side
        if k % 3 == 0:
            rows.append(np.clip(1.0 - np.abs(grid - middle) / width, 0.0, None))
        elif k % 3 == 1:
            rows.append(np.clip(1.0 - ((grid - middle) / width) ** 2, 0.0, None))
        else:
            rows.append(np.exp(-0.5 * ((grid - middle) / width) ** 2))
        assert np.max(rows[-1]) > 0.0  # every middle lies in the cube, within a width of a node
    return grid, np.array(rows)


@pytest.mark.parametrize("center, side", [(0.0, 0.5), (0.0, 1.0), (0.0, 2.0), (1.3, 0.7)])
@pytest.mark.parametrize("count", [1, 12, 50])
def test_energy_test_family_is_the_per_row_draw_bit_for_bit(center, side, count):
    grid, values = energy_test_family(center, side, count)
    want_grid, want = energy_family_per_row(center, side, count)
    assert grid.tobytes() == want_grid.tobytes()
    assert values.shape == (count, 129) and values.tobytes() == want.tobytes()


def test_moser_ratio_constant_function():
    # pure geometry: sup/sqrt(|Q_{2r/3}| / r^3) = sqrt(27/16)
    one = lambda xs, ys, ts: np.zeros((len(ts), len(xs), len(ys)))  # log p = 0, so u = 1
    got = moser_ratio(one, 0.0, 0.0, 2.0, 0.5)
    assert got == pytest.approx(math.sqrt(27.0 / 16.0), rel=1e-12)
    with pytest.raises(ParameterError):
        moser_ratio(one, 0.0, 0.0, 0.5, 0.5)  # t0 - 4r^2 <= 0


def test_moser_ratio_kernels_bounded(rng):
    for _ in range(5):
        r = rng.uniform(0.15, 0.4)
        t0 = rng.uniform(4 * r * r + 0.05, 1.5)
        x0 = rng.uniform(-1.5, 1.5)
        g = moser_ratio(gaussian_log_kernel, 0.0, x0, t0, r)
        q = moser_ratio(partial(quadratic_log_kernel, QuadraticCoeffs(0, 0, 1)), 0.0, x0, t0, r)
        assert g <= 100.0 and q <= 100.0


def test_fit_constants_zero_potential():
    K = lambda x, y, t: float(gaussian_log_kernel([x], [y], [t])[0, 0, 0])
    pts = grid_points(np.linspace(-2, 2, 7), np.linspace(-2, 2, 7), [0.1, 0.5, 1.0])
    fit = fit_constants(V0, sampled(K, pts), "avg_upper", beta=0.9)
    assert fit.feasible
    # decay argument vanished everywhere: envelope reduces to the Gaussian shape
    assert fit.min_slack >= -1e-12


def test_fit_constants_infeasible_reports_witness():
    # a kernel far above the lower prefactor with zero decay available
    tiny = lambda x, y, t: float(gaussian_log_kernel([x], [y], [t])[0, 0, 0]) - 50.0
    pts = grid_points([0.0], [0.0], [0.5])
    fit = fit_constants(V0, sampled(tiny, pts), "avg_lower_near", kappa=0.5)
    assert not fit.feasible
    assert fit.witness is not None


def test_fit_constants_sandwich_quadratic():
    xs, ts = np.linspace(-3, 3, 9), np.linspace(0.05, 3, 5)
    samples = grid_samples(xs, xs, ts, quadratic_log_kernel(Q_SQ, xs, xs, ts))
    up = fit_constants(V_SQ, samples, "symmetrized_upper", beta=0.99)
    low = fit_constants(V_SQ, samples, "avg_lower_near", kappa=0.125)
    assert up.feasible and low.feasible
    assert up.min_slack >= -1e-12 and low.min_slack >= -1e-12


def test_envelope_validation():
    with pytest.raises(ParameterError):
        BoundEnvelope(family="nonsense")
    with pytest.raises(ParameterError):
        BoundEnvelope(family="avg_upper", c0=-1.0)
    with pytest.raises(ParameterError):
        BoundEnvelope(family="avg_upper", beta=1.5)
    with pytest.raises(ParameterError):
        BoundEnvelope(family="avg_lower_near", kappa=1.0)


def test_quadratic_sharp_fit_wide_time_grid():
    # an upper envelope exists over x,y in [-3,3], t in [0.01, 5]
    xs, ts = np.linspace(-3, 3, 7), np.geomspace(0.01, 5.0, 8)
    fit = fit_constants(V_SQ, grid_samples(xs, xs, ts, quadratic_log_kernel(Q_SQ, xs, xs, ts)), "quadratic_sharp")
    assert fit.feasible
    env = fit.envelope
    assert all(getattr(env, k) > 0 for k in ("c0", "c1", "c2", "c3"))
    assert fit.min_slack >= -1e-12


def test_evaluate_envelope_dispatch_all_families():
    specs = [
        {"family": "gaussian_upper", "c0": 0.3, "c2": 0.25},
        {"family": "avg_upper", "c0": 0.3, "c1": 1.0, "c2": 0.25, "beta": 0.9},
        {"family": "symmetrized_upper", "c0": 0.3, "c1": 0.25, "c2": 1.0, "beta": 0.9},
        {"family": "quadratic_sharp", "c0": 0.2, "c1": 0.3, "c2": 0.8, "c3": 0.4},
        {"family": "avg_lower_near", "c0": 0.1, "c1": 1.0, "kappa": 0.125},
        {"family": "avg_lower_far", "c0": 0.1, "c1": 1.0, "c2": 2.0, "c3": 0.5, "kappa": 0.125},
        {"family": "dirichlet_interval", "epsilon": 0.5, "C": 0.5},
    ]
    for spec in specs:
        env = BoundEnvelope(**spec)
        if env.family == "avg_lower_near":
            lv = log_envelope(V_SQ, env, [0.1], [0.1], [0.3])[0]  # on-diagonal point
        else:
            lv = log_envelope(V_SQ, env, [0.1], [0.4], [0.3])[0]
        assert math.isfinite(lv)


@pytest.mark.parametrize(
    "spec, t",
    [
        ({"family": "gaussian_upper", "c0": 0.3, "c2": 0.25}, 0.0),
        ({"family": "avg_upper", "c0": 0.3, "c1": 1.0, "c2": 0.25}, 0.3),
        ({"family": "avg_lower_far", "c0": 0.1, "c1": 1.0, "c2": 2.0, "c3": 0.5}, 0.3),
        ({"family": "avg_lower_near", "c0": 0.1, "c1": 1.0, "kappa": 0.125}, 0.3),  # a far point needs c2, c3
        ({"family": "dirichlet_interval", "epsilon": 0.5, "C": 1.5}, 0.3),
        ({"family": "dirichlet_ball", "epsilon": 0.5, "C": 0.5}, 0.3),  # in one dimension the ball is the interval
    ],
    ids=[
        "t<=0",
        "avg_upper-no-beta",
        "avg_lower_far-no-kappa",
        "avg_lower-far-point-no-c2",
        "interval-C>1",
        "ball-n1",
    ],
)
def test_evaluate_envelope_checks_its_envelope(spec, t):
    with pytest.raises(ParameterError):
        log_envelope(V_SQ, BoundEnvelope(**spec), [0.1], [0.4], [t])


ENVELOPE_SPECS = {
    "gaussian_upper": {"c0": 0.3, "c2": 0.25},
    "avg_upper": {"c0": 0.3, "c1": 1.0, "c2": 0.25, "beta": 0.9},
    "symmetrized_upper": {"c0": 0.3, "c1": 0.25, "c2": 1.0, "beta": 0.9},
    "quadratic_sharp": {"c0": 0.2, "c1": 0.3, "c2": 0.8, "c3": 0.4},
    "avg_lower_near": {"c0": 0.1, "c1": 1.0, "c2": 2.0, "c3": 0.5, "kappa": 0.125},
    "avg_lower_far": {"c0": 0.1, "c1": 1.0, "c2": 2.0, "c3": 0.5, "kappa": 0.125},
    "dirichlet_interval": {"epsilon": 0.5, "C": 0.5},
}


@pytest.mark.parametrize("family", FAMILIES)
def test_log_envelope_of_a_batch_is_each_point_bit_for_bit(family):
    env = BoundEnvelope(family=family, **ENVELOPE_SPECS[family])
    xs, ys = np.array([0.1, -0.7, 0.0, 1.3, 0.1]), np.array([0.1, 0.4, 2.5, -1.0, 0.12])
    ts = np.array([0.3, 0.05, 1.7, 0.6, 2.0])
    batch = log_envelope(V_SQ, env, xs, ys, ts)
    assert batch.shape == (5,)
    for i in range(5):
        one = log_envelope(V_SQ, env, xs[i : i + 1], ys[i : i + 1], ts[i : i + 1])
        assert one.tobytes() == batch[i : i + 1].tobytes()


def test_log_envelope_checks_every_point():
    near_only = BoundEnvelope(family="avg_lower_near", c0=0.1, c1=1.0, kappa=0.125)
    assert np.all(np.isfinite(log_envelope(V_SQ, near_only, [0.1, 0.2], [0.1, 0.21], [0.3, 0.3])))
    with pytest.raises(ParameterError, match="needs constant c2"):  # the second point is far
        log_envelope(V_SQ, near_only, [0.1, 0.2], [0.1, 0.9], [0.3, 0.3])
    gauss = BoundEnvelope(family="gaussian_upper", c0=0.3, c2=0.25)
    for bad in (0.0, -1.0, math.nan):
        with pytest.raises(ParameterError, match="time must be > 0"):
            log_envelope(None, gauss, [0.1, 0.2, 0.3], [0.0, 0.0, 0.0], [0.5, bad, 0.5])
    rows = ([[0.1, 0.0], [0.2, 0.0]], [[0.0, 0.0], [0.0, 0.0]], [0.5, 0.5])  # 2-D points
    for x, y, t in (([0.1, 0.2], [0.0], [0.5, 0.5]), ([0.1], [0.0], [0.5, 0.5]), (0.1, 0.0, 0.5), rows):
        with pytest.raises(ParameterError, match="one x, y and t per point"):
            log_envelope(None, gauss, x, y, t)
    assert log_envelope(None, gauss, [], [], []).shape == (0,)


def test_fit_dirichlet_ball_needs_dimension():
    # Every envelope is one-dimensional, so the ball family (which needs n > 1) is unknown.
    K = lambda x, y, t: float(gaussian_log_kernel([x], [y], [t])[0, 0, 0])
    with pytest.raises(ParameterError, match="unknown envelope family 'dirichlet_ball'"):
        fit_constants(None, sampled(K, [(0.0, 0.0, 0.5)]), "dirichlet_ball", epsilon=0.5)
    with pytest.raises(ParameterError, match="unknown envelope family 'dirichlet_ball'"):
        BoundEnvelope(family="dirichlet_ball", epsilon=0.5, C=0.5)


def test_fit_refuses_vector_samples():
    for samples in (
        [((0.0, 0.0), (0.5, 0.0), 0.5, -1.0)],  # 2-D points
        [(0.0, 0.0, 0.5, -1.0), (0.0, 0.5, -1.0)],  # a short tuple
        [(0.0, 0.0, 0.5, -1.0), (0.0, 0.5, "t", -1.0)],  # not a number
    ):
        with pytest.raises(ParameterError, match=r"^samples must be \(x, y, t, log_p\) tuples of numbers$"):
            fit_constants(None, samples, "gaussian_upper")


def test_fit_lower_defaults_kappa():
    xs, ts = np.linspace(-2, 2, 7), [0.1, 0.5]
    fit = fit_constants(V_SQ, grid_samples(xs, xs, ts, quadratic_log_kernel(Q_SQ, xs, xs, ts)), "avg_lower_near")
    assert fit.feasible
    assert fit.envelope.kappa == 0.125


FIT_OPTIONS = {
    "avg_upper": {"beta": 0.9},
    "symmetrized_upper": {"beta": 0.9},
    "avg_lower_near": {"kappa": 0.25},
    "avg_lower_far": {"kappa": 0.25},
    "dirichlet_interval": {"epsilon": 0.5},
}


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=6, deadline=None, database=None, derandomize=True)
@given(
    a1=st.floats(-0.5, 0.5),
    a2=st.floats(0.2, 2.0),
    shift=st.floats(-3.0, 3.0),
)
def test_fit_records_are_the_evaluated_envelope(family, a1, a2, shift):
    xs, ts = np.linspace(-1.5, 1.5, 5), [0.05, 0.5, 2.0]
    a0 = a1 * a1 / (4.0 * a2) + 0.1  # V >= 0.1
    V = PolynomialPotential([a0, a1, a2])
    logp = quadratic_log_kernel(QuadraticCoeffs(a0, a1, a2), xs, xs, ts) + shift
    samples = grid_samples(xs, xs, ts, logp)
    fit = fit_constants(V, samples, family, **FIT_OPTIONS.get(family, {}))
    assert len(fit.records[0])
    for x, y, t, lp, le, slack in zip(*fit.records):
        assert le == log_envelope(V, fit.envelope, [x], [y], [t])[0]
    assert fit.min_slack == min(fit.records[5])


def test_lower_slack_is_zero_where_kernel_and_envelope_vanish():
    # dirichlet_interval clamps to zero from t = eps^2 / log 2 on
    eps = 0.5
    late = 2.0 * (eps**2 / math.log(2.0))
    samples = [(0.0, 0.1, 0.1, -1.0), (0.0, 0.1, late, -math.inf), (0.0, 0.2, late, -2.0)]
    fit = fit_constants(None, samples, "dirichlet_interval", epsilon=eps)
    assert list(fit.records[4][1:]) == [-math.inf, -math.inf]
    assert list(fit.records[5][1:]) == [0.0, math.inf]
    # the far branch's decay exp(c1 t 2^{|x-y|^2/t} avg) overflows to a zero envelope at (0, 3.5, 0.01)
    samples = [(0.0, 0.5, 0.1, -3.0), (0.0, 3.5, 0.01, -math.inf)]
    fit = fit_constants(V_SQ, samples, "avg_lower_far", kappa=0.125)
    assert (fit.records[4][1], fit.records[5][1]) == (-math.inf, 0.0)
    assert math.isfinite(fit.records[5][0])


def test_lower_fit_verdict_comes_from_the_records():
    # both sides are exact zeros at (0, 3.5, 0.01): no point is violated
    fit = fit_constants(V_SQ, [(0.0, 0.5, 0.1, -3.0), (0.0, 3.5, 0.01, -math.inf)], "avg_lower_far", kappa=0.125)
    assert fit.feasible and fit.min_slack == 0.0
    # at (0, 0.9, 0.1) the envelope stays positive where the kernel vanishes
    fit = fit_constants(V_SQ, [(0.0, 0.5, 0.1, -3.0), (0.0, 0.9, 0.1, -math.inf)], "avg_lower_far", kappa=0.125)
    assert not fit.feasible
    assert fit.min_slack == -math.inf and fit.witness == (0.0, 0.9, 0.1)


SCALED_FAMILIES = {
    "avg_upper": {"beta": 0.99},
    "symmetrized_upper": {"beta": 0.99},
    "avg_lower_near": {"kappa": 0.125},
    "avg_lower_far": {"kappa": 0.125},
}


def scaled_fits(r, s):
    """The fits of V_r(x) = r^2 V(r (x - s)), V = 0.6 + 0.4 x + 1.3 x^2, on the grid mapped as (x/r + s, t/r^2)."""
    a0, a1, a2 = 0.6, 0.4, 1.3
    coeffs = (r * r * (a0 - a1 * r * s + a2 * r * r * s * s), r * r * (a1 * r - 2.0 * a2 * r * r * s), r**4 * a2)
    xs, ts = np.linspace(-2.0, 2.0, 9) / r + s, np.linspace(0.05, 3.0, 6) / (r * r)
    samples = grid_samples(xs, xs, ts, quadratic_log_kernel(QuadraticCoeffs(*coeffs), xs, xs, ts))
    V = PolynomialPotential(coeffs)
    return {family: fit_constants(V, samples, family, **options) for family, options in SCALED_FAMILIES.items()}


@settings(max_examples=12, deadline=None, database=None, derandomize=True)
@given(r=st.floats(0.25, 4.0), s=st.floats(-1.0, 1.0))
def test_fits_are_invariant_under_parabolic_scaling_and_translation(r, s):
    # p_r(x, y, t) = r p(r (x - s), r (y - s), r^2 t) is the kernel of -Laplacian + V_r, and every
    # envelope term (t^(-1/2), |x-y|^2/t, t times a cube mean of V) maps the same way, so the fitted
    # constants, min_slack and verdicts are those of r = 1, s = 0.  quadratic_sharp is left out:
    # its switch at t = 1 does not scale.  min_slack reads 0 at r = 1, so it is compared on max(1, |.|).
    want, got = scaled_fits(1.0, 0.0), scaled_fits(r, s)
    for family in SCALED_FAMILIES:
        a, b = want[family], got[family]
        assert a.feasible is b.feasible
        assert abs(b.min_slack - a.min_slack) <= 1e-12 * max(1.0, abs(a.min_slack))
        for name in ("c0", "c1", "c2", "c3", "kappa", "beta"):
            u, v = getattr(a.envelope, name), getattr(b.envelope, name)
            assert (u is None) == (v is None), name
            if u is not None:
                assert abs(v - u) <= 1e-12 * abs(u), (family, name, u, v)


def _never_positive(xs, ys, ts):
    """A log_kernel that is -inf everywhere, shaped [t, x, y]."""
    return np.full((len(ts), len(xs), len(ys)), -math.inf)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: chain_plan(0.0, 1.0, 1.0, sigma=1.5), "sigma must lie in (0, 1)"),
        (lambda: chained_lower_bound(V_SQ, chain_plan(0.0, 1.0, 1.0), 0.1, 0.0), "constants must be > 0"),
        (
            lambda: fefferman_phong_ratio(V_SQ, [0.0], [[1.0]], 0.0, 1.0, 0.5),
            "test functions need values at the same >= 2 nodes",
        ),
        (
            lambda: fefferman_phong_ratio(V_SQ, [0.0, 0.5, 1.0], [[0.0, 0.0, 0.0]], 0.5, 1.0, 0.5),
            "test function has zero L2 mass",
        ),
        (
            lambda: fefferman_phong_ratio(V0, [0.0, 0.5, 1.0], [[0.0, 1.0, 0.0]], 0.5, 1.0, 0.5),
            "potential average vanishes; ratio undefined",
        ),
        (lambda: moser_ratio(_never_positive, 0.0, 0.0, 1.0, 0.25), "vanishing L2 mass on the comparison cylinder"),
        (lambda: fit_constants(V_SQ, [(0.0, 0.0, 0.5, -1.0)], "avg_upper"), "avg_upper fit needs beta"),
        (
            lambda: fit_constants(V_SQ, [(0.0, 0.0, 0.5, -math.inf)], "dirichlet_interval", epsilon=1.0),
            "no usable grid points for the Dirichlet fit",
        ),
    ],
)
def test_every_bounds_refusal_raises_its_message(call, message):
    with pytest.raises(ParameterError) as info:
        call()
    assert str(info.value) == message
