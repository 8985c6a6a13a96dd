import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatkernel import (
    BoundEnvelope,
    Cube,
    ParameterError,
    PolynomialPotential,
    PowerPotential,
    QuadraticCoeffs,
    chain_plan,
    chained_lower_bound,
    constant,
    doubling_fit,
    fefferman_phong_ratio,
    fit_constants,
    gaussian_kernel,
    gaussian_log_kernel,
    grid_points,
    grid_samples,
    interval_clamp_time,
    m_beta,
    moser_ratio,
    quadratic_log_kernel,
    energy_test_family,
    evaluate_envelope,
)
from heatkernel.spectral import dirichlet_interval_log_kernel
from heatkernel.bounds import FAMILIES, _dist

V_SQ = PolynomialPotential([0.0, 0.0, 1.0])
V0 = constant(0.0)
Q_SQ = QuadraticCoeffs(0, 0, 1)


def sampled(K, pts):
    """(x, y, t, log p) samples of a scalar kernel, as fit_constants takes them."""
    return [(x, y, t, K(x, y, t)) for x, y, t in pts]


def _upper_env(**kw):
    base = dict(family="avg_upper", n=1, c0=1.0, c1=1.0, c2=0.25, beta=0.5)
    base.update(kw)
    return BoundEnvelope(**base)


def test_avg_upper_zero_potential_is_gaussian_shape():
    e = _upper_env()
    for x, y, t in [(0.0, 1.0, 0.3), (-2.0, 0.5, 1.0)]:
        got = evaluate_envelope(V0, e, x, y, t)
        want = evaluate_envelope(None, _upper_env(family="gaussian_upper"), x, y, t)
        assert got == pytest.approx(want, rel=1e-14)


def test_avg_upper_quadratic_average_term():
    # V = z^2 at x = 0: the averaged decay argument is t * (t/12)
    e = _upper_env(beta=0.5)
    t = 0.9
    got = evaluate_envelope(V_SQ, e, 0.0, 0.0, t)
    gauss = evaluate_envelope(None, _upper_env(family="gaussian_upper", beta=0.5), 0.0, 0.0, t)
    want = gauss - e.c1 * math.sqrt(m_beta(t * t / 12.0, e.beta))
    assert got == pytest.approx(want, rel=1e-14)


def test_avg_upper_monotone_in_c1():
    lo = evaluate_envelope(V_SQ, _upper_env(c1=0.5), 1.0, 0.0, 1.0)
    hi = evaluate_envelope(V_SQ, _upper_env(c1=2.0), 1.0, 0.0, 1.0)
    assert hi < lo


def test_beta_ordering_weakens_bound():
    # smaller beta gives a larger envelope once the decay argument exceeds 1
    t, x = 2.0, 2.0
    small = evaluate_envelope(V_SQ, _upper_env(beta=0.3), x, 0.0, t)
    large = evaluate_envelope(V_SQ, _upper_env(beta=0.9), x, 0.0, t)
    assert t * (x * x + t / 12.0) > 1.0
    assert small > large


def test_symmetrized_properties():
    e = _upper_env(family="symmetrized_upper")
    a = evaluate_envelope(V_SQ, e, 0.4, -1.0, 0.7)
    b = evaluate_envelope(V_SQ, e, -1.0, 0.4, 0.7)
    assert a == pytest.approx(b, rel=1e-14)
    # x = y doubles the single-point decay of avg_upper (with the c-roles swapped)
    x = 1.3
    t = 0.6
    got = evaluate_envelope(V_SQ, e, x, x, t)
    single = evaluate_envelope(V_SQ, _upper_env(c1=2.0 * e.c2, c2=e.c1), x, x, t)
    assert got == pytest.approx(single, rel=1e-13)
    assert evaluate_envelope(V0, e, 0.3, 0.9, 0.5) == pytest.approx(
        evaluate_envelope(None, _upper_env(family="gaussian_upper", c2=e.c1), 0.3, 0.9, 0.5), rel=1e-14
    )


def test_quadratic_sharp_branches_at_one():
    e = BoundEnvelope(family="quadratic_sharp", n=1, c0=0.2, c1=0.3, c2=0.8, c3=0.4)
    # t = 1 takes the small-t branch, -c0 (x-y)^2/t - c1 t (x^2+y^2); just past it the large-t one
    small = evaluate_envelope(None, e, 1.0, -1.0, 1.0)
    large = evaluate_envelope(None, e, 1.0, -1.0, 1.001)
    assert math.isfinite(small) and math.isfinite(large)
    assert small == pytest.approx(-0.2 * 4.0 - 0.3 * 2.0)
    assert large == pytest.approx(-0.8 * 1.001 - 0.4 * 2.0)
    assert large != small
    # origin small-t shape is the bare power of t
    assert evaluate_envelope(None, e, 0.0, 0.0, 0.25) == pytest.approx(-0.5 * math.log(0.25))


def test_avg_lower_branches():
    e = BoundEnvelope(
        family="avg_lower_near", n=1, c0=0.1, c1=1.0, c2=2.0, c3=0.5, kappa=0.125
    )
    # near branch at x = 0 for V = z^2 decays like exp(-c1 t^2 / 12)
    t = 0.64
    got = evaluate_envelope(V_SQ, e, 0.0, 0.0, t)
    want = math.log(e.c0) - 0.5 * math.log(t) - e.c1 * t * (t / 12.0)
    assert got == pytest.approx(want, rel=1e-14)
    # the boundary |x-y| = kappa sqrt(t) selects the far branch
    d = e.kappa * math.sqrt(t)
    far = evaluate_envelope(V_SQ, e, 0.0, d, t)
    explicit_far = (
        math.log(e.c0)
        - 0.5 * math.log(t)
        - e.c3 * d * d / t
        - e.c1 * t * e.c2 ** (d * d / t) * (t / d) ** 2 / 12.0
    )
    # far-branch average for V=z^2 at x=0 with side t/d is (t/d)^2/12
    assert far == pytest.approx(explicit_far, rel=1e-12)
    # zero potential: both branches carry the Gaussian-type shape only
    near0 = evaluate_envelope(V0, e, 0.0, 0.01, 1.0)
    assert near0 == pytest.approx(math.log(e.c0) - 0.0, rel=1e-12)
    far0 = evaluate_envelope(V0, e, 0.0, 1.0, 1.0)
    assert far0 == pytest.approx(math.log(e.c0) - e.c3, rel=1e-12)


def _interval(eps, C):
    return BoundEnvelope(family="dirichlet_interval", epsilon=eps, C=C)


def test_interval_lower_bound_clamp():
    eps = 0.8
    lv = evaluate_envelope(None, _interval(eps, 0.5), 0.2, 0.4, 1e-3)
    assert lv > -math.inf  # not clamped
    # tiny t: the boundary factor is essentially 1
    want = math.log(0.5) - 0.5 * math.log(1e-3) - 0.04 / (4e-3)
    assert lv == pytest.approx(want, rel=1e-6)
    t_clamp = interval_clamp_time(eps)
    lv2 = evaluate_envelope(None, _interval(eps, 0.5), 0.2, 0.4, t_clamp * 1.0001)
    assert lv2 == -math.inf and math.exp(lv2) == 0.0  # clamped
    with pytest.raises(ParameterError):
        evaluate_envelope(None, _interval(0.0, 0.5), 0.1, 0.2, 0.5)
    with pytest.raises(ParameterError):
        evaluate_envelope(None, _interval(1.0, 1.5), 0.1, 0.2, 0.5)


def test_interval_lower_holds_for_sine_series():
    # fitted C in (0,1) makes the bound valid on the sampled window
    eps = math.pi / 4.0
    inner, ts = np.linspace(math.pi / 4, 3 * math.pi / 4, 11)[1:-1], np.linspace(0.01, 1.0, 6)
    samples = grid_samples(inner, inner, ts, dirichlet_interval_log_kernel(0.0, math.pi, inner, inner, ts))
    fit = fit_constants(None, samples, "dirichlet_interval", epsilon=eps)
    assert fit.feasible
    assert 0.0 < fit.envelope.C < 1.0
    assert fit.min_slack >= -1e-12


def test_ball_lower_bound():
    C = 0.5
    ball = lambda n, eps: BoundEnvelope(family="dirichlet_ball", n=n, epsilon=eps, C=C)  # noqa: E731
    # x = y leaves only the time-decay factor
    v = evaluate_envelope(None, ball(2, 1.0), (0.0, 0.0), (0.0, 0.0), 0.3)
    want = math.log(C) - math.log(0.3) - math.pi**2 * 4 * 0.3 / 4.0
    assert v == pytest.approx(want, rel=1e-12)
    # time-decay factor becomes exactly 1/2 at t = ln2 * 4 eps^2 / (pi^2 n^2)
    t_half = math.log(2.0) / math.pi**2
    a = evaluate_envelope(None, ball(2, 1.0), (0.0, 0.0), (0.0, 0.0), t_half)
    bare = math.log(C) - math.log(t_half)
    assert math.exp(a - bare) == pytest.approx(0.5, rel=1e-12)
    # never exceeds the free kernel scaled by C (4 pi)^{n/2}
    for d in (0.0, 0.5, 2.0):
        for t in (0.05, 0.5, 3.0):
            bl = evaluate_envelope(None, ball(2, 1.0), (0.0, 0.0), (d, 0.0), t)
            g = gaussian_kernel(2, (0.0, 0.0), (d, 0.0), t)
            assert bl <= g + math.log(C * (4 * math.pi))
    with pytest.raises(ParameterError):
        evaluate_envelope(None, ball(1, 0.5), 0.0, 0.0, 0.1)


def test_chain_plan_sizes():
    assert chain_plan(0.0, 1.0, 1.0).M == 257  # ratio exactly 1
    assert chain_plan(0.0, 1.0, 2.0).M == 129  # ratio 0.5
    assert chain_plan(0.0, 0.1, 1.0).M == 3  # ratio 0.01
    plan = chain_plan(0.0, 0.1, 1.0)
    assert plan.spacing == pytest.approx(0.1 / 3.0)
    assert not plan.far_regime
    assert chain_plan(0.0, 1.0, 1.0).far_regime


def test_chain_plan_waypoints_and_sigma():
    plan = chain_plan(-1.0, 2.0, 0.25)
    assert plan.waypoints.shape == (plan.M + 1, 1)
    assert plan.waypoints[0, 0] == -1.0 and plan.waypoints[-1, 0] == 2.0
    steps = np.diff(plan.waypoints[:, 0])
    assert np.allclose(steps, steps[0])
    # spacing invariant from the M construction
    assert plan.spacing < math.sqrt(plan.t / plan.M) / 16.0
    with pytest.raises(ParameterError):
        chain_plan(0.0, 1.0, 1.0, sigma=0.25)  # violates the adjacent-cube condition
    with pytest.raises(ParameterError):
        chain_plan(0.0, 1.0, 0.0)


def test_chained_lower_bound_zero_potential():
    plan = chain_plan(0.0, 1.0, 1.0)
    c0 = 0.1
    got = chained_lower_bound(V0, plan, c0, 1.0, 1.5)
    want = (
        -math.log(plan.sigma)
        - 0.5 * math.log(plan.t)
        + 0.5 * math.log(plan.M)
        + plan.M * math.log(plan.sigma * c0)
    )
    assert got == pytest.approx(want, rel=1e-12)


def test_chained_lower_bound_monotone_in_m():
    # sigma c0 < 1 makes the bound strictly decreasing as M grows
    c0, c1, C = 0.1, 1.0, 1.5
    vals = []
    for y in (0.8, 1.0, 1.2):
        plan = chain_plan(0.0, y, 1.0)
        vals.append((plan.M, chained_lower_bound(V0, plan, c0, c1, C)))
    vals.sort()
    assert vals[0][1] > vals[1][1] > vals[2][1]


def test_chained_below_reference_kernel():
    dbl = doubling_fit(V_SQ, Cube(0.0, 4.0), 8)
    for y in (0.3, 0.7, 1.1):
        plan = chain_plan(0.0, y, 1.0)
        bound = chained_lower_bound(V_SQ, plan, 0.14, 1.0, max(dbl.C, 1.0))
        ref = quadratic_log_kernel(Q_SQ, [0.0], [y], [1.0])[0, 0, 0]
        assert bound < ref


def test_fefferman_phong_constant_function():
    Z = Cube(0.0, 1.0)
    xs, _ = energy_test_family(Z, count=1, seed=0)
    flat = np.ones((1, len(xs)))
    # r^2 v <= 1: linear branch of the weight gives ratio exactly 1
    assert fefferman_phong_ratio(constant(0.5), xs, flat, Z, beta=0.5)[0] == pytest.approx(1.0, rel=1e-12)
    # r^2 v > 1: power branch gives (r^2 v)^{1-beta}
    v = 9.0
    want = v / (v**0.5)
    assert fefferman_phong_ratio(constant(v), xs, flat, Z, beta=0.5)[0] == pytest.approx(want, rel=1e-12)


def test_fefferman_phong_family_floor():
    Z = Cube(0.0, 1.0)
    xs, family = energy_test_family(Z, count=50, seed=0)
    assert family.shape == (50, len(xs))
    for V in (constant(1.0), V_SQ, PowerPotential(1.0)):
        ratios = fefferman_phong_ratio(V, xs, family, Z, beta=0.5)
        assert min(ratios) >= 0.01


def test_energy_test_family_deterministic():
    Z = Cube(0.0, 2.0)
    (_, a), (_, b) = energy_test_family(Z, count=12, seed=7), energy_test_family(Z, count=12, seed=7)
    assert np.allclose(a, b)


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
    K = lambda x, y, t: gaussian_kernel(1, x, y, t)
    pts = grid_points(np.linspace(-2, 2, 7), np.linspace(-2, 2, 7), [0.1, 0.5, 1.0])
    fit = fit_constants(V0, sampled(K, pts), "avg_upper", beta=0.9)
    assert fit.feasible
    # decay argument vanished everywhere: envelope reduces to the Gaussian shape
    assert fit.min_slack >= -1e-12


def test_fit_constants_infeasible_reports_witness():
    # a kernel far above the lower prefactor with zero decay available
    tiny = lambda x, y, t: gaussian_kernel(1, x, y, t) - 50.0
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
        {"family": "dirichlet_ball", "epsilon": 0.5, "C": 0.5, "n": 2},
    ]
    for spec in specs:
        env = BoundEnvelope(**spec)
        if env.family == "dirichlet_ball":
            lv = evaluate_envelope(V_SQ, env, (0.1, 0.0), (0.4, 0.0), 0.3)
        elif env.family == "avg_lower_near":
            lv = evaluate_envelope(V_SQ, env, 0.1, 0.1, 0.3)  # on-diagonal point
        else:
            lv = evaluate_envelope(V_SQ, env, 0.1, 0.4, 0.3)
        assert math.isfinite(lv)


@pytest.mark.parametrize(
    "spec, t",
    [
        ({"family": "gaussian_upper", "c0": 0.3, "c2": 0.25}, 0.0),
        ({"family": "avg_upper", "c0": 0.3, "c1": 1.0, "c2": 0.25}, 0.3),
        ({"family": "avg_lower_far", "c0": 0.1, "c1": 1.0, "c2": 2.0, "c3": 0.5}, 0.3),
        ({"family": "avg_lower_near", "c0": 0.1, "c1": 1.0, "kappa": 0.125}, 0.3),  # a far point needs c2, c3
        ({"family": "quadratic_sharp", "c0": 0.2, "c1": 0.3, "c2": 0.8, "c3": 0.4, "n": 2}, 0.3),
        ({"family": "dirichlet_interval", "epsilon": 0.5, "C": 1.5}, 0.3),
        ({"family": "dirichlet_ball", "epsilon": 0.5, "C": 0.5, "n": 1}, 0.3),
    ],
    ids=[
        "t<=0",
        "avg_upper-no-beta",
        "avg_lower_far-no-kappa",
        "avg_lower-far-point-no-c2",
        "quadratic_sharp-n2",
        "interval-C>1",
        "ball-n1",
    ],
)
def test_evaluate_envelope_checks_its_envelope(spec, t):
    with pytest.raises(ParameterError):
        evaluate_envelope(V_SQ, BoundEnvelope(**spec), 0.1, 0.4, t)


def test_fit_dirichlet_ball_needs_dimension():
    K = lambda x, y, t: gaussian_kernel(1, x, y, t)
    with pytest.raises(ParameterError):
        fit_constants(None, sampled(K, [(0.0, 0.0, 0.5)]), "dirichlet_ball", epsilon=0.5, n=1)


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
    "dirichlet_ball": {"epsilon": 0.5, "n": 2},
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
    if family == "dirichlet_ball":
        pts = [((x, 0.0), (y, 0.3)) for x in xs for y in xs]
        samples = [(x, y, t, gaussian_kernel(2, x, y, t) + shift) for x, y in pts for t in ts]
    else:
        logp = quadratic_log_kernel(QuadraticCoeffs(a0, a1, a2), xs, xs, ts) + shift
        samples = grid_samples(xs, xs, ts, logp)
    fit = fit_constants(V, samples, family, **FIT_OPTIONS.get(family, {}))
    assert fit.records
    for x, y, t, lp, le, slack in fit.records:
        assert le == evaluate_envelope(V, fit.envelope, x, y, t)
    assert fit.min_slack == min(r[5] for r in fit.records)


def test_lower_slack_is_zero_where_kernel_and_envelope_vanish():
    # dirichlet_interval clamps to zero from t = eps^2 / log 2 on
    eps = 0.5
    late = 2.0 * interval_clamp_time(eps)
    samples = [(0.0, 0.1, 0.1, -1.0), (0.0, 0.1, late, -math.inf), (0.0, 0.2, late, -2.0)]
    fit = fit_constants(None, samples, "dirichlet_interval", epsilon=eps)
    assert [r[4] for r in fit.records][1:] == [-math.inf, -math.inf]
    assert [r[5] for r in fit.records][1:] == [0.0, math.inf]
    # the far branch's decay exp(c1 t 2^{|x-y|^2/t} avg) overflows to a zero envelope at (0, 3.5, 0.01)
    samples = [(0.0, 0.5, 0.1, -3.0), (0.0, 3.5, 0.01, -math.inf)]
    fit = fit_constants(V_SQ, samples, "avg_lower_far", kappa=0.125)
    assert fit.records[1][4:] == (-math.inf, 0.0)
    assert math.isfinite(fit.records[0][5])


def test_lower_fit_verdict_comes_from_the_records():
    # both sides are exact zeros at (0, 3.5, 0.01): no point is violated
    fit = fit_constants(V_SQ, [(0.0, 0.5, 0.1, -3.0), (0.0, 3.5, 0.01, -math.inf)], "avg_lower_far", kappa=0.125)
    assert fit.feasible and fit.min_slack == 0.0
    # at (0, 0.9, 0.1) the envelope stays positive where the kernel vanishes
    fit = fit_constants(V_SQ, [(0.0, 0.5, 0.1, -3.0), (0.0, 0.9, 0.1, -math.inf)], "avg_lower_far", kappa=0.125)
    assert not fit.feasible
    assert fit.min_slack == -math.inf and fit.witness == (0.0, 0.9, 0.1)


@settings(max_examples=300, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False), st.floats(allow_nan=False, allow_infinity=False))
def test_dist_of_floats_matches_the_array_path_bitwise(x, y):
    with np.errstate(over="ignore"):
        arrays = _dist(np.array([x]), np.array([y]))
    assert np.float64(_dist(x, y)).tobytes() == np.float64(arrays).tobytes()
