"""The array fitter against a scalar reference, bit for bit.

The reference below is the fitter as it was written point by point: each
envelope helper takes one point, each fit is a Python loop with a strict
`<` scan, and the record pass calls the envelope once per point.
`fit_constants` must give the same constants, verdict, min_slack, witness
and record columns, to the last bit.
"""

import math

import numpy as np
import pytest

from heatkernel import ParameterError, PolynomialPotential, QuadraticCoeffs, constant, fit_constants
from heatkernel.bounds import (
    C_FLOOR,
    FAMILIES,
    FAMILY_TABLE,
    BoundEnvelope,
    _check_envelope,
    _distances,
    grid_points,
    grid_samples,
)
from heatkernel.explicit import gaussian_log_kernel, quadratic_kernel
from heatkernel.potentials import cube_average
from heatkernel.spectral import dirichlet_interval_log_kernel

# ---------------------------------------------------------------------------
# the scalar reference


def _dist(x, y):
    """|x - y| of one point pair, as the fitter's array path computes it."""
    return float(_distances(np.array([x], dtype=float), np.array([y], dtype=float))[0])


def ref_m_beta(x, beta):
    return x if x <= 1.0 else x**beta


def ref_log_gaussian(c0, t, c=0.0, d2=0.0):
    return math.log(c0) - 0.5 * math.log(t) - c * d2 / t


def ref_upper_decay(V, beta, x, y, t):
    side = math.sqrt(t)
    decay = math.sqrt(ref_m_beta(t * cube_average(V, x, side), beta))
    if y is not None:
        decay += math.sqrt(ref_m_beta(t * cube_average(V, y, side), beta))
    return decay


def ref_is_near(kappa, d, t):
    return d < kappa * math.sqrt(t)


def ref_lower_terms(V, c0, c2, c3, near, x, d, t):
    if near:
        base, avg = ref_log_gaussian(c0, t), cube_average(V, x, math.sqrt(t))
        return base, math.log(t * avg) if avg > 0.0 else -math.inf
    base, avg = ref_log_gaussian(c0, t, c3, d * d), cube_average(V, x, t / d)
    if avg <= 0.0:
        return base, -math.inf
    return base, math.log(t) + (d * d / t) * math.log(c2) + math.log(avg)


def ref_sharp_terms(x, y, t):
    return -0.5 * math.log(t), (x - y) ** 2, x * x + y * y


def ref_dirichlet_log(epsilon, x, y, t, log_c=0.0):
    factor = 1.0 - 2.0 * math.exp(-(epsilon**2) / t)
    if factor <= 0.0:
        return -math.inf
    return log_c - 0.5 * math.log(t) - (x - y) ** 2 / (4.0 * t) + math.log(factor)


def ref_log_envelope(V, env, x, y, t):
    family = env.family
    if family in ("gaussian_upper", "avg_upper", "symmetrized_upper"):
        d2 = _dist(x, y) ** 2
        if family == "gaussian_upper":
            return ref_log_gaussian(env.c0, t, env.c2, d2)
        both = family == "symmetrized_upper"
        c_gauss, c_decay = (env.c1, env.c2) if both else (env.c2, env.c1)
        decay = ref_upper_decay(V, env.beta, x, y if both else None, t)
        return ref_log_gaussian(env.c0, t, c_gauss, d2) - c_decay * decay
    if family == "quadratic_sharp":
        shape, d2, s = ref_sharp_terms(x, y, t)
        if t <= 1.0:
            return shape - env.c0 * d2 / t - env.c1 * t * s
        return -env.c2 * t - env.c3 * s
    if family in ("avg_lower_near", "avg_lower_far"):
        d = _dist(x, y)
        near = ref_is_near(env.kappa, d, t)
        base, log_d = ref_lower_terms(V, env.c0, env.c2, env.c3, near, x, d, t)
        log_decay = math.log(env.c1) + log_d
        if log_decay > 700.0:
            return -math.inf
        return base - math.exp(log_decay)
    return ref_dirichlet_log(env.epsilon, x, y, t, math.log(env.C))


def ref_fit_constants(V, samples, family, *, beta=None, kappa=None, epsilon=None):
    """(envelope, feasible, min_slack, witness, records as (x, y, t, log_p, log_env, slack) tuples)."""
    pts = [tuple(s) for s in samples]
    c0_upper = 2.0 * (4.0 * math.pi) ** -0.5
    sel, ok, blame = pts, True, None
    if family == "gaussian_upper":
        env = BoundEnvelope(family=family, c0=c0_upper, c2=0.125)
    elif family in ("avg_upper", "symmetrized_upper"):
        env, ok, blame = ref_fit_decay(V, family, pts, c0_upper, beta)
    elif family == "quadratic_sharp":
        env, ok = ref_fit_quadratic_sharp(pts)
    elif family in ("avg_lower_near", "avg_lower_far"):
        env, sel = ref_fit_lower_c1(V, family, pts, kappa)
    else:
        env, ok = ref_fit_dirichlet_C(family, pts, epsilon)

    _check_envelope(env, *(np.array(column, dtype=float) for column in list(zip(*sel))[:3]))
    upper = FAMILY_TABLE[family][0] == "upper"
    records = []
    min_slack, witness = math.inf, None
    for x, y, t, lp in sel:
        le = ref_log_envelope(V, env, x, y, t)
        if upper:
            slack = le - lp if lp > -math.inf else math.inf
        else:
            slack = lp - le if le > -math.inf else (math.inf if lp > -math.inf else 0.0)
        records.append((x, y, t, lp, le, slack))
        if slack < min_slack:
            min_slack, witness = slack, (x, y, t)
    return env, ok and min_slack >= -1e-12, min_slack, blame or witness, records


def ref_fit_decay(V, family, pts, c0, beta):
    both = family == "symmetrized_upper"
    least, at = math.inf, None
    for x, y, t, lp in pts:
        if lp == -math.inf:
            continue
        decay = ref_upper_decay(V, beta, x, y if both else None, t)
        if decay > 0.0:
            q = (ref_log_gaussian(c0, t, 0.125, _dist(x, y) ** 2) - lp) / decay
            if q < least:
                least, at = q, (x, y, t)
    ok = at is None or least > 0.0
    cdecay = max(least if at is not None else 1.0, C_FLOOR)
    c1, c2 = (0.125, cdecay) if both else (cdecay, 0.125)
    env = BoundEnvelope(family=family, c0=c0, c1=c1, c2=c2, beta=beta)
    return env, ok, None if ok else at


def ref_fit_quadratic_sharp(pts):
    small, large = [], []
    for x, y, t, lp in pts:
        if lp > -math.inf:
            shape, d2, s = ref_sharp_terms(x, y, t)
            (small if t <= 1.0 else large).append((t, lp, shape - lp, d2, s))

    def least(quotients, default):
        return (max(min(quotients), C_FLOOR), min(quotients) > 0) if quotients else (default, True)

    c0, ok0 = least([budget * t / d2 / 2.0 for t, _, budget, d2, _ in small if d2 > 0], 0.125)
    c1, ok1 = least([(budget - c0 * d2 / t) / (t * s) for t, _, budget, d2, s in small if s > 0], 1.0)
    c2, ok2 = least([-lp / t / 2.0 for t, lp, *_ in large], 1.0)
    c3, ok3 = least([(-lp - c2 * t) / s for t, lp, _, _, s in large if s > 0], 1.0)
    env = BoundEnvelope(family="quadratic_sharp", c0=c0, c1=c1, c2=c2, c3=c3)
    return env, ok0 and ok1 and ok2 and ok3


def ref_fit_lower_c1(V, family, pts, kappa):
    if kappa is None:
        kappa = 0.125
    near = family == "avg_lower_near"
    c0, c2, c3 = 0.5 * (4.0 * math.pi) ** -0.5, 2.0, 0.5
    sel, quotients = [], []
    for x, y, t, lp in pts:
        d = _dist(x, y)
        if ref_is_near(kappa, d, t) != near:
            continue
        sel.append((x, y, t, lp))
        base, log_d = ref_lower_terms(V, c0, c2, c3, near, x, d, t)
        if lp > -math.inf and -math.inf < log_d <= 700.0:
            quotients.append((base - lp) / math.exp(log_d))
    c1 = max(max(quotients, default=0.0), C_FLOOR)
    far = {} if near else {"c2": c2, "c3": c3}
    return BoundEnvelope(family=family, c0=c0, c1=c1, kappa=kappa, **far), sel


def ref_fit_dirichlet_C(family, pts, epsilon):
    ratios = []
    for x, y, t, lp in pts:
        shape = ref_dirichlet_log(epsilon, x, y, t)
        if shape > -math.inf and lp > -math.inf:
            ratios.append(math.exp(min(lp - shape, 700.0)))
    c_raw = min(ratios)
    C = min(c_raw, 0.99) if c_raw > 0.0 else C_FLOOR
    return BoundEnvelope(family=family, epsilon=epsilon, C=C), c_raw > 0.0


# ---------------------------------------------------------------------------
# comparison


def bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def assert_fit_matches_reference(V, samples, family, **options):
    fit = fit_constants(V, samples, family, **options)
    env, feasible, min_slack, witness, records = ref_fit_constants(V, samples, family, **options)
    for name in ("c0", "c1", "c2", "c3", "beta", "kappa", "epsilon", "C"):
        got, want = getattr(fit.envelope, name), getattr(env, name)
        assert (got is None) == (want is None), name
        if want is not None:
            assert bits(got) == bits(want), name
    assert fit.envelope == env
    assert fit.feasible is feasible
    assert bits(fit.min_slack) == bits(min_slack)
    assert fit.witness == witness
    if witness is not None:
        assert all(bits(a) == bits(b) for a, b in zip(fit.witness, witness))
    assert len(fit.records) == 6
    for got, want in zip(fit.records, zip(*records)):
        assert bits(got) == bits(want)
    return fit


OPTIONS = {
    "gaussian_upper": {},
    "avg_upper": {"beta": 0.99},
    "symmetrized_upper": {"beta": 0.99},
    "quadratic_sharp": {},
    "avg_lower_near": {"kappa": 0.125},
    "avg_lower_far": {"kappa": 0.125},
}
QUADRATIC_FAMILIES = tuple(OPTIONS)
ALL_OPTIONS = {**OPTIONS, "dirichlet_interval": {"epsilon": 0.5}}


def closed_form_samples(coeffs, xs, ys, ts):
    """(x, y, t, log p) of the closed form, point by point in `grid_points` order, as `bounds` reads them."""
    quad = QuadraticCoeffs(*coeffs)
    return [(x, y, t, quadratic_kernel(quad, x, y, t)) for x, y, t in grid_points(xs, ys, ts)]


# a2 > 0 and min V > 0, like the benchmark's quadratics
QUADRATICS = ([0.6, 0.4, 1.3], [1.05, -0.9, 0.55], [0.3, 0.0, 2.0])


@pytest.mark.parametrize("coeffs", QUADRATICS, ids=["q0", "q1", "q2"])
@pytest.mark.parametrize("family", QUADRATIC_FAMILIES)
def test_closed_form_grid_matches_the_reference(coeffs, family):
    # the closed-form benchmark grid: 13 x 13 x 8, t running past 1
    axis, ts = np.linspace(-2.0, 2.0, 13), np.linspace(0.05, 3.0, 8)
    samples = closed_form_samples(coeffs, axis, axis, ts)
    fit = assert_fit_matches_reference(PolynomialPotential(coeffs), samples, family, **OPTIONS[family])
    if FAMILY_TABLE[family][0] == "upper":
        assert len(fit.records[0]) == 13 * 13 * 8


@pytest.mark.parametrize("family", QUADRATIC_FAMILIES)
def test_scattered_points_match_the_reference(family):
    # 3,000 distinct distances and times: enough that a numpy exp, log or pow in
    # place of libm's would change some last bit
    rng = np.random.default_rng(5)
    x, y = rng.uniform(-2.0, 2.0, (2, 3000)).tolist()
    t = np.exp(rng.uniform(math.log(0.01), math.log(3.0), 3000)).tolist()
    quad = QuadraticCoeffs(0.6, 0.4, 1.3)
    samples = [(a, b, c, quadratic_kernel(quad, a, b, c)) for a, b, c in zip(x, y, t)]
    assert_fit_matches_reference(PolynomialPotential([0.6, 0.4, 1.3]), samples, family, **OPTIONS[family])


@pytest.mark.parametrize("family", QUADRATIC_FAMILIES)
def test_minus_inf_log_p_matches_the_reference(family):
    axis, ts = np.linspace(-2.0, 2.0, 7), np.linspace(0.05, 3.0, 5)
    samples = closed_form_samples([0.5, 0.2, 1.0], axis, axis, ts)
    samples = [(x, y, t, -math.inf if i % 3 == 1 else lp) for i, (x, y, t, lp) in enumerate(samples)]
    assert_fit_matches_reference(PolynomialPotential([0.5, 0.2, 1.0]), samples, family, **OPTIONS[family])


def test_minus_inf_log_p_matches_the_reference_on_the_dirichlet_families():
    # the interval kernel vanishes past its clamp time, and so does its envelope
    inner, ts = np.linspace(0.8, 2.3, 5), np.linspace(0.01, 1.2, 6)
    samples = grid_samples(inner, inner, ts, dirichlet_interval_log_kernel(0.0, math.pi, inner, inner, ts))
    samples = [(x, y, t, -math.inf if i % 4 == 3 else lp) for i, (x, y, t, lp) in enumerate(samples)]
    assert_fit_matches_reference(None, samples, "dirichlet_interval", epsilon=math.pi / 4.0)


@pytest.mark.parametrize("family", ["gaussian_upper", "symmetrized_upper"])
def test_a_tie_for_the_witness_goes_to_the_first_point(family):
    # (x, y) and (y, x) give the same bits in both families, and a raised kernel violates both
    V = PolynomialPotential([0.5, 0.0, 1.0])
    quad = QuadraticCoeffs(0.5, 0.0, 1.0)
    pts = [(0.25, 0.25, 0.5), (0.5, -0.75, 0.3), (-0.75, 0.5, 0.3), (1.0, 0.0, 0.8)]
    samples = [(x, y, t, quadratic_kernel(quad, x, y, t) + (3.0 if t == 0.3 else 0.0)) for x, y, t in pts]
    fit = assert_fit_matches_reference(V, samples, family, **OPTIONS[family])
    assert not fit.feasible
    assert fit.witness == (0.5, -0.75, 0.3)
    assert fit.records[5][1] == fit.records[5][2]


@pytest.mark.parametrize("family", ["avg_lower_near", "avg_lower_far"])
@pytest.mark.parametrize("potential", ["quadratic", "zero"])
def test_both_lower_regimes_match_the_reference(family, potential):
    # x, y up to 3.5 apart at t down to 0.01: far points whose decay overflows to a zero envelope;
    # V = 0 has vanishing averages, so log D = -inf everywhere
    axis, ts = np.linspace(-1.75, 1.75, 9), [0.01, 0.1, 0.6, 2.0]
    if potential == "quadratic":
        V, samples = PolynomialPotential([0.2, -0.3, 1.5]), closed_form_samples([0.2, -0.3, 1.5], axis, axis, ts)
    else:
        V, pts = constant(0.0), grid_points(axis, axis, ts)
        samples = [(x, y, t, float(gaussian_log_kernel([x], [y], [t])[0, 0, 0])) for x, y, t in pts]
    fit = assert_fit_matches_reference(V, samples, family, kappa=0.125)
    x, y, t = fit.records[:3]
    assert np.all((np.abs(x - y) < 0.125 * np.sqrt(t)) == (family == "avg_lower_near"))


@pytest.mark.parametrize("family", FAMILIES)
def test_a_nan_log_p_is_refused_naming_the_point(family):
    samples = [(0.0, 0.0, 1.0, -1.0), (0.5, 0.0, 1.0, math.nan), (0.0, 0.5, 0.5, -1.2)]
    with pytest.raises(ParameterError, match=r"log p is NaN at .*0\.5.*1\.0"):
        fit_constants(PolynomialPotential([1.0, 0.0, 1.0]), samples, family, **ALL_OPTIONS[family])
