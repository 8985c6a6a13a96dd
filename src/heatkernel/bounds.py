"""Bound envelopes, envelope fitting, chained lower bounds, and inequality checks.

Every envelope evaluates in log-space.  The theory only asserts that
positive constants exist; `fit_constants` turns that into a checkable
statement by fitting the free constant against a computed kernel on a grid
and reporting feasibility plus per-point slack.

Each envelope family is declared once, in `FAMILY_TABLE`, which every other
module reads: its side of the kernel, option, constants, fit and fitted points.
Each family's log-envelope is written once, in helpers on arrays with one
entry per point, which `log_envelope` and `fit_constants` call with numpy's
warnings off: entries that a mask then drops may divide by zero or overflow.
exp, log and pow go through Python (`_libm`), as numpy's SIMD versions can
differ from libm in the last bit; +, -, *, / and sqrt give the same bits in
both.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ParameterError
from .potentials import Potential, checked_cube, cube_average, cube_averages, m_beta

# The floor a fitted constant is clipped to, so that every envelope stays valid.
C_FLOOR = 1e-9
# Lattice points per axis of each `moser_ratio` cylinder; odd, as Simpson's rule wants.
MOSER_NODES = 41

C0_UPPER = 2.0 * (4.0 * math.pi) ** -0.5
C0_LOWER = 0.5 * (4.0 * math.pi) ** -0.5


@dataclass(frozen=True)
class BoundEnvelope:
    """Envelope family plus its constants.

    Which constants matter depends on the family; the ones present must be
    strictly positive, with beta in (0, 1] and kappa in (0, 1).
    """

    family: str
    c0: float | None = None
    c1: float | None = None
    c2: float | None = None
    c3: float | None = None
    beta: float | None = None
    kappa: float | None = None
    epsilon: float | None = None
    C: float | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ParameterError(f"unknown envelope family {self.family!r}")
        for name in ("c0", "c1", "c2", "c3", "epsilon", "C"):
            v = getattr(self, name)
            if v is not None and not v > 0.0:
                raise ParameterError(f"envelope constant {name} must be > 0, got {v}")
        if self.beta is not None and not 0.0 < self.beta <= 1.0:
            raise ParameterError(f"beta must be in (0, 1], got {self.beta}")
        if self.kappa is not None and not 0.0 < self.kappa < 1.0:
            raise ParameterError(f"kappa must be in (0, 1), got {self.kappa}")


def _libm(f, a: np.ndarray) -> np.ndarray:
    """f of each entry of a, one call per distinct value."""
    values, at = np.unique(a, return_inverse=True)
    return np.array([f(v) for v in values.tolist()], dtype=float)[at].reshape(a.shape)


def _square(a: np.ndarray) -> np.ndarray:
    """a ** 2 as a Python float squares: libm's pow, which can differ from a * a."""
    return _libm(lambda v: v**2, a)


def _distances(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """|x - y| of each point pair, as sqrt(dx * dx)."""
    dx = x - y
    return np.sqrt(dx * dx)


def _cube_means(V: Potential, centers: np.ndarray, sides: np.ndarray) -> np.ndarray:
    """Means of V over the cubes (centers[i], sides[i]), one `cube_average` call each."""
    return np.array([cube_average(V, c, s) for c, s in zip(centers.tolist(), sides.tolist())], dtype=float)


def _log_gaussian(c0: float, t, c: float = 0.0, d2=0.0):
    """log c0 - (1/2) log t - c |x-y|^2 / t, with d2 = |x-y|^2."""
    return math.log(c0) - 0.5 * _libm(math.log, t) - c * d2 / t


def _upper_decay(V: Potential, beta: float, x, y, t):
    """sqrt(m_beta(t avg_x)), plus the same at y unless y is None; avg over the side-sqrt(t) cube."""
    side = np.sqrt(t)
    decay = np.sqrt(m_beta(t * _cube_means(V, x, side), beta))
    return decay if y is None else decay + np.sqrt(m_beta(t * _cube_means(V, y, side), beta))


def _lower_terms(V: Potential, c0: float, c2, c3, near, x, d, t):
    """(base, log D) of the averaged lower envelope, whose log is base - c1 D; log D = -inf where avg = 0.

    near: base = log c0 - (1/2) log t,                D = t avg_{sqrt(t)}(x)
    far:  base = log c0 - (1/2) log t - c3 |x-y|^2/t, D = t c2^{|x-y|^2/t} avg_{t/|x-y|}(x)
    """
    avg = _cube_means(V, x, np.where(near, np.sqrt(t), t / d))
    base = _log_gaussian(c0, t, c3 or 0.0, np.where(near, 0.0, d * d))
    log_d = np.full(t.shape, -math.inf)
    at = near & (avg > 0.0)
    log_d[at] = _libm(math.log, t[at] * avg[at])
    if (at := ~near & (avg > 0.0)).any():
        da, ta = d[at], t[at]
        log_d[at] = _libm(math.log, ta) + (da * da / ta) * math.log(c2) + _libm(math.log, avg[at])
    return base, log_d


def _near(kappa: float, x, y, t) -> np.ndarray:
    """The near regime of the averaged lower families: |x - y| < kappa sqrt(t)."""
    return _distances(x, y) < kappa * np.sqrt(t)


def _sharp_terms(x, y, t):
    """(-(1/2) log t, (x-y)^2, x^2 + y^2), the terms of both quadratic_sharp branches."""
    return -0.5 * _libm(math.log, t), _square(x - y), x * x + y * y


def _dirichlet_factor(epsilon: float, t) -> np.ndarray:
    """The factor 1 - 2 e^{-eps^2/t} of the dirichlet_interval family, > 0 where t < eps^2 / ln 2;
    ParameterError if eps^2 overflows."""
    try:
        square = epsilon**2
    except OverflowError:
        raise ParameterError(f"dirichlet_interval needs a finite epsilon**2, got epsilon = {epsilon:g}") from None
    return 1.0 - 2.0 * _libm(math.exp, -square / t)


def _dirichlet_log(epsilon: float, x, y, t, log_c: float = 0.0):
    """log C + shape of the dirichlet_interval family (the shape alone at log_c = 0);
    -inf where the factor 1 - 2 e^{-eps^2/t} clamps at zero."""
    factor = _dirichlet_factor(epsilon, t)
    log_factor = _libm(math.log, np.where(factor > 0.0, factor, 1.0))
    shape = log_c - 0.5 * _libm(math.log, t) - _square(x - y) / (4.0 * t) + log_factor
    return np.where(factor > 0.0, shape, -math.inf)


@np.errstate(all="ignore")
def log_envelope(V, env: BoundEnvelope, x, y, t) -> np.ndarray:
    """log of any envelope family at each point (x[i], y[i], t[i]).

    x, y and t hold one number per point, in three 1-D arrays of one length.

    gaussian_upper      c0 t^{-1/2} exp(-c2 |x-y|^2 / t)
    avg_upper           c0 t^{-1/2} e^{-c2 |x-y|^2/t} exp{-c1 sqrt(m_beta(t avg_x))}
    symmetrized_upper   c0 t^{-1/2} e^{-c1 |x-y|^2/t} exp{-c2 [sqrt(m_beta(t avg_x)) + sqrt(m_beta(t avg_y))]}
    quadratic_sharp     t <= 1: t^{-1/2} exp(-c0 |x-y|^2/t - c1 t (x^2+y^2)),
                        t > 1: exp(-c2 t - c3 (x^2+y^2)); no continuity is imposed at t = 1
    avg_lower_near/far  near (|x-y| < kappa sqrt(t)): c0 t^{-1/2} exp{-c1 t avg_x}
                        far: c0 t^{-1/2} e^{-c3 |x-y|^2/t} exp{-c1 t c2^{|x-y|^2/t} avg'_x}
    dirichlet_interval  (C / sqrt(t)) e^{-|x-y|^2/4t} (1 - 2 e^{-eps^2/t}), clamped at zero

    avg_x is the mean of V over the cube of side sqrt(t) at x, avg'_x over the
    side t/|x-y|.  The Dirichlet comparison needs 0 < C < 1, and holds when
    (x - eps, y + eps) sits inside the interval (caller's responsibility).
    """
    x, y, t = (np.asarray(a, dtype=float) for a in (x, y, t))
    if not (t.ndim == 1 and x.shape == y.shape == t.shape):
        raise ParameterError(f"need one x, y and t per point, got shapes {x.shape}, {y.shape} and {t.shape}")
    _check_envelope(env, x, y, t)
    family = env.family
    if family in ("gaussian_upper", "avg_upper", "symmetrized_upper"):
        d2 = _square(_distances(x, y))
        if family == "gaussian_upper":
            return _log_gaussian(env.c0, t, env.c2, d2)
        both = family == "symmetrized_upper"
        c_gauss, c_decay = (env.c1, env.c2) if both else (env.c2, env.c1)
        decay = _upper_decay(V, env.beta, x, y if both else None, t)
        return _log_gaussian(env.c0, t, c_gauss, d2) - c_decay * decay
    if family == "quadratic_sharp":
        shape, d2, s = _sharp_terms(x, y, t)
        return np.where(t <= 1.0, shape - env.c0 * d2 / t - env.c1 * t * s, -env.c2 * t - env.c3 * s)
    if family in ("avg_lower_near", "avg_lower_far"):
        base, log_d = _lower_terms(V, env.c0, env.c2, env.c3, _near(env.kappa, x, y, t), x, _distances(x, y), t)
        log_decay = math.log(env.c1) + log_d
        return np.where(log_decay > 700.0, -math.inf, base - _libm(math.exp, np.minimum(log_decay, 700.0)))
    return _dirichlet_log(env.epsilon, x, y, t, math.log(env.C))


def _check_envelope(env: BoundEnvelope, x, y, t) -> None:
    """Raise ParameterError unless every t > 0 and env has the constants its family reads (c2, c3 at far points)."""
    if not np.all(t > 0):
        raise ParameterError("time must be > 0")
    _, option, _, constants, _, _ = FAMILY_TABLE[env.family]
    if option == "kappa" and env.kappa is not None and not np.all(_near(env.kappa, x, y, t)):
        constants += ("c2", "c3")
    for name in constants:
        if getattr(env, name) is None:
            raise ParameterError(f"family {env.family} needs constant {name}")
    if "C" in constants and not 0.0 < env.C < 1.0:
        raise ParameterError(f"{env.family} needs C in (0, 1), got {env.C}")


# ---------------------------------------------------------------------------
# chained lower bound


@dataclass(frozen=True)
class ChainPlan:
    """Waypoints on the line for the far-regime chaining construction.

    M is the smallest integer with 256 |y-x|^2 / t < M, which makes the
    waypoint spacing |y-x|/M < (1/16) sqrt(t/M).  A plan holds numbers only,
    so equal plans compare and hash equal; waypoints, the (M+1,) array of
    equally spaced points from x to y, is computed afresh on each read.
    """

    x: float
    y: float
    t: float
    M: int
    sigma: float

    @property
    def waypoints(self) -> np.ndarray:
        return self.x + np.linspace(0.0, 1.0, self.M + 1) * (self.y - self.x)

    @property
    def cube_side(self) -> float:
        return self.sigma * math.sqrt(self.t / self.M)

    @property
    def spacing(self) -> float:
        return abs(self.x - self.y) / self.M

    @property
    def sigma_bound(self) -> float:
        """The sigma below which the cubes of adjacent waypoints are close enough:
        spacing / sqrt(t/M) + sigma < 1/8."""
        return 0.125 - self.spacing / math.sqrt(self.t / self.M)


# A plan's waypoints are an (M+1,) array, 8 MB at the cap.
MAX_CHAIN_M = 1_000_000


def chain_length(x, y, t: float) -> int:
    """M, the smallest integer above 256 |x-y|^2 / t: the number of chain links.

    Raises ParameterError, naming the estimate, when M would exceed MAX_CHAIN_M.
    """
    r = abs(x - y)
    ratio = 256.0 * r * r / t
    if not ratio < MAX_CHAIN_M:
        raise ParameterError(f"the chain needs M = {ratio:.6g} links, above the cap of {MAX_CHAIN_M}")
    return int(math.floor(ratio)) + 1


def chain_plan(x, y, t: float, sigma: float | None = None) -> ChainPlan:
    """Partition the x-to-y segment for semigroup chaining.

    The M arithmetic (`chain_length`) is well defined for any separation up
    to MAX_CHAIN_M links; the chaining argument itself targets the far regime
    |x-y| >= sqrt(t)/8 (near-regime callers normally want the
    avg_lower_near family instead).  sigma defaults to 1/16, the largest
    value for which points of adjacent cubes are always closer than
    (1/8) sqrt(t/M), as 256 |x-y|^2 / t < M; a given one must stay below the
    plan's `sigma_bound`, which rounds to 1/16 where that ratio is just below M.
    """
    if not t > 0:
        raise ParameterError("time must be > 0")
    x, y = float(x), float(y)
    plan = ChainPlan(x=x, y=y, t=t, M=chain_length(x, y, t), sigma=1.0 / 16.0 if sigma is None else sigma)
    if not 0.0 < plan.sigma < 1.0:
        raise ParameterError("sigma must lie in (0, 1)")
    if sigma is not None and not sigma < (bound := plan.sigma_bound):
        raise ParameterError(f"sigma={sigma} violates the adjacent-cube condition; need sigma < {bound:.6g} here")
    return plan


def chained_lower_bound(V: Potential, plan: ChainPlan, c0: float, c1: float) -> float:
    """log of the near lower bound c0 s^{-1/2} e^{-c1 s avg_{sqrt(s)}} chained over the plan's M links, s = t/M.

    log p >= (M-1) log(sigma sqrt(s)) + M (log c0 - (1/2) log s) - c1 s (1+sigma) sum_{i<M} avg_i,
    the n-dimensional bound at n = 1, with avg_i the mean of V over the side-(1+sigma) sqrt(s) cube at
    waypoint i: that cube holds the side-sqrt(s) cube at each z of the side-sigma sqrt(s) one, so V >= 0
    bounds the near bound's mean at z by (1+sigma) avg_i.  The value is typically astronomically small
    (log of order -M); that is the expected behavior of the construction, not an error.
    """
    if not (c0 > 0 and c1 > 0):
        raise ParameterError("constants must be > 0")
    M, sigma, s = plan.M, plan.sigma, plan.t / plan.M
    logv = (M - 1) * math.log(plan.cube_side) + M * (math.log(c0) - 0.5 * math.log(s))
    avgs = cube_averages(V, plan.waypoints[:-1], (1.0 + sigma) * math.sqrt(s))
    with np.errstate(over="ignore"):  # a sum past the largest float gives the bound -inf, which holds
        return logv - c1 * s * (1.0 + sigma) * float(np.sum(avgs))


# ---------------------------------------------------------------------------
# energy-form and local-boundedness ratios


def energy_test_family(center: float, side: float, count: int = 50) -> tuple[np.ndarray, np.ndarray]:
    """(nodes, values[count, 129]): a deterministic lattice of hats, quadratic bumps and Gaussians on a cube.

    Row k samples, at the 129 nodes spanning the cube (center, side), a hat, bump or Gaussian (k % 3) of
    width 0.15 + 0.25 ((k // 7) % 3) sides about the point ((k % 7) + 1/2)/7 of the way across, jittered by
    up to 0.02 side from a generator of fixed seed 0: no row is 0, and repeated runs are reproducible.
    """
    center, side = checked_cube(center, side)
    lo, hi = center - side / 2.0, center + side / 2.0
    grid = np.linspace(lo, hi, 129)
    k = np.arange(count)[:, None]
    middle = lo + (k % 7 + 0.5) / 7.0 * side + np.random.default_rng(0).uniform(-0.02, 0.02, (count, 1)) * side
    u = (grid - middle) / ((0.15 + 0.25 * (k // 7 % 3)) * side)
    shapes = (np.clip(1.0 - np.abs(u), 0.0, None), np.clip(1.0 - u**2, 0.0, None), np.exp(-0.5 * u**2))
    return grid, np.choose(k % 3, shapes)


def fefferman_phong_ratio(V: Potential, xs, values, center: float, side: float, beta: float) -> np.ndarray:
    """Energy-form ratio  int(|u'|^2 + V u^2) / [ (m_beta(r^2 avg V)/r^2) int u^2 ]  of each row of values.

    r is the side of the cube (center, side) and avg V the mean of V over it.
    Each row holds one test function's values at the nodes xs.  The energy
    inequality asserts this is bounded below by a positive constant uniform
    over C^1 test functions; u is its own piecewise-linear interpolant here,
    so the gradient and mass integrals are exact.
    """
    xs = np.asarray(xs, dtype=float)
    vals = np.atleast_2d(np.asarray(values, dtype=float))
    if len(xs) < 2 or vals.shape[1] != len(xs):
        raise ParameterError("test functions need values at the same >= 2 nodes")
    dx = np.diff(xs)
    dv = np.diff(vals, axis=1)
    grad_energy = np.sum(dv * dv / dx, axis=1)
    mass = np.sum(dx / 3.0 * (vals[:, :-1] ** 2 + vals[:, :-1] * vals[:, 1:] + vals[:, 1:] ** 2), axis=1)
    if np.any(mass <= 0.0):
        raise ParameterError("test function has zero L2 mass")
    # 5-point Gauss-Legendre per cell for the V u^2 term
    nodes, weights = np.polynomial.legendre.leggauss(5)
    mid = 0.5 * (xs[:-1] + xs[1:])
    half = 0.5 * dx
    pts = mid[:, None] + half[:, None] * nodes
    uu = vals[:, :-1, None] + (pts - xs[:-1, None]) * (dv / dx)[:, :, None]
    pot_energy = np.sum(half[:, None] * weights * np.asarray(V(pts)) * uu * uu, axis=(1, 2))
    r = float(side)
    weight = m_beta(r * r * cube_average(V, center, side), beta) / (r * r)
    if weight <= 0.0:
        raise ParameterError("potential average vanishes; ratio undefined")
    return (grad_energy + pot_energy) / (weight * mass)


def moser_ratio(log_kernel: Callable[..., np.ndarray], y: float, x0: float, t0: float, r: float) -> float:
    """sup over the r/2 cylinder of u divided by its scaled L2 norm, for u = p(., y, .).

    ratio = sup_{Q_{r/2}} u / ( (1/r^{n+2}) iint_{Q_{2r/3}} u^2 )^{1/2},
    with Q_rho(x0, t0) = (x0-rho, x0+rho) x (t0-rho^2, t0) and n = 1.
    log_kernel(xs, ys, ts) returns log p shaped [t, x, y]; each cylinder's
    MOSER_NODES x MOSER_NODES lattice is one call, and the L2 norm is
    Simpson's rule on it.  Local boundedness of nonnegative solutions makes
    this uniformly bounded over cylinders where u solves the heat equation
    on the double cylinder, hence the precondition t0 - 4 r^2 > 0.
    """
    from scipy.integrate import simpson

    if not (r > 0 and t0 - 4.0 * r * r > 0.0):
        raise ParameterError("cylinder needs r > 0 and t0 - 4 r^2 > 0")

    def u(xs, ts):  # [x, t]
        return np.exp(log_kernel(xs, [y], ts)[:, :, 0]).T

    half = 0.5 * r
    xs = np.linspace(x0 - half, x0 + half, MOSER_NODES)
    ts = np.linspace(t0 - half * half, t0, MOSER_NODES)
    sup = float(np.max(u(xs, ts)))
    rho = 2.0 * r / 3.0
    xs2 = np.linspace(x0 - rho, x0 + rho, MOSER_NODES)
    ts2 = np.linspace(t0 - rho * rho, t0, MOSER_NODES)
    vals = u(xs2, ts2) ** 2
    inner = simpson(vals, x=ts2, axis=1)
    integral = float(simpson(inner, x=xs2))
    if integral <= 0.0:
        raise ParameterError("vanishing L2 mass on the comparison cylinder")
    return sup / math.sqrt(integral / r**3)


# ---------------------------------------------------------------------------
# constant fitting


@dataclass(frozen=True, eq=False)  # array records have no single truth value, so == is identity
class FitResult:
    envelope: BoundEnvelope
    feasible: bool
    min_slack: float
    witness: tuple | None
    records: tuple = ()  # columns x, y, t, log_p, log_env, slack: float arrays, one entry per point


def _least(q: np.ndarray):
    """(value, index) of q's first least entry, as a strict `<` scan from +inf finds it: (inf, None) if none."""
    q = np.where(q < math.inf, q, math.inf)
    i = int(np.argmin(q))
    return (float(q[i]), i) if q[i] < math.inf else (math.inf, None)


def grid_columns(xs: Sequence[float], ys: Sequence[float], ts: Sequence[float]):
    """(x, y, t) of every grid point as three float arrays, in the grid's one order: x-major, t fastest."""
    return tuple(a.ravel() for a in np.meshgrid(*(np.asarray(v, dtype=float) for v in (xs, ys, ts)), indexing="ij"))


def grid_points(xs: Sequence[float], ys: Sequence[float], ts: Sequence[float]):
    """All (x, y, t) triples, as tuples of floats in the order of `grid_columns`."""
    return list(zip(*(a.tolist() for a in grid_columns(xs, ys, ts))))


def grid_samples(xs: Sequence[float], ys: Sequence[float], ts: Sequence[float], log_p):
    """(x, y, t, log p) in the order of `grid_points`, from log_p shaped [t, x, y]
    as the engines' `log_kernel(xs, ys, ts)` returns it."""
    values = np.asarray(log_p, dtype=float).transpose(1, 2, 0).ravel().tolist()
    pts = grid_points(xs, ys, ts)
    if len(values) != len(pts):
        raise ParameterError(f"{len(values)} kernel values for {len(pts)} grid points")
    return [pt + (lp,) for pt, lp in zip(pts, values)]


@np.errstate(all="ignore")
def fit_constants(
    V: Potential,
    samples,
    family: str,
    *,
    beta: float | None = None,
    kappa: float | None = None,
    epsilon: float | None = None,
) -> FitResult:
    """Fit the free envelope constants against kernel samples.

    samples is an iterable of (x, y, t, log p) tuples of numbers, as
    `grid_samples` makes them, read once into one N x 4 array; a time <= 0 or
    a NaN log p is refused, and so is a family option left out without a
    default in FAMILY_TABLE, or one that leaves no point to fit (`fit_mask`).
    Upper families fix c0 = 2 (4 pi)^{-1/2} and Gaussian coefficient 1/8, then
    take the decay coefficient as the infimum of admissible values over the
    grid (clipped at C_FLOOR), a masked min of one quotient array; lower
    families mirror this with a max and a safety prefactor c0 = (4 pi)^{-1/2} / 2.
    FEASIBLE means every fitted constant came out strictly positive and no grid
    point violates the bound.  A lower slack where kernel and envelope are both
    exact zeros is 0.
    """
    if family not in FAMILIES:
        raise ParameterError(f"unknown envelope family {family!r}")
    bound, option, default, _, fit, _ = FAMILY_TABLE[family]
    pts = list(samples)
    if not pts:
        raise ParameterError("empty sample grid")
    try:
        if set(map(len, pts)) != {4}:
            raise ValueError
        x, y, t, lp = np.fromiter(itertools.chain.from_iterable(pts), float, 4 * len(pts)).reshape(-1, 4).T
    except (TypeError, ValueError):
        raise ParameterError("samples must be (x, y, t, log_p) tuples of numbers") from None
    if not np.all(t > 0):
        raise ParameterError("time must be > 0")
    if np.isnan(lp).any():
        raise ParameterError(f"log p is NaN at (x, y, t) = {tuple(pts[int(np.argmax(np.isnan(lp)))][:3])}")
    if (value := {"beta": beta, "kappa": kappa, "epsilon": epsilon}.get(option)) is None:
        value = default
    if option is not None and value is None:
        raise ParameterError(f"{family} fit needs {option}")

    env, ok, blame, sel = fit(V, family, value, x, y, t, lp, fit_mask(family, value, x, y, t))
    at = np.flatnonzero(sel)
    x, y, t, lp = x[at], y[at], t[at], lp[at]
    log_env = log_envelope(V, env, x, y, t)
    if bound == "upper":
        slack = np.where(lp > -math.inf, log_env - lp, math.inf)
    else:
        slack = np.where(log_env > -math.inf, lp - log_env, np.where(lp > -math.inf, math.inf, 0.0))
    min_slack, i = _least(slack)
    if blame is None and i is not None:
        blame = at[i]
    witness = None if blame is None else tuple(pts[blame][:3])
    return FitResult(env, bool(ok and min_slack >= -1e-12), min_slack, witness, (x, y, t, lp, log_env, slack))


@np.errstate(all="ignore")
def fit_mask(family: str, value, x, y, t) -> np.ndarray:
    """The points (x[i], y[i], t[i]) that family fits at its option's value, as a bool array;
    ParameterError, giving the bound that leaves none, if there are none."""
    _, option, _, _, _, mask = FAMILY_TABLE[family]
    if mask is None:
        return np.ones(t.shape, dtype=bool)
    keep = mask(value, x, y, t)
    if keep.any():
        return keep
    if option == "kappa":  # near: |x - y| / sqrt(t) < kappa, far: >= kappa
        name, q = "|x - y| / sqrt(t)", _distances(x, y) / np.sqrt(t)
    else:  # usable: epsilon > sqrt(t ln 2)
        name, q = "sqrt(t ln 2)", np.sqrt(t * math.log(2.0))
    raise ParameterError(f"{family} fits no point at {option} = {value:g}: {name} is in [{q.min():.6g}, {q.max():.6g}]")


def fit_options(env: BoundEnvelope) -> dict:
    """The keyword of `fit_constants` that env's family reads, with env's value; {} if it reads none."""
    option = FAMILY_TABLE[env.family][1]
    return {} if option is None else {option: getattr(env, option)}


def _fit_gaussian(V, family, value, x, y, t, lp, keep):
    """gaussian_upper: nothing to fit."""
    return BoundEnvelope(family=family, c0=C0_UPPER, c2=0.125), True, None, keep


def _fit_decay(V, family, beta, x, y, t, lp, keep):
    """avg_upper / symmetrized_upper: the decay coefficient is the least (base - log p) / decay, the witness if <= 0."""
    both = family == "symmetrized_upper"
    at = np.flatnonzero(lp != -math.inf)  # a vanishing kernel bounds nothing
    decay = _upper_decay(V, beta, x[at], y[at] if both else None, t[at])
    base = _log_gaussian(C0_UPPER, t[at], 0.125, _square(_distances(x[at], y[at])))
    quotient = np.full(len(lp), math.inf)
    quotient[at] = np.where(decay > 0.0, (base - lp[at]) / decay, math.inf)
    least, i = _least(quotient)
    ok = i is None or least > 0.0  # no quotient: the decay never bites
    cdecay = max(least if i is not None else 1.0, C_FLOOR)
    c1, c2 = (0.125, cdecay) if both else (cdecay, 0.125)
    env = BoundEnvelope(family=family, c0=C0_UPPER, c1=c1, c2=c2, beta=beta)
    return env, ok, None if ok else i, keep


def _fit_quadratic_sharp(V, family, value, x, y, t, lp, keep):
    """Two stages per branch: c0 takes half of the small-t budget, c1 the rest; c2 then c3 likewise."""
    shape, d2, s = _sharp_terms(x, y, t)
    budget = shape - lp
    small, large = (lp > -math.inf) & (t <= 1.0), (lp > -math.inf) & ~(t <= 1.0)

    def least(where, quotients, default):
        lowest = float(np.min(quotients[where])) if where.any() else None
        return (default, True) if lowest is None else (max(lowest, C_FLOOR), lowest > 0)

    c0, ok0 = least(small & (d2 > 0), budget * t / d2 / 2.0, 0.125)
    c1, ok1 = least(small & (s > 0), (budget - c0 * d2 / t) / (t * s), 1.0)
    c2, ok2 = least(large, -lp / t / 2.0, 1.0)
    c3, ok3 = least(large & (s > 0), (-lp - c2 * t) / s, 1.0)
    env = BoundEnvelope(family=family, c0=c0, c1=c1, c2=c2, c3=c3)
    return env, ok0 and ok1 and ok2 and ok3, None, keep


def _fit_lower(V, family, kappa, x, y, t, lp, keep):
    """avg_lower_near / avg_lower_far, fitted and recorded on their regime: c1 is the largest (base - log p) / D."""
    near = family == "avg_lower_near"
    c0, c2, c3 = C0_LOWER, 2.0, 0.5
    base, log_d = _lower_terms(V, c0, c2, c3, np.full(keep.sum(), near), x[keep], _distances(x, y)[keep], t[keep])
    lp = lp[keep]
    use = (lp > -math.inf) & (log_d > -math.inf) & (log_d <= 700.0)
    quotients = (base[use] - lp[use]) / _libm(math.exp, log_d[use])
    c1 = max(float(quotients.max()) if quotients.size else 0.0, C_FLOOR)
    far = {} if near else {"c2": c2, "c3": c3}
    return BoundEnvelope(family=family, c0=c0, c1=c1, kappa=kappa, **far), True, None, keep


def _fit_dirichlet(V, family, epsilon, x, y, t, lp, keep):
    """dirichlet_interval, recorded on every point: C is the least p / exp(shape), capped at 0.99."""
    shape = _dirichlet_log(epsilon, x, y, t)
    use = (shape > -math.inf) & (lp > -math.inf)
    if not use.any():
        raise ParameterError("no usable grid points for the Dirichlet fit")
    c_raw = float(np.min(_libm(math.exp, np.minimum(lp[use] - shape[use], 700.0))))
    C = min(c_raw, 0.99) if c_raw > 0.0 else C_FLOOR
    return BoundEnvelope(family=family, epsilon=epsilon, C=C), c_raw > 0.0, None, np.ones_like(keep)


# Every envelope family, declared once, as (bound, option, default, constants, fit, mask):
#   bound      "upper" or "lower";
#   option     the one keyword its fit and its config entry take, or None; default, its value when
#              left out, or None if it is required;
#   constants  what its envelope reads, in the order a missing one is named (c2, c3 too at far points);
#   fit        fit(V, family, value, x, y, t, log p, keep) -> (envelope, admissible, witness index or
#              None, the points recorded), where keep is what mask(value, x, y, t) selects (all if None).
FAMILY_TABLE = {
    "gaussian_upper": ("upper", None, None, ("c0", "c2"), _fit_gaussian, None),
    "avg_upper": ("upper", "beta", None, ("c0", "c1", "c2", "beta"), _fit_decay, None),
    "symmetrized_upper": ("upper", "beta", None, ("c0", "c1", "c2", "beta"), _fit_decay, None),
    "quadratic_sharp": ("upper", None, None, ("c0", "c1", "c2", "c3"), _fit_quadratic_sharp, None),
    "avg_lower_near": ("lower", "kappa", 0.125, ("kappa", "c0", "c1"), _fit_lower, _near),
    "avg_lower_far": ("lower", "kappa", 0.125, ("kappa", "c0", "c1"), _fit_lower, lambda *a: ~_near(*a)),
    "dirichlet_interval": (
        "lower", "epsilon", None, ("epsilon", "C"), _fit_dirichlet, lambda eps, x, y, t: _dirichlet_factor(eps, t) > 0.0
    ),
}
FAMILIES = tuple(FAMILY_TABLE)
