"""Bound envelopes, envelope fitting, chained lower bounds, and inequality checks.

Every envelope evaluates in log-space.  The theory only asserts that
positive constants exist; `fit_constants` turns that into a checkable
statement by fitting the free constant against a computed kernel on a grid
and reporting feasibility plus per-point slack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import ParameterError
from .potentials import Cube, Potential, cube_average, m_beta

# The floor a fitted constant is clipped to, so that every envelope stays valid.
C_FLOOR = 1e-9
# Lattice points per axis of each `moser_ratio` cylinder; odd, as Simpson's rule wants.
MOSER_NODES = 41

UPPER_FAMILIES = ("gaussian_upper", "avg_upper", "symmetrized_upper", "quadratic_sharp")
LOWER_FAMILIES = ("avg_lower_near", "avg_lower_far", "dirichlet_interval", "dirichlet_ball")
FAMILIES = UPPER_FAMILIES + LOWER_FAMILIES

__all__ = [
    "BoundEnvelope",
    "FitResult",
    "ChainPlan",
    "interval_clamp_time",
    "MAX_CHAIN_M",
    "chain_length",
    "chain_plan",
    "chain_sigma_bound",
    "chained_lower_bound",
    "fefferman_phong_ratio",
    "energy_test_family",
    "moser_ratio",
    "evaluate_envelope",
    "fit_constants",
    "grid_points",
    "grid_samples",
    "FAMILIES",
    "UPPER_FAMILIES",
    "LOWER_FAMILIES",
]


@dataclass(frozen=True)
class BoundEnvelope:
    """Envelope family plus its constants.

    Which constants matter depends on the family; the ones present must be
    strictly positive, with beta in (0, 1] and kappa in (0, 1).
    """

    family: str
    n: int = 1
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

    def _need(self, *names):
        for name in names:
            if getattr(self, name) is None:
                raise ParameterError(f"family {self.family} needs constant {name}")


def _dist(x, y) -> float:
    if isinstance(x, float) and isinstance(y, float):
        # the same IEEE operations as the array path on one coordinate
        dx = x - y
        return math.sqrt(dx * dx)
    dx = np.atleast_1d(np.asarray(x, dtype=float)) - np.atleast_1d(np.asarray(y, dtype=float))
    return float(np.sqrt(np.sum(dx * dx)))


# Each family's log-envelope is written once, in the helpers below;
# `evaluate_envelope` and `fit_constants` both call them.


def _log_gaussian(c0: float, n: int, t: float, c: float = 0.0, d2: float = 0.0) -> float:
    """log c0 - (n/2) log t - c |x-y|^2 / t, with d2 = |x-y|^2."""
    return math.log(c0) - 0.5 * n * math.log(t) - c * d2 / t


def _upper_decay(V: Potential, beta: float, x, y, t: float) -> float:
    """sqrt(m_beta(t avg_x)), plus the same at y unless y is None.

    The averages are over the cubes of side sqrt(t) centered at the points.
    """
    side = math.sqrt(t)
    decay = math.sqrt(m_beta(t * cube_average(V, Cube(x, side)), beta))
    if y is not None:
        decay += math.sqrt(m_beta(t * cube_average(V, Cube(y, side)), beta))
    return decay


def _is_near(kappa: float, d: float, t: float) -> bool:
    """The averaged lower envelope's branch test |x-y| < kappa sqrt(t)."""
    return d < kappa * math.sqrt(t)


def _lower_terms(V: Potential, n: int, c0: float, c2, c3, near: bool, x, d: float, t: float):
    """(base, log D) of the averaged lower envelope, whose log is base - c1 D.

    near: base = log c0 - (n/2) log t,                D = t avg_{sqrt(t)}(x)
    far:  base = log c0 - (n/2) log t - c3 |x-y|^2/t, D = t c2^{|x-y|^2/t} avg_{t/|x-y|}(x)
    A vanishing average gives D = 0, log D = -inf.
    """
    if near:
        base, avg = _log_gaussian(c0, n, t), cube_average(V, Cube(x, math.sqrt(t)))
        return base, math.log(t * avg) if avg > 0.0 else -math.inf
    base, avg = _log_gaussian(c0, n, t, c3, d * d), cube_average(V, Cube(x, t / d))
    if avg <= 0.0:
        return base, -math.inf
    return base, math.log(t) + (d * d / t) * math.log(c2) + math.log(avg)


def _sharp_terms(x: float, y: float, t: float):
    """(-(1/2) log t, (x-y)^2, x^2 + y^2), the terms of both quadratic_sharp branches."""
    return -0.5 * math.log(t), (x - y) ** 2, x * x + y * y


def _dirichlet_log(family: str, n: int, epsilon: float, x, y, t: float, log_c: float = 0.0) -> float:
    """log C + shape of a Dirichlet comparison family; the shape alone at log_c = 0.

    -inf where the interval factor 1 - 2 e^{-eps^2/t} clamps at zero.
    """
    if family == "dirichlet_interval":
        factor = 1.0 - 2.0 * math.exp(-(epsilon**2) / t)
        if factor <= 0.0:
            return -math.inf
        return log_c - 0.5 * math.log(t) - (x - y) ** 2 / (4.0 * t) + math.log(factor)
    d2 = _dist(x, y) ** 2
    return log_c - 0.5 * n * math.log(t) - math.pi**2 * n**2 * t / (4.0 * epsilon**2) - d2 / (4.0 * t)


def interval_clamp_time(epsilon: float) -> float:
    """Time beyond which the interval lower bound clamps to zero."""
    return epsilon**2 / math.log(2.0)


def evaluate_envelope(V, env: BoundEnvelope, x, y, t) -> float:
    """log of any envelope family at one point.

    gaussian_upper      c0 t^{-n/2} exp(-c2 |x-y|^2 / t)
    avg_upper           c0 t^{-n/2} e^{-c2 |x-y|^2/t} exp{-c1 sqrt(m_beta(t avg_x))}
    symmetrized_upper   c0 t^{-n/2} e^{-c1 |x-y|^2/t} exp{-c2 [sqrt(m_beta(t avg_x)) + sqrt(m_beta(t avg_y))]}
    quadratic_sharp     n = 1; t <= 1: t^{-1/2} exp(-c0 |x-y|^2/t - c1 t (x^2+y^2)),
                        t > 1: exp(-c2 t - c3 (x^2+y^2)); no continuity is imposed at t = 1
    avg_lower_near/far  near (|x-y| < kappa sqrt(t)): c0 t^{-n/2} exp{-c1 t avg_x}
                        far: c0 t^{-n/2} e^{-c3 |x-y|^2/t} exp{-c1 t c2^{|x-y|^2/t} avg'_x}
    dirichlet_interval  (C / sqrt(t)) e^{-|x-y|^2/4t} (1 - 2 e^{-eps^2/t}), clamped at zero
    dirichlet_ball      n >= 2; (C / t^{n/2}) e^{-pi^2 n^2 t / 4 eps^2} e^{-|x-y|^2 / 4t}

    avg_x is the mean of V over the cube of side sqrt(t) at x, avg'_x over the
    side t/|x-y|.  The Dirichlet comparisons need 0 < C < 1, and hold when
    (x - eps, y + eps) sits inside the interval, or the segment from x to y
    stays eps-deep inside the ball (caller's responsibility).
    """
    _check_envelope(env, x, y, t)
    return _log_envelope(V, env, x, y, t)


def _check_envelope(env: BoundEnvelope, x, y, t) -> None:
    """Raise ParameterError unless t > 0 and env has what its family needs (at a far point: c2, c3)."""
    if not t > 0:
        raise ParameterError("time must be > 0")
    family = env.family
    if family == "gaussian_upper":
        env._need("c0", "c2")
    elif family in ("avg_upper", "symmetrized_upper"):
        env._need("c0", "c1", "c2", "beta")
    elif family == "quadratic_sharp":
        env._need("c0", "c1", "c2", "c3")
        if env.n != 1:
            raise ParameterError("quadratic_sharp is one-dimensional")
    elif family in ("avg_lower_near", "avg_lower_far"):
        env._need("kappa")
        env._need(*(("c0", "c1") if _is_near(env.kappa, _dist(x, y), t) else ("c0", "c1", "c2", "c3")))
    else:
        env._need("epsilon", "C")
        if not 0.0 < env.C < 1.0:
            raise ParameterError(f"{family} needs C in (0, 1), got {env.C}")
        if family == "dirichlet_ball" and env.n < 2:
            raise ParameterError("dirichlet_ball needs n >= 2")


def _log_envelope(V, env: BoundEnvelope, x, y, t) -> float:
    """log of the envelope at one point, for an env and a point that `_check_envelope` accepts."""
    family = env.family
    if family in ("gaussian_upper", "avg_upper", "symmetrized_upper"):
        d2 = _dist(x, y) ** 2
        if family == "gaussian_upper":
            return _log_gaussian(env.c0, env.n, t, env.c2, d2)
        both = family == "symmetrized_upper"
        c_gauss, c_decay = (env.c1, env.c2) if both else (env.c2, env.c1)
        decay = _upper_decay(V, env.beta, x, y if both else None, t)
        return _log_gaussian(env.c0, env.n, t, c_gauss, d2) - c_decay * decay
    if family == "quadratic_sharp":
        shape, d2, s = _sharp_terms(x, y, t)
        if t <= 1.0:
            return shape - env.c0 * d2 / t - env.c1 * t * s
        return -env.c2 * t - env.c3 * s
    if family in ("avg_lower_near", "avg_lower_far"):
        d = _dist(x, y)
        near = _is_near(env.kappa, d, t)
        base, log_d = _lower_terms(V, env.n, env.c0, env.c2, env.c3, near, x, d, t)
        log_decay = math.log(env.c1) + log_d
        if log_decay > 700.0:
            return -math.inf
        return base - math.exp(log_decay)
    return _dirichlet_log(family, env.n, env.epsilon, x, y, t, math.log(env.C))


# ---------------------------------------------------------------------------
# chained lower bound


@dataclass(frozen=True)
class ChainPlan:
    """Waypoints for the far-regime chaining construction.

    M is the smallest integer with 256 |y-x|^2 / t < M, which makes the
    waypoint spacing |y-x|/M < (1/16) sqrt(t/M).  waypoints is a read-only
    (M+1, n) array of equally spaced points from x to y.
    """

    x: tuple[float, ...]
    y: tuple[float, ...]
    t: float
    M: int
    waypoints: np.ndarray
    sigma: float

    @property
    def n(self) -> int:
        return len(self.x)

    @property
    def cube_side(self) -> float:
        return self.sigma * math.sqrt(self.t / self.M)

    @property
    def spacing(self) -> float:
        return _dist(self.x, self.y) / self.M

    @property
    def far_regime(self) -> bool:
        """Whether |x-y| >= sqrt(t)/8, the regime the chaining argument targets."""
        return _dist(self.x, self.y) >= math.sqrt(self.t) / 8.0


# A plan holds an (M+1) x n waypoint array, 8 MB per axis at the cap.
MAX_CHAIN_M = 1_000_000


def chain_length(x, y, t: float) -> int:
    """M, the smallest integer above 256 |x-y|^2 / t: the number of chain links.

    Raises ParameterError, naming the estimate, when M would exceed MAX_CHAIN_M.
    """
    r = _dist(x, y)
    ratio = 256.0 * r * r / t
    if not ratio < MAX_CHAIN_M:
        raise ParameterError(f"the chain needs M = {ratio:.6g} links, above the cap of {MAX_CHAIN_M}")
    return int(math.floor(ratio)) + 1


def chain_sigma_bound(x, y, t: float) -> float:
    """The sigma below which the cubes of adjacent waypoints are close enough.

    The condition is spacing / sqrt(t/M) + sigma sqrt(n) < 1/8.
    """
    n = np.size(x)
    M = chain_length(x, y, t)
    spacing_ratio = (_dist(x, y) / M) / math.sqrt(t / M)
    return (0.125 - spacing_ratio) / math.sqrt(n)


def chain_plan(x, y, t: float, sigma: float | None = None) -> ChainPlan:
    """Partition the x-to-y segment for semigroup chaining.

    The M arithmetic (`chain_length`) is well defined for any separation up
    to MAX_CHAIN_M links; the chaining argument itself targets the far regime
    |x-y| >= sqrt(t)/8, exposed as plan.far_regime (near-regime callers
    normally want the avg_lower_near family instead).  sigma defaults to
    1/(16 sqrt(n)), the largest value for which points of adjacent cubes
    are always closer than (1/8) sqrt(t/M); a larger one must stay below
    `chain_sigma_bound`.
    """
    if not t > 0:
        raise ParameterError("time must be > 0")
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    yv = np.atleast_1d(np.asarray(y, dtype=float))
    if xv.shape != yv.shape:
        raise ParameterError("x and y must share a dimension")
    n = len(xv)
    M = chain_length(xv, yv, t)
    if sigma is None:
        sigma = 1.0 / (16.0 * math.sqrt(n))
    if not 0.0 < sigma < 1.0:
        raise ParameterError("sigma must lie in (0, 1)")
    bound = chain_sigma_bound(xv, yv, t)
    if not sigma < bound:
        raise ParameterError(
            f"sigma={sigma} violates the adjacent-cube condition; need sigma < {bound:.6g} here"
        )
    pts = xv[None, :] + np.linspace(0.0, 1.0, M + 1)[:, None] * (yv - xv)[None, :]
    pts.flags.writeable = False
    return ChainPlan(x=tuple(xv), y=tuple(yv), t=t, M=M, waypoints=pts, sigma=sigma)


def chained_lower_bound(
    V: Potential, plan: ChainPlan, c0: float, c1: float, doubling_C: float
) -> float:
    """log of the product of on-diagonal bounds over the chain cubes.

    log p >= log(1/sigma) - (n/2) log t + (n/2) log M + M log(sigma c0)
             - c1 t (C^M  avg of V over the side-sigma*sqrt(t/M) cube at x)

    The doubling constant C transports cube averages along the chain.  The
    value is typically astronomically small (log of order -M); that is the
    expected behavior of the construction, not an error.
    """
    if not (c0 > 0 and c1 > 0 and doubling_C > 0):
        raise ParameterError("constants must be > 0")
    n = plan.n
    logv = -math.log(plan.sigma) - 0.5 * n * math.log(plan.t)
    logv += 0.5 * n * math.log(plan.M) + plan.M * math.log(plan.sigma * c0)
    avg = cube_average(V, Cube(plan.x, plan.cube_side))
    if avg > 0.0:
        log_decay = math.log(c1 * plan.t) + plan.M * math.log(doubling_C) + math.log(avg)
        if log_decay > 700.0:
            return -math.inf
        logv -= math.exp(log_decay)
    return logv


# ---------------------------------------------------------------------------
# energy-form and local-boundedness ratios


def energy_test_family(Z: Cube, count: int = 50, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """(nodes, values[count, 129]): a deterministic lattice of hats, quadratic bumps and Gaussians on Z.

    Each row samples one test function at the 129 nodes spanning Z.  The
    lattice cycles through the three shapes over a grid of centers and
    widths; the seed only jitters the lattice slightly so repeated runs are
    reproducible.
    """
    if Z.n != 1:
        raise ParameterError("test functions are one-dimensional")
    lo, hi = Z.bounds(0)
    grid = np.linspace(lo, hi, 129)
    rng = np.random.default_rng(seed)
    out = []
    k = 0
    while len(out) < count:
        frac = (k % 7 + 0.5) / 7.0
        width = (0.15 + 0.25 * ((k // 7) % 3)) * Z.side
        center = lo + frac * Z.side + rng.uniform(-0.02, 0.02) * Z.side
        kind = k % 3
        if kind == 0:
            vals = np.clip(1.0 - np.abs(grid - center) / width, 0.0, None)
        elif kind == 1:
            vals = np.clip(1.0 - ((grid - center) / width) ** 2, 0.0, None)
        else:
            vals = np.exp(-0.5 * ((grid - center) / width) ** 2)
        if np.max(vals) > 0:
            out.append(vals)
        k += 1
    return grid, np.array(out)


def fefferman_phong_ratio(V: Potential, xs, values, Z: Cube, beta: float) -> np.ndarray:
    """Energy-form ratio  int(|u'|^2 + V u^2) / [ (m_beta(r^2 avg V)/r^2) int u^2 ]  of each row of values.

    Each row holds one test function's values at the nodes xs.  The energy
    inequality asserts this is bounded below by a positive constant uniform
    over C^1 test functions; u is its own piecewise-linear interpolant here,
    so the gradient and mass integrals are exact.
    """
    if Z.n != 1:
        raise ParameterError("ratio check is one-dimensional")
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
    r = Z.side
    weight = m_beta(r * r * cube_average(V, Z), beta) / (r * r)
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


@dataclass
class FitResult:
    envelope: BoundEnvelope
    feasible: bool
    min_slack: float
    witness: tuple | None
    records: list = field(default_factory=list)  # (x, y, t, log_p, log_env, slack)


def grid_points(xs: Sequence[float], ys: Sequence[float], ts: Sequence[float]):
    """All (x, y, t) triples in deterministic x-major order."""
    return [(float(x), float(y), float(t)) for x in xs for y in ys for t in ts]


def grid_samples(xs: Sequence[float], ys: Sequence[float], ts: Sequence[float], log_p):
    """(x, y, t, log p) in the x-major order of `grid_points`.

    log_p is a kernel evaluated on the grid, shaped [t, x, y] as the
    engines' `log_kernel(xs, ys, ts)` returns it.
    """
    values = np.asarray(log_p, dtype=float).transpose(1, 2, 0).ravel().tolist()
    pts = grid_points(xs, ys, ts)
    if len(values) != len(pts):
        raise ParameterError(f"{len(values)} kernel values for {len(pts)} grid points")
    return [pt + (lp,) for pt, lp in zip(pts, values)]


def fit_constants(
    V: Potential,
    samples,
    family: str,
    *,
    n: int = 1,
    beta: float | None = None,
    kappa: float | None = None,
    epsilon: float | None = None,
) -> FitResult:
    """Fit the free envelope constants against kernel samples.

    samples is an iterable of (x, y, t, log p), read once, as `grid_samples`
    makes them from one evaluation of the grid.
    Upper families fix c0 = 2 (4 pi)^{-n/2} and Gaussian coefficient 1/8,
    then take the decay coefficient as the infimum of admissible values
    over the grid (clipped at C_FLOOR); lower families mirror this with a
    supremum and a safety prefactor c0 = (4 pi)^{-n/2} / 2.  FEASIBLE means
    every fitted constant came out strictly positive and no grid point
    violates the bound.  Every record's log_env is `evaluate_envelope` of
    the fitted envelope, whose checks run once per fit; a lower slack where
    kernel and envelope are both exact zeros is 0.
    """
    if family not in FAMILIES:
        raise ParameterError(f"unknown envelope family {family!r}")
    pts = [tuple(s) for s in samples]
    if not pts:
        raise ParameterError("empty sample grid")
    if any(len(p) != 4 for p in pts):
        raise ParameterError("samples must be (x, y, t, log_p) tuples")
    if not all(p[2] > 0 for p in pts):
        raise ParameterError("time must be > 0")

    c0_upper = 2.0 * (4.0 * math.pi) ** (-0.5 * n)
    sel, ok, blame = pts, True, None  # points recorded, constants admissible, witness overriding the slack's
    if family == "gaussian_upper":
        env = BoundEnvelope(family=family, n=n, c0=c0_upper, c2=0.125)
    elif family in ("avg_upper", "symmetrized_upper"):
        env, ok, blame = _fit_decay(V, family, pts, n, c0_upper, beta)
    elif family == "quadratic_sharp":
        env, ok = _fit_quadratic_sharp(pts)
    elif family in ("avg_lower_near", "avg_lower_far"):
        env, sel = _fit_lower_c1(V, family, pts, n, kappa)
    else:
        env, ok = _fit_dirichlet_C(family, pts, n, epsilon)

    _check_envelope(env, *sel[0][:3])  # sel's points share a branch: one check covers them all
    upper = family in UPPER_FAMILIES
    records = []
    min_slack, witness = math.inf, None
    for x, y, t, lp in sel:
        le = _log_envelope(V, env, x, y, t)
        if upper:
            slack = le - lp if lp > -math.inf else math.inf
        else:
            slack = lp - le if le > -math.inf else (math.inf if lp > -math.inf else 0.0)
        records.append((x, y, t, lp, le, slack))
        if slack < min_slack:
            min_slack, witness = slack, (x, y, t)
    return FitResult(env, ok and min_slack >= -1e-12, min_slack, blame or witness, records)


def _fit_decay(V, family, pts, n, c0, beta):
    """avg_upper / symmetrized_upper: the decay coefficient is the least (base - log p) / decay.

    Returns (envelope, admissible, the point of the least quotient when it is <= 0).
    """
    if beta is None:
        raise ParameterError(f"{family} fit needs beta")
    both = family == "symmetrized_upper"
    least, at = math.inf, None
    for x, y, t, lp in pts:
        if lp == -math.inf:
            continue
        decay = _upper_decay(V, beta, x, y if both else None, t)
        if decay > 0.0:
            q = (_log_gaussian(c0, n, t, 0.125, _dist(x, y) ** 2) - lp) / decay
            if q < least:
                least, at = q, (x, y, t)
    ok = at is None or least > 0.0  # no quotient: the decay never bites
    cdecay = max(least if at is not None else 1.0, C_FLOOR)
    c1, c2 = (0.125, cdecay) if both else (cdecay, 0.125)
    env = BoundEnvelope(family=family, n=n, c0=c0, c1=c1, c2=c2, beta=beta)
    return env, ok, None if ok else at


def _fit_quadratic_sharp(pts):
    """Two stages per branch: c0 takes half of the small-t budget, c1 the rest; c2 then c3 likewise."""
    small, large = [], []
    for x, y, t, lp in pts:
        if lp > -math.inf:
            shape, d2, s = _sharp_terms(x, y, t)
            (small if t <= 1.0 else large).append((t, lp, shape - lp, d2, s))

    def least(quotients, default):
        return (max(min(quotients), C_FLOOR), min(quotients) > 0) if quotients else (default, True)

    c0, ok0 = least([budget * t / d2 / 2.0 for t, _, budget, d2, _ in small if d2 > 0], 0.125)
    c1, ok1 = least([(budget - c0 * d2 / t) / (t * s) for t, _, budget, d2, s in small if s > 0], 1.0)
    c2, ok2 = least([-lp / t / 2.0 for t, lp, *_ in large], 1.0)
    c3, ok3 = least([(-lp - c2 * t) / s for t, lp, _, _, s in large if s > 0], 1.0)
    env = BoundEnvelope(family="quadratic_sharp", n=1, c0=c0, c1=c1, c2=c2, c3=c3)
    return env, ok0 and ok1 and ok2 and ok3


def _fit_lower_c1(V, family, pts, n, kappa):
    """avg_lower_near / avg_lower_far on their regime's points: c1 is the largest (base - log p) / D."""
    if kappa is None:
        kappa = 0.125  # default branch split |x-y| = sqrt(t)/8
    near = family == "avg_lower_near"
    c0, c2, c3 = 0.5 * (4.0 * math.pi) ** (-0.5 * n), 2.0, 0.5
    sel, quotients = [], []
    for x, y, t, lp in pts:
        d = _dist(x, y)
        if _is_near(kappa, d, t) != near:
            continue
        sel.append((x, y, t, lp))
        base, log_d = _lower_terms(V, n, c0, c2, c3, near, x, d, t)
        if lp > -math.inf and -math.inf < log_d <= 700.0:
            quotients.append((base - lp) / math.exp(log_d))
    if not sel:
        raise ParameterError(f"no grid points fall in the {family} regime")
    c1 = max(max(quotients, default=0.0), C_FLOOR)
    far = {} if near else {"c2": c2, "c3": c3}
    return BoundEnvelope(family=family, n=n, c0=c0, c1=c1, kappa=kappa, **far), sel


def _fit_dirichlet_C(family, pts, n, epsilon):
    """Dirichlet comparison families: C is the least p / exp(shape), capped at 0.99."""
    if epsilon is None:
        raise ParameterError(f"{family} fit needs epsilon")
    ratios = []
    for x, y, t, lp in pts:
        shape = _dirichlet_log(family, n, epsilon, x, y, t)
        if shape > -math.inf and lp > -math.inf:
            ratios.append(math.exp(min(lp - shape, 700.0)))
    if not ratios:
        raise ParameterError("no usable grid points for the Dirichlet fit")
    c_raw = min(ratios)
    C = min(c_raw, 0.99) if c_raw > 0.0 else C_FLOOR
    return BoundEnvelope(family=family, n=n, epsilon=epsilon, C=C), c_raw > 0.0
