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
from scipy.integrate import simpson

from .errors import GeometryError, ParameterError
from .explicit import KernelValue
from .potentials import Cube, Potential, cube_average, m_beta

UPPER_FAMILIES = ("gaussian_upper", "avg_upper", "symmetrized_upper", "quadratic_sharp")
LOWER_FAMILIES = ("avg_lower_near", "avg_lower_far", "dirichlet_interval", "dirichlet_ball")
FAMILIES = UPPER_FAMILIES + LOWER_FAMILIES

__all__ = [
    "BoundEnvelope",
    "FitResult",
    "ChainPlan",
    "GridFunction",
    "gaussian_upper",
    "avg_upper",
    "symmetrized_upper",
    "quadratic_sharp_envelope",
    "quadratic_sharp_branches",
    "avg_lower",
    "dirichlet_interval_lower",
    "interval_clamp_time",
    "dirichlet_ball_lower",
    "chain_plan",
    "chained_lower_bound",
    "fefferman_phong_ratio",
    "energy_test_family",
    "moser_ratio",
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
    dx = np.atleast_1d(np.asarray(x, dtype=float)) - np.atleast_1d(np.asarray(y, dtype=float))
    return float(np.sqrt(np.sum(dx * dx)))


def _avg_around(V: Potential, x, side: float) -> float:
    return cube_average(V, Cube(x, side))


def gaussian_upper(e: BoundEnvelope, x, y, t: float) -> KernelValue:
    """c0 t^{-n/2} exp(-c2 |x-y|^2 / t)."""
    e._need("c0", "c2")
    if not t > 0:
        raise ParameterError("time must be > 0")
    d2 = _dist(x, y) ** 2
    return KernelValue(math.log(e.c0) - 0.5 * e.n * math.log(t) - e.c2 * d2 / t)


def avg_upper(V: Potential, e: BoundEnvelope, x, y, t: float) -> KernelValue:
    """Gaussian shape times exp{-c1 sqrt(m_beta(t * mean of V near x))}.

    The mean is over the cube of side sqrt(t) centered at x.
    """
    e._need("c0", "c1", "c2")
    if e.beta is None:
        raise ParameterError("avg_upper needs beta")
    base = gaussian_upper(e, x, y, t)
    decay = math.sqrt(m_beta(t * _avg_around(V, x, math.sqrt(t)), e.beta))
    return KernelValue(base.log_value - e.c1 * decay)


def symmetrized_upper(V: Potential, e: BoundEnvelope, x, y, t: float) -> KernelValue:
    """Geometric-mean form with decay terms at both endpoints.

    c0 t^{-n/2} e^{-c1 |x-y|^2/t} exp{-c2 [sqrt(m_beta(t avg_x)) + sqrt(m_beta(t avg_y))]}
    """
    e._need("c0", "c1", "c2")
    if e.beta is None:
        raise ParameterError("symmetrized_upper needs beta")
    if not t > 0:
        raise ParameterError("time must be > 0")
    d2 = _dist(x, y) ** 2
    side = math.sqrt(t)
    decay = math.sqrt(m_beta(t * _avg_around(V, x, side), e.beta))
    decay += math.sqrt(m_beta(t * _avg_around(V, y, side), e.beta))
    logv = math.log(e.c0) - 0.5 * e.n * math.log(t) - e.c1 * d2 / t - e.c2 * decay
    return KernelValue(logv)


def quadratic_sharp_branches(e: BoundEnvelope, x: float, y: float, t: float):
    """Both branches of the two-regime quadratic envelope (n = 1).

    small-t: t^{-1/2} exp(-c0 |x-y|^2/t - c1 t (x^2+y^2))
    large-t: exp(-c2 t - c3 (x^2+y^2))
    No continuity is imposed at t = 1; both values are always available.
    """
    e._need("c0", "c1", "c2", "c3")
    if e.n != 1:
        raise ParameterError("quadratic sharp envelope is one-dimensional")
    if not t > 0:
        raise ParameterError("time must be > 0")
    s = x * x + y * y
    small = -0.5 * math.log(t) - e.c0 * (x - y) ** 2 / t - e.c1 * t * s
    large = -e.c2 * t - e.c3 * s
    return KernelValue(small), KernelValue(large)


def quadratic_sharp_envelope(e: BoundEnvelope, x: float, y: float, t: float) -> KernelValue:
    small, large = quadratic_sharp_branches(e, x, y, t)
    return small if t <= 1.0 else large


def avg_lower(V: Potential, e: BoundEnvelope, x, y, t: float) -> KernelValue:
    """Two-branch lower envelope selected by |x-y| versus kappa sqrt(t).

    near (|x-y| < kappa sqrt(t)):  c0 t^{-n/2} exp{-c1 t avg_{side sqrt(t)}(x)}
    far  (otherwise):              c0 t^{-n/2} e^{-c3 |x-y|^2/t}
                                   exp{-c1 t c2^{|x-y|^2/t} avg_{side t/|x-y|}(x)}
    """
    if e.kappa is None:
        raise ParameterError("avg_lower needs kappa")
    if not t > 0:
        raise ParameterError("time must be > 0")
    d = _dist(x, y)
    if d < e.kappa * math.sqrt(t):
        e._need("c0", "c1")
        avg = _avg_around(V, x, math.sqrt(t))
        return KernelValue(math.log(e.c0) - 0.5 * e.n * math.log(t) - e.c1 * t * avg)
    e._need("c0", "c1", "c2", "c3")
    avg = _avg_around(V, x, t / d)
    base = math.log(e.c0) - 0.5 * e.n * math.log(t) - e.c3 * d * d / t
    if avg <= 0.0:
        return KernelValue(base)
    log_decay = math.log(e.c1 * t) + (d * d / t) * math.log(e.c2) + math.log(avg)
    if log_decay > 700.0:
        return KernelValue(-math.inf)
    return KernelValue(base - math.exp(log_decay))


def interval_clamp_time(epsilon: float) -> float:
    """Time beyond which the interval lower bound clamps to zero."""
    return epsilon**2 / math.log(2.0)


def dirichlet_interval_lower(
    epsilon: float, x: float, y: float, t: float, C: float
) -> tuple[KernelValue, bool]:
    """(C / sqrt(t)) e^{-|x-y|^2/4t} (1 - 2 e^{-eps^2/t}), clamped at zero.

    Valid as a lower bound for the Dirichlet interval kernel whenever
    (x - eps, y + eps) sits inside the interval (caller's responsibility).
    Returns (value, clamped); the factor goes nonpositive for
    t >= interval_clamp_time(epsilon).
    """
    if not epsilon > 0:
        raise ParameterError("epsilon must be > 0")
    if not 0.0 < C < 1.0:
        raise ParameterError("C must lie in (0, 1)")
    if not t > 0:
        raise ParameterError("time must be > 0")
    factor = 1.0 - 2.0 * math.exp(-(epsilon**2) / t)
    if factor <= 0.0:
        return KernelValue(-math.inf), True
    logv = math.log(C) - 0.5 * math.log(t) - (x - y) ** 2 / (4.0 * t) + math.log(factor)
    return KernelValue(logv), False


def dirichlet_ball_lower(
    n: int,
    epsilon: float,
    delta: float,
    x,
    y,
    t: float,
    C: float,
    ball: tuple | None = None,
) -> KernelValue:
    """(C / t^{n/2}) e^{-pi^2 n^2 t / 4 eps^2} e^{-|x-y|^2 / 4t} for n >= 2.

    The straight segment from x to y must stay eps-deep inside the ball, so
    the geodesic is a line and its curvature correction vanishes.  Passing
    ball=(center, radius) enables the geometry check.
    """
    if n < 2:
        raise ParameterError("ball lower bound needs n >= 2")
    if not (epsilon > 0 and 0 < delta <= epsilon):
        raise ParameterError("need epsilon > 0 and 0 < delta <= epsilon")
    if not 0.0 < C < 1.0:
        raise ParameterError("C must lie in (0, 1)")
    if not t > 0:
        raise ParameterError("time must be > 0")
    if ball is not None:
        center, radius = ball
        for pt in (x, y):
            if _dist(pt, center) > radius - epsilon + 1e-12:
                raise GeometryError("segment endpoint leaves the eps-interior of the ball")
    d2 = _dist(x, y) ** 2
    logv = (
        math.log(C)
        - 0.5 * n * math.log(t)
        - math.pi**2 * n**2 * t / (4.0 * epsilon**2)
        - d2 / (4.0 * t)
    )
    return KernelValue(logv)


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


def chain_plan(x, y, t: float, sigma: float | None = None) -> ChainPlan:
    """Partition the x-to-y segment for semigroup chaining.

    The M arithmetic (smallest integer above 256 |x-y|^2/t) is well defined
    for any separation; the chaining argument itself targets the far regime
    |x-y| >= sqrt(t)/8, exposed as plan.far_regime (near-regime callers
    normally want the near branch of avg_lower instead).  sigma defaults to
    1/(16 sqrt(n)), the largest value for which points of adjacent cubes
    are always closer than (1/8) sqrt(t/M).
    """
    if not t > 0:
        raise ParameterError("time must be > 0")
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    yv = np.atleast_1d(np.asarray(y, dtype=float))
    if xv.shape != yv.shape:
        raise ParameterError("x and y must share a dimension")
    n = len(xv)
    r = _dist(xv, yv)
    M = int(math.floor(256.0 * r * r / t)) + 1
    if sigma is None:
        sigma = 1.0 / (16.0 * math.sqrt(n))
    if not 0.0 < sigma < 1.0:
        raise ParameterError("sigma must lie in (0, 1)")
    spacing_ratio = (r / M) / math.sqrt(t / M)
    if spacing_ratio + sigma * math.sqrt(n) >= 0.125:
        raise ParameterError(
            f"sigma={sigma} violates the adjacent-cube condition; need "
            f"sigma < {(0.125 - spacing_ratio) / math.sqrt(n):.6g} here"
        )
    pts = xv[None, :] + np.linspace(0.0, 1.0, M + 1)[:, None] * (yv - xv)[None, :]
    pts.flags.writeable = False
    return ChainPlan(x=tuple(xv), y=tuple(yv), t=t, M=M, waypoints=pts, sigma=sigma)


def chained_lower_bound(
    V: Potential, plan: ChainPlan, c0: float, c1: float, doubling_C: float
) -> KernelValue:
    """Product of on-diagonal bounds over the chain cubes, in log-space.

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
            return KernelValue(-math.inf)
        logv -= math.exp(log_decay)
    return KernelValue(logv)


# ---------------------------------------------------------------------------
# energy-form and local-boundedness ratios


@dataclass(frozen=True)
class GridFunction:
    """Piecewise-linear function on a uniform grid spanning a cube."""

    xs: tuple[float, ...]
    values: tuple[float, ...]
    label: str = ""

    def __post_init__(self):
        if len(self.xs) != len(self.values) or len(self.xs) < 2:
            raise ParameterError("test function needs matching grids of length >= 2")


def energy_test_family(Z: Cube, count: int = 50, seed: int = 0, nodes: int = 129):
    """Deterministic lattice of hats, quadratic bumps, and Gaussians on Z.

    The lattice cycles through the three shapes over a grid of centers and
    widths; the seed only jitters the lattice slightly so repeated runs are
    reproducible.
    """
    if Z.n != 1:
        raise ParameterError("test functions are one-dimensional")
    lo, hi = Z.bounds(0)
    xs = tuple(np.linspace(lo, hi, nodes))
    rng = np.random.default_rng(seed)
    grid = np.asarray(xs)
    out = []
    k = 0
    while len(out) < count:
        frac = (k % 7 + 0.5) / 7.0
        width = (0.15 + 0.25 * ((k // 7) % 3)) * Z.side
        center = lo + frac * Z.side + rng.uniform(-0.02, 0.02) * Z.side
        kind = k % 3
        if kind == 0:
            vals = np.clip(1.0 - np.abs(grid - center) / width, 0.0, None)
            label = f"hat(c={center:.3f},w={width:.3f})"
        elif kind == 1:
            vals = np.clip(1.0 - ((grid - center) / width) ** 2, 0.0, None)
            label = f"bump(c={center:.3f},w={width:.3f})"
        else:
            vals = np.exp(-0.5 * ((grid - center) / width) ** 2)
            label = f"gauss(c={center:.3f},w={width:.3f})"
        if np.max(vals) > 0:
            out.append(GridFunction(xs=xs, values=tuple(vals), label=label))
        k += 1
    return out


def fefferman_phong_ratio(V: Potential, u: GridFunction, Z: Cube, beta: float) -> float:
    """Energy-form ratio  int(|u'|^2 + V u^2) / [ (m_beta(r^2 avg V)/r^2) int u^2 ].

    The energy inequality asserts this is bounded below by a positive
    constant uniform over C^1 test functions; u is its own piecewise-linear
    interpolant here, so the gradient and mass integrals are exact.
    """
    if Z.n != 1:
        raise ParameterError("ratio check is one-dimensional")
    xs = np.asarray(u.xs)
    vals = np.asarray(u.values)
    dx = np.diff(xs)
    dv = np.diff(vals)
    grad_energy = float(np.sum(dv * dv / dx))
    mass = float(np.sum(dx / 3.0 * (vals[:-1] ** 2 + vals[:-1] * vals[1:] + vals[1:] ** 2)))
    if mass <= 0.0:
        raise ParameterError("test function has zero L2 mass")
    # 5-point Gauss-Legendre per cell for the V u^2 term
    nodes, weights = np.polynomial.legendre.leggauss(5)
    mid = 0.5 * (xs[:-1] + xs[1:])
    half = 0.5 * dx
    pts = mid[:, None] + half[:, None] * nodes
    uu = vals[:-1, None] + (pts - xs[:-1, None]) * (dv / dx)[:, None]
    pot_energy = float(np.sum(half[:, None] * weights * np.asarray(V(pts)) * uu * uu))
    r = Z.side
    weight = m_beta(r * r * cube_average(V, Z), beta) / (r * r)
    if weight <= 0.0:
        raise ParameterError("potential average vanishes; ratio undefined")
    return (grad_energy + pot_energy) / (weight * mass)


def moser_ratio(
    u: Callable[[float, float], float],
    x0: float,
    t0: float,
    r: float,
    nx: int = 41,
    nt: int = 41,
) -> float:
    """sup over the r/2 cylinder of |u| divided by its scaled L2 norm.

    ratio = sup_{Q_{r/2}} |u| / ( (1/r^{n+2}) iint_{Q_{2r/3}} u^2 )^{1/2},
    with Q_rho(x0, t0) = (x0-rho, x0+rho) x (t0-rho^2, t0) and n = 1.
    Local boundedness of nonnegative solutions makes this uniformly bounded
    over cylinders where u solves the heat equation on the double cylinder,
    hence the precondition t0 - 4 r^2 > 0.
    """
    if not (r > 0 and t0 - 4.0 * r * r > 0.0):
        raise ParameterError("cylinder needs r > 0 and t0 - 4 r^2 > 0")
    if nx < 5 or nt < 5 or nx % 2 == 0 or nt % 2 == 0:
        raise ParameterError("grid counts must be odd and >= 5")
    half = 0.5 * r
    xs = np.linspace(x0 - half, x0 + half, nx)
    ts = np.linspace(t0 - half * half, t0, nt)
    sup = max(abs(u(xi, tj)) for xi in xs for tj in ts)
    rho = 2.0 * r / 3.0
    xs2 = np.linspace(x0 - rho, x0 + rho, nx)
    ts2 = np.linspace(t0 - rho * rho, t0, nt)
    vals = np.array([[u(xi, tj) ** 2 for tj in ts2] for xi in xs2])
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


def _fit_coefficient(quotients, unconstrained_default=1.0):
    """Largest admissible decay coefficient: the min of per-point quotients.

    Returns (coefficient, constrained, admissible): an empty quotient list
    means the decay term never bites and any positive value works.
    """
    vals = [q for q in quotients if q is not None]
    if not vals:
        return unconstrained_default, False, True
    lo = min(vals)
    return lo, True, lo > 0.0


def fit_constants(
    V: Potential,
    samples,
    family: str,
    *,
    n: int = 1,
    beta: float | None = None,
    kappa: float | None = None,
    epsilon: float | None = None,
    c_floor: float = 1e-9,
) -> FitResult:
    """Fit the free envelope constants against kernel samples.

    samples is an iterable of (x, y, t, log p), read once, as `grid_samples`
    makes them from one evaluation of the grid.
    Upper families fix c0 = 2 (4 pi)^{-n/2} and Gaussian coefficient 1/8,
    then take the decay coefficient as the infimum of admissible values
    over the grid (clipped at zero); lower families mirror this with a
    supremum and a safety prefactor c0 = (4 pi)^{-n/2} / 2.  FEASIBLE means
    every fitted constant came out strictly positive and no grid point
    violates the bound.
    """
    if family not in FAMILIES:
        raise ParameterError(f"unknown envelope family {family!r}")
    pts = [tuple(s) for s in samples]
    if not pts:
        raise ParameterError("empty sample grid")
    if any(len(p) != 4 for p in pts):
        raise ParameterError("samples must be (x, y, t, log_p) tuples")

    if family in UPPER_FAMILIES:
        return _fit_upper(V, family, pts, n=n, beta=beta, c_floor=c_floor)
    return _fit_lower(V, family, pts, n=n, kappa=kappa, epsilon=epsilon, c_floor=c_floor)


def _fit_upper(V, family, pts, *, n, beta, c_floor):
    c0 = 2.0 * (4.0 * math.pi) ** (-0.5 * n)

    if family == "quadratic_sharp":
        return _fit_quadratic_sharp(pts, c_floor)

    if family == "gaussian_upper":
        env = BoundEnvelope(family=family, n=n, c0=c0, c2=0.125)
        records, min_slack, witness = _slacks(V, env, pts, upper=True)
        return FitResult(env, min_slack >= -1e-12, min_slack, witness, records)

    if beta is None:
        raise ParameterError(f"{family} fit needs beta")
    quotients = []
    for x, y, t, lp in pts:
        if lp == -math.inf:
            quotients.append(None)
            continue
        base = math.log(c0) - 0.5 * n * math.log(t) - 0.125 * _dist(x, y) ** 2 / t
        side = math.sqrt(t)
        decay = math.sqrt(m_beta(t * _avg_around(V, x, side), beta))
        if family == "symmetrized_upper":
            decay += math.sqrt(m_beta(t * _avg_around(V, y, side), beta))
        quotients.append(None if decay <= 0.0 else (base - lp) / decay)
    cdecay, constrained, admissible = _fit_coefficient(quotients)
    cdecay = max(cdecay, c_floor)
    if family == "avg_upper":
        env = BoundEnvelope(family=family, n=n, c0=c0, c1=cdecay, c2=0.125, beta=beta)
    else:
        env = BoundEnvelope(family=family, n=n, c0=c0, c1=0.125, c2=cdecay, beta=beta)
    records, min_slack, witness = _slacks(V, env, pts, upper=True)
    feasible = admissible and min_slack >= -1e-12
    if not admissible and constrained:
        idx = int(np.argmin([q if q is not None else math.inf for q in quotients]))
        witness = pts[idx][:3]
    return FitResult(env, feasible, min_slack, witness, records)


def _fit_quadratic_sharp(pts, c_floor):
    small = [(x, y, t, lp) for x, y, t, lp in pts if t <= 1.0 and lp > -math.inf]
    large = [(x, y, t, lp) for x, y, t, lp in pts if t > 1.0 and lp > -math.inf]

    def budget_small(x, y, t, lp):
        return -0.5 * math.log(t) - lp

    c0_q = [budget_small(*p) * p[2] / (p[0] - p[1]) ** 2 / 2.0 for p in small if p[0] != p[1]]
    c0 = max(min(c0_q), c_floor) if c0_q else 0.125
    c1_q = []
    for x, y, t, lp in small:
        s = x * x + y * y
        if s > 0:
            c1_q.append((budget_small(x, y, t, lp) - c0 * (x - y) ** 2 / t) / (t * s))
    c1 = max(min(c1_q), c_floor) if c1_q else 1.0

    c2_q = [-lp / t / 2.0 for x, y, t, lp in large]
    c2 = max(min(c2_q), c_floor) if c2_q else 1.0
    c3_q = []
    for x, y, t, lp in large:
        s = x * x + y * y
        if s > 0:
            c3_q.append((-lp - c2 * t) / s)
    c3 = max(min(c3_q), c_floor) if c3_q else 1.0

    env = BoundEnvelope(family="quadratic_sharp", n=1, c0=c0, c1=c1, c2=c2, c3=c3)
    records, min_slack, witness = _slacks(None, env, pts, upper=True)
    consts_ok = (
        (not c0_q or min(c0_q) > 0)
        and (not c1_q or min(c1_q) > 0)
        and (not c2_q or min(c2_q) > 0)
        and (not c3_q or min(c3_q) > 0)
    )
    return FitResult(env, consts_ok and min_slack >= -1e-12, min_slack, witness, records)


def _fit_lower(V, family, pts, *, n, kappa, epsilon, c_floor):
    if family in ("avg_lower_near", "avg_lower_far"):
        if kappa is None:
            kappa = 0.125  # default branch split |x-y| = sqrt(t)/8
        near = family == "avg_lower_near"
        sel = []
        for x, y, t, lp in pts:
            d = _dist(x, y)
            if (d < kappa * math.sqrt(t)) == near:
                sel.append((x, y, t, lp))
        if not sel:
            raise ParameterError(f"no grid points fall in the {family} regime")
        c0 = 0.5 * (4.0 * math.pi) ** (-0.5 * n)
        c2, c3 = 2.0, 0.5
        quotients = []
        infeasible_witness = None
        for x, y, t, lp in sel:
            d = _dist(x, y)
            base = math.log(c0) - 0.5 * n * math.log(t)
            if near:
                denom_log = None
                avg = _avg_around(V, x, math.sqrt(t))
                if avg > 0:
                    denom_log = math.log(t * avg)
            else:
                base -= c3 * d * d / t
                avg = _avg_around(V, x, t / d)
                denom_log = None
                if avg > 0:
                    denom_log = math.log(t) + (d * d / t) * math.log(c2) + math.log(avg)
            if lp == -math.inf:
                infeasible_witness = (x, y, t)
                continue
            if denom_log is None:
                if base > lp:
                    infeasible_witness = (x, y, t)
                continue
            if denom_log > 700.0:
                continue
            quotients.append((base - lp) / math.exp(denom_log))
        c1 = max(max(quotients, default=0.0), c_floor)
        env = BoundEnvelope(
            family=family,
            n=n,
            c0=c0,
            c1=c1,
            c2=None if near else c2,
            c3=None if near else c3,
            kappa=kappa,
        )
        records, min_slack, witness = _slacks(V, env, sel, upper=False)
        feasible = infeasible_witness is None and min_slack >= -1e-12
        return FitResult(env, feasible, min_slack, witness or infeasible_witness, records)

    if epsilon is None:
        raise ParameterError(f"{family} fit needs epsilon")
    if family == "dirichlet_ball" and n < 2:
        raise ParameterError("dirichlet_ball fits need n >= 2")
    # Dirichlet comparison families: fit the single prefactor C.
    ratios = []
    for x, y, t, lp in pts:
        if family == "dirichlet_interval":
            factor = 1.0 - 2.0 * math.exp(-(epsilon**2) / t)
            if factor <= 0.0:
                continue
            shape = -0.5 * math.log(t) - (x - y) ** 2 / (4.0 * t) + math.log(factor)
        else:
            d2 = _dist(x, y) ** 2
            shape = (
                -0.5 * n * math.log(t)
                - math.pi**2 * n**2 * t / (4.0 * epsilon**2)
                - d2 / (4.0 * t)
            )
        if lp == -math.inf:
            continue
        ratios.append(math.exp(min(lp - shape, 700.0)))
    if not ratios:
        raise ParameterError("no usable grid points for the Dirichlet fit")
    c_raw = min(ratios)
    feasible = c_raw > 0.0
    C = min(c_raw, 0.99) if feasible else c_floor
    env = BoundEnvelope(family=family, n=n, epsilon=epsilon, C=C)
    records = []
    min_slack, witness = math.inf, None
    for x, y, t, lp in pts:
        if family == "dirichlet_interval":
            kv, clamped = dirichlet_interval_lower(epsilon, x, y, t, C)
            le = kv.log_value
        else:
            le = dirichlet_ball_lower(n, epsilon, epsilon, x, y, t, C).log_value
        slack = lp - le if le > -math.inf else math.inf
        records.append((x, y, t, lp, le, slack))
        if slack < min_slack:
            min_slack, witness = slack, (x, y, t)
    return FitResult(env, feasible and min_slack >= -1e-12, min_slack, witness, records)


def _slacks(V, env: BoundEnvelope, pts, upper: bool):
    records = []
    min_slack, witness = math.inf, None
    for x, y, t, lp in pts:
        le = _evaluate(V, env, x, y, t).log_value
        if upper:
            slack = le - lp if lp > -math.inf else math.inf
        else:
            slack = lp - le if le > -math.inf else (math.inf if lp > -math.inf else 0.0)
        records.append((x, y, t, lp, le, slack))
        if slack < min_slack:
            min_slack, witness = slack, (x, y, t)
    return records, min_slack, witness


def _evaluate(V, env: BoundEnvelope, x, y, t) -> KernelValue:
    if env.family == "gaussian_upper":
        return gaussian_upper(env, x, y, t)
    if env.family == "avg_upper":
        return avg_upper(V, env, x, y, t)
    if env.family == "symmetrized_upper":
        return symmetrized_upper(V, env, x, y, t)
    if env.family == "quadratic_sharp":
        return quadratic_sharp_envelope(env, x, y, t)
    if env.family in ("avg_lower_near", "avg_lower_far"):
        return avg_lower(V, env, x, y, t)
    if env.family == "dirichlet_interval":
        return dirichlet_interval_lower(env.epsilon, x, y, t, env.C)[0]
    if env.family == "dirichlet_ball":
        return dirichlet_ball_lower(env.n, env.epsilon, env.epsilon, x, y, t, env.C)
    raise ParameterError(f"unknown family {env.family}")


def evaluate_envelope(V, env: BoundEnvelope, x, y, t) -> KernelValue:
    """Evaluate any envelope family at one point (log-space)."""
    return _evaluate(V, env, x, y, t)
