"""Nonnegative potentials on the line, exact cube averages, and weight-class diagnostics.

Potentials are immutable value objects, all one-dimensional.  Each kind
carries exact interval integrals (closed-form antiderivatives); a kind
without one is refused.  `Cube` stays n-dimensional, but every average and
scan here refuses n != 1.  The reverse-Holder and Muckenhoupt constants are
sups of power-mean ratios M_a / M_b, M_q = (mean of V^q)^(1/q), over dyadic
refinements of a user-supplied window; the doubling fit uses nested cubes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import DomainError, ParameterError

# ratio above which a weight-class report is marked divergent
DIVERGENCE_THRESHOLD = 1e8


def m_beta(x: float, beta: float) -> float:
    """Piecewise weight: identity below 1, power beta above 1.

    Continuous at the knee x = 1, nondecreasing, and <= x everywhere on
    [0, inf) since 0 < beta <= 1.
    """
    if not 0.0 < beta <= 1.0:
        raise ParameterError(f"beta must lie in (0, 1], got {beta}")
    if x < 0.0:
        raise ParameterError(f"m_beta argument must be >= 0, got {x}")
    if x <= 1.0:
        return x
    return x**beta


# ---------------------------------------------------------------------------
# cubes


@dataclass(frozen=True)
class Cube:
    """Axis-aligned cube: center in R^n, side length > 0."""

    center: tuple[float, ...]
    side: float

    def __init__(self, center, side: float):
        if isinstance(center, float) or np.ndim(center) == 0:
            center = (float(center),)
        else:
            center = tuple(float(c) for c in center)
        if not side > 0.0:
            raise ParameterError(f"cube side must be > 0, got {side}")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "side", float(side))

    @property
    def n(self) -> int:
        return len(self.center)

    def bounds(self, axis: int = 0) -> tuple[float, float]:
        c = self.center[axis]
        return c - self.side / 2.0, c + self.side / 2.0


# ---------------------------------------------------------------------------
# potential kinds


class Potential:
    """Base class: V on the line.  Subclasses are frozen dataclasses, safe to share/hash.

    n is the dimension of the points V takes; every kind here has n = 1.
    """

    n = 1

    def __call__(self, x):
        raise NotImplementedError


@dataclass(frozen=True)
class PolynomialPotential(Potential):
    """V(x) = sum_i coeffs[i] x^i."""

    coeffs: tuple[float, ...]

    def __init__(self, coeffs: Sequence[float]):
        coeffs = tuple(float(c) for c in coeffs)
        if not coeffs:
            raise ParameterError("polynomial needs at least one coefficient")
        object.__setattr__(self, "coeffs", coeffs)

    def __call__(self, x):
        val = npoly.polyval(np.asarray(x, dtype=float), self.coeffs)
        return val if val.ndim else float(val)


@dataclass(frozen=True)
class PowerPotential(Potential):
    """V(x) = |x|**alpha.

    alpha < 0 has a singularity at the origin: pointwise evaluation there is
    a domain error, while interval integrals use the improper closed form.
    """

    alpha: float

    def __init__(self, alpha: float):
        object.__setattr__(self, "alpha", float(alpha))

    def __call__(self, x):
        r = np.abs(np.asarray(x, dtype=float))
        if self.alpha < 0 and np.any(r == 0.0):
            raise DomainError("power potential with negative exponent is singular at 0")
        with np.errstate(divide="ignore"):
            val = r**self.alpha
        return val if val.ndim else float(val)


@dataclass(frozen=True)
class TabulatedPotential(Potential):
    """Piecewise-linear interpolant of uniform samples, values >= 0."""

    xs: tuple[float, ...]
    values: tuple[float, ...]

    def __init__(self, xs: Sequence[float], values: Sequence[float]):
        xs = tuple(float(v) for v in xs)
        values = tuple(float(v) for v in values)
        if len(xs) != len(values) or len(xs) < 2:
            raise ParameterError("tabulated potential needs >= 2 matching samples")
        steps = np.diff(xs)
        if np.any(steps <= 0) or not np.allclose(steps, steps[0], rtol=1e-9):
            raise ParameterError("tabulated grid must be uniform and increasing")
        if any(v < 0 for v in values):
            raise ParameterError("tabulated values must be >= 0")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "values", values)

    def __call__(self, x):
        arr = np.asarray(x, dtype=float)
        lo, hi = self.xs[0], self.xs[-1]
        if np.any(arr < lo - 1e-12) or np.any(arr > hi + 1e-12):
            raise DomainError("point outside tabulated domain")
        val = np.interp(arr, self.xs, self.values)
        return val if val.ndim else float(val)

    @cached_property
    def cumulative(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(nodes, values, trapezoid integral from the first node to each node)."""
        xs = np.asarray(self.xs)
        vs = np.asarray(self.values)
        segs = 0.5 * (vs[1:] + vs[:-1]) * np.diff(xs)
        return xs, vs, np.concatenate([[0.0], np.cumsum(segs)])


@dataclass(frozen=True)
class ScaledPotential(Potential):
    """c * V with c > 0."""

    factor: float
    base: Potential

    def __init__(self, factor: float, base: Potential):
        if not factor > 0:
            raise ParameterError("scale factor must be > 0 to preserve nonnegativity")
        object.__setattr__(self, "factor", float(factor))
        object.__setattr__(self, "base", base)

    @property
    def n(self) -> int:
        return self.base.n

    def __call__(self, x):
        return self.factor * self.base(x)


@dataclass(frozen=True)
class SumPotential(Potential):
    """V1 + V2 + ... , all of equal dimension."""

    parts: tuple[Potential, ...]

    def __init__(self, *parts: Potential):
        if not parts:
            raise ParameterError("sum potential needs at least one part")
        if len({p.n for p in parts}) != 1:
            raise ParameterError("sum parts must share the same dimension")
        object.__setattr__(self, "parts", tuple(parts))

    @property
    def n(self) -> int:
        return self.parts[0].n

    def __call__(self, x):
        total = self.parts[0](x)
        for p in self.parts[1:]:
            total = total + p(x)
        return total


def constant(c: float) -> PolynomialPotential:
    """V = c >= 0."""
    if c < 0:
        raise ParameterError("constant potential must be >= 0")
    return PolynomialPotential([c])


# ---------------------------------------------------------------------------
# exact 1D interval integrals


def _horner(x, coeffs: tuple[float, ...]):
    """sum_i coeffs[i] x^i at a float or an array x: `npoly.polyval`'s IEEE operations in its order."""
    v = coeffs[-1] + x * 0.0
    for a in coeffs[-2::-1]:
        v = a + v * x
    return v


@lru_cache(maxsize=32)
def _poly_primitive(coeffs: tuple[float, ...]) -> tuple[float, ...]:
    """Antiderivative coefficients of a polynomial, built once per coefficient tuple."""
    return tuple(npoly.polyint(np.asarray(coeffs, dtype=float)).tolist())


def _poly_interval_integral(coeffs, lo, hi):
    anti = _poly_primitive(tuple(coeffs))
    return _horner(hi, anti) - _horner(lo, anti)


def _power_segment(a, b, s):
    """int_a^b x^s dx for 0 <= a <= b; +inf when divergent (a = 0, s <= -1)."""
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    out = np.zeros(a.shape)
    nz = b > a
    sp1 = s + 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        if sp1 == 0.0:
            vals = np.log(b) - np.log(a)
        else:
            vals = (b**sp1 - a**sp1) / sp1
    out[nz] = vals[nz]
    return out


def _abs_power_interval(lo, hi, s, excision=0.0):
    """int over [lo,hi] of |x|^s, optionally excising (-excision, excision).

    Divergent integrals (singularity in the closure with s <= -1 and no
    excision) return +inf.  Vectorized over lo/hi arrays.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    a_neg = np.maximum(np.maximum(0.0, -hi), excision)
    b_neg = np.maximum(0.0, -lo)
    a_pos = np.maximum(np.maximum(0.0, lo), excision)
    b_pos = np.maximum(0.0, hi)
    return _power_segment(a_neg, b_neg, s) + _power_segment(a_pos, b_pos, s)


@lru_cache(maxsize=1)
def _gl_rule():
    """The 33-point Gauss-Legendre rule on [-1, 1], built on first use (it starts LAPACK, ~1 MB of RSS)."""
    return np.polynomial.legendre.leggauss(33)


def _gl_interval_integral(f, lo, hi):
    """33-point Gauss-Legendre on each [lo_i, hi_i], vectorized."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    nodes, weights = _gl_rule()
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    pts = mid[..., None] + half[..., None] * nodes
    vals = f(pts)
    return half * np.sum(vals * weights, axis=-1)


def _tab_primitive(V: TabulatedPotential, x):
    xs, vs, cum = V.cumulative
    x = np.asarray(x, dtype=float)
    idx = np.clip(np.searchsorted(xs, x, side="right") - 1, 0, len(xs) - 2)
    x0 = xs[idx]
    dx = x - x0
    h = xs[idx + 1] - xs[idx]
    slope = (vs[idx + 1] - vs[idx]) / h
    return cum[idx] + vs[idx] * dx + 0.5 * slope * dx * dx


def interval_integral(V: Potential, lo, hi):
    """Exact integral of a 1D potential over [lo, hi] (vectorized).

    Polynomial / power / tabulated kinds use closed forms; scaled and sum
    compositions propagate linearly.  Power kind returns +inf on intervals
    where the singularity is non-integrable.
    """
    if V.n != 1:
        raise ParameterError("interval_integral is one-dimensional")
    if isinstance(V, PolynomialPotential):
        return _poly_interval_integral(V.coeffs, lo, hi)
    if isinstance(V, PowerPotential):
        return _abs_power_interval(lo, hi, V.alpha)
    if isinstance(V, TabulatedPotential):
        lo_a, hi_a = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
        if np.any(lo_a < V.xs[0] - 1e-12) or np.any(hi_a > V.xs[-1] + 1e-12):
            raise DomainError("interval outside tabulated domain")
        return _tab_primitive(V, hi) - _tab_primitive(V, lo)
    if isinstance(V, ScaledPotential):
        return V.factor * interval_integral(V.base, lo, hi)
    if isinstance(V, SumPotential):
        return sum(interval_integral(p, lo, hi) for p in V.parts)
    raise ParameterError(f"no interval integral for {type(V).__name__}")


# A double root comes out of the companion-matrix eigensolve split by about
# sqrt(machine eps) ~ 1.5e-8 of its size, along either axis.  Roots within
# ROOT_TOL of their size of each other are one root, and a root that close to
# the real axis is real.
ROOT_TOL = 1e-6


@lru_cache(maxsize=32)
def _poly_real_roots(coeffs: tuple[float, ...]) -> tuple[np.ndarray, np.ndarray]:
    """(real roots, multiplicities) of a polynomial, found once per coefficient tuple.

    Real parts of the near-real roots are sorted and split where the gap
    exceeds ROOT_TOL max(1, |root|); each group is one root at its mean.
    """
    c = np.trim_zeros(np.asarray(coeffs, dtype=float), "b")
    roots = npoly.polyroots(c) if len(c) > 1 else np.empty(0, dtype=complex)
    real = np.sort(roots.real[np.abs(roots.imag) <= ROOT_TOL * np.maximum(1.0, np.abs(roots))])
    gaps = np.diff(real) > ROOT_TOL * np.maximum(1.0, np.abs(real[1:]))
    groups = np.split(real, np.flatnonzero(gaps) + 1) if real.size else []
    centers = np.array([g.mean() for g in groups])
    mult = np.array([len(g) for g in groups], dtype=int)
    centers.flags.writeable = mult.flags.writeable = False
    return centers, mult


def _root_split_integral(coeffs, lo: float, hi: float, roots, mult, q: float) -> float:
    """Integral of max(V, 0)**q, q < 0, over [lo, hi] for a polynomial V with integrable roots there.

    The interval is split at the roots (clipped into [lo, hi]) and at the
    midpoints between them, so each piece has one root r, of multiplicity m,
    at one end and a point b at the other.  On it V = (x - r)^m W(x) with
    W(r) != 0, and x = r + (b - r) v^(1/(s+1)), s = m q > -1, turns the
    integral into |b - r|^(s+1)/(s+1) times the integral over v in [0, 1] of
    max(+-W, 0)^q, a bounded integrand that 33-point Gauss-Legendre in v resolves.
    """
    nodes, weights = _gl_rule()
    v = 0.5 * (nodes + 1.0)
    r = np.clip(roots, lo, hi)
    ends = np.concatenate([[lo], 0.5 * (r[1:] + r[:-1]), [hi]])
    total = 0.0
    for i, (ri, m) in enumerate(zip(r, mult)):
        W = npoly.polydiv(coeffs, npoly.polyfromroots([ri] * m))[0]
        s = m * q
        for b in (ends[i], ends[i + 1]):
            if b == ri:
                continue
            x = ri + (b - ri) * v ** (1.0 / (s + 1.0))
            sign = 1.0 if m % 2 == 0 else np.sign(b - ri)  # the sign of (x - r)^m on the piece
            with np.errstate(divide="ignore"):
                f = np.clip(sign * npoly.polyval(x, W), 0.0, None) ** q
            total += abs(b - ri) ** (s + 1.0) / (s + 1.0) * 0.5 * float(np.dot(weights, f))
    return total


def powered_interval_integral(V: Potential, lo, hi, q: float, excision: float = 0.0):
    """(integral of V**q over each [lo_i, hi_i], analytic-divergence mask).

    Closed form for power kind (|x|^{alpha q}) and integer powers of a
    polynomial; fixed-order Gauss-Legendre otherwise, split at a polynomial's
    integrable roots for q < 0 (`_root_split_integral`).  Where the mask is
    set the integral is analytically divergent: the returned value is the
    improper integral with a ball of radius `excision` removed around the
    singular point (+inf when excision == 0).
    """
    if V.n != 1:
        raise ParameterError("powered_interval_integral is one-dimensional")
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if isinstance(V, PowerPotential):
        s = V.alpha * q
        touches = (lo <= 1e-300) & (hi >= -1e-300)
        divergent = touches & (s <= -1.0)
        return _abs_power_interval(lo, hi, s, np.where(divergent, excision, 0.0)), divergent
    if isinstance(V, ScaledPotential):
        vals, div = powered_interval_integral(V.base, lo, hi, q, excision)
        return V.factor**q * vals, div
    if isinstance(V, PolynomialPotential) and q < 0:
        # a root of multiplicity m is non-integrable iff m q <= -1; Gauss-Legendre
        # cannot see an integrable one, so those intervals are split at their roots
        # (see `_poly_real_roots`); a root inside [lo, hi] up to 1e-12 counts
        roots, mult = _poly_real_roots(V.coeffs)
        lo, hi = np.broadcast_arrays(lo, hi)
        inside = (lo[..., None] - 1e-12 <= roots) & (roots <= hi[..., None] + 1e-12)
        divergent = np.any(inside & (mult * q <= -1.0), axis=-1)
        with np.errstate(divide="ignore"):
            vals = _gl_interval_integral(lambda x: np.clip(V(x), 0.0, None) ** q, lo, hi)
        for i in map(tuple, np.argwhere(np.any(inside, axis=-1) & ~divergent)):
            vals[i] = _root_split_integral(V.coeffs, lo[i], hi[i], roots[inside[i]], mult[inside[i]], q)
        return np.where(divergent, np.inf, vals), divergent
    if isinstance(V, PolynomialPotential) and float(q).is_integer() and q >= 1:
        powed = npoly.polypow(np.asarray(V.coeffs, dtype=float), int(q))
        return _poly_interval_integral(powed, lo, hi), np.zeros(np.broadcast(lo, hi).shape, dtype=bool)
    # generic: fixed-order Gauss-Legendre of max(V, 0)^q
    vals = _gl_interval_integral(lambda x: np.clip(V(x), 0.0, None) ** q, lo, hi)
    return vals, np.zeros(np.broadcast(lo, hi).shape, dtype=bool)


# ---------------------------------------------------------------------------
# cube averages


def _refuse_divergent(V: Potential, lo, hi, total) -> None:
    """Raise DomainError if some cube [lo_i, hi_i] has an infinite integral total_i.

    The kinds that can diverge (a power with alpha <= -1, alone, scaled or
    summed) diverge at 0 only, and an edge within 1e-15 of 0 counts as
    reaching it: such a cube is judged by its integral stretched to 0.
    """
    lo, hi = np.atleast_1d(lo), np.atleast_1d(hi)
    near = ((0.0 < lo) & (lo <= 1e-15)) | ((-1e-15 <= hi) & (hi < 0.0))
    if near.any():  # skipped otherwise: an empty interval_integral call alone costs ~35 us
        total = np.append(total, interval_integral(V, np.minimum(lo[near], 0.0), np.maximum(hi[near], 0.0)))
    if np.isinf(total).any():
        raise DomainError("potential is not integrable on this cube: a power with alpha <= -1 at 0")


def cube_average(V: Potential, Z: Cube) -> float:
    """Mean of V over the cube Z, both one-dimensional.

    The exact `interval_integral` over the cube's length.  A cube on which V
    is not integrable raises DomainError (`_refuse_divergent`).
    """
    if V.n != 1 or Z.n != 1:
        raise ParameterError(f"cube_average is one-dimensional, got potential n={V.n} and cube n={Z.n}")
    lo, hi = Z.bounds(0)
    total = float(interval_integral(V, lo, hi))
    if math.isinf(total) or 0.0 < lo <= 1e-15 or -1e-15 <= hi < 0.0:
        _refuse_divergent(V, lo, hi, total)
    return total / Z.side


def cube_averages(V: Potential, centers, sides) -> np.ndarray:
    """Means of a one-dimensional V over the cubes (centers[i], sides[i]), in one call.

    centers and sides broadcast against each other.  Each value equals
    `cube_average(V, Cube(c, s))` bit for bit, and a cube that one refuses
    raises the same exception type here.  One `interval_integral` call
    covers every cube.
    """
    if V.n != 1:
        raise ParameterError(f"cube_averages is one-dimensional, got a potential with n={V.n}")
    centers, sides = np.broadcast_arrays(np.asarray(centers, dtype=float), np.asarray(sides, dtype=float))
    if not np.all(sides > 0.0):
        raise ParameterError(f"cube side must be > 0, got {sides[~(sides > 0.0)].flat[0]}")
    lo, hi = centers - sides / 2.0, centers + sides / 2.0
    total = interval_integral(V, lo, hi)
    _refuse_divergent(V, lo, hi, total)
    return total / sides


# ---------------------------------------------------------------------------
# weight-class reports


@dataclass(frozen=True)
class WeightClassReport:
    """Scan of a weight-class ratio over a dyadic cube family.

    constant is the max of the per-scale trace ratios.  A divergent report
    means some cube integral is analytically non-integrable (or the ratio
    overflowed DIVERGENCE_THRESHOLD); divergent trace entries then show the
    ratio with the singularity excised at radius window_side*8^-(d+2) at
    level d, which grows without bound as the family refines.
    """

    kind: str
    exponent: float
    constant: float
    trace: tuple[tuple[float, float], ...]
    divergent: bool
    divergent_at_side: float | None
    beta: float | None = None


ESS_SUP_GRID = 2**10  # refinement points per cube for the q = infinity scan


def _singular_at_0(V: Potential) -> bool:
    try:
        V(0.0)
    except DomainError:
        return True
    return False


def _power_means(V: Potential, lo, hi, side, q: float, excision):
    """(power mean M_q = (mean of V^q)^(1/q) on each cube [lo_i, hi_i], divergence flags).

    side and excision are per-cube arrays.  A mean divides by hi_i - lo_i,
    which rounded edges can put an ulp off side_i.  M_1 is the mean
    (`interval_integral`).  M_inf is the max of V over ESS_SUP_GRID + 1 points
    per cube, refined one side (one level) at a time so that only one level's
    points are held; where V(0) is a domain error, a cube reaching 0 gets +inf
    and a flag.  Any other q integrates V^q with `powered_interval_integral`,
    excised at radius excision_i where divergent.
    """
    if q == 1.0:
        return interval_integral(V, lo, hi) / (hi - lo), np.zeros(lo.shape, dtype=bool)
    if q == math.inf:
        flags = (lo <= 0.0) & (hi >= 0.0) & _singular_at_0(V)
        sup = np.full(lo.shape, np.inf)
        for s in np.unique(side).tolist():
            at = (side == s) & ~flags
            sup[at] = np.max(V(lo[at][:, None] + np.linspace(0.0, s, ESS_SUP_GRID + 1)), axis=1)
        return sup, flags
    total, flags = powered_interval_integral(V, lo, hi, q, excision=excision)
    with np.errstate(divide="ignore"):
        return (np.clip(total, 0.0, None) / (hi - lo)) ** (1.0 / q), flags


def _safe_ratio(num, den):
    num, den = np.broadcast_arrays(np.asarray(num, dtype=float), np.asarray(den, dtype=float))
    out = np.ones(num.shape)
    pos = den > 0
    out[pos] = num[pos] / den[pos]
    out[~pos & (num > 0)] = np.inf
    return out


def _power_mean_scan(V: Potential, window: Cube, depth: int, a: float, b: float, **report) -> WeightClassReport:
    """Report of M_a(V) / M_b(V) on the 2^d dyadic cubes of the window, d = 0..depth.

    Each trace entry is (side, max ratio at that level); the first level with
    a divergence flag or a ratio above DIVERGENCE_THRESHOLD is divergent_at_side.
    The cubes of every level are laid end to end, level d from 2^d - 1 on, and
    each exponent takes two `_power_means` calls: levels 0..depth-1 together
    (2^depth - 1 cubes), then the deepest level alone, so that no call holds
    more cubes than the deepest level.
    """
    if V.n != 1 or window.n != 1:
        raise ParameterError("weight-class scans are one-dimensional")
    levels = np.arange(depth + 1)
    starts = 2**levels - 1
    level = np.repeat(levels, 2**levels)
    k = np.arange(level.size) - starts[level]
    side = window.side * 2.0**-level
    # adjacent cubes share each edge, left + side k, so an edge on 0 is 0 for both of them
    left = window.bounds(0)[0]
    lo, hi = left + side * k, left + side * (k + 1)
    excision = window.side * 8.0 ** -(level + 2)
    ratios, flags = [], []
    for part in (slice(0, starts[-1]), slice(starts[-1], None)):
        (num, num_flags), (den, den_flags) = (
            _power_means(V, lo[part], hi[part], side[part], e, excision[part]) for e in (a, b)
        )
        ratios.append(_safe_ratio(num, den))
        flags.append(num_flags | den_flags)
    top = np.maximum.reduceat(np.concatenate(ratios), starts)
    divergent = np.logical_or.reduceat(np.concatenate(flags), starts) | (top > DIVERGENCE_THRESHOLD)
    sides = side[starts].tolist()
    trace = tuple(zip(sides, top.tolist()))
    divergent_at = sides[int(np.argmax(divergent))] if divergent.any() else None
    return WeightClassReport(
        constant=max(r for _, r in trace),
        trace=trace,
        divergent=divergent_at is not None,
        divergent_at_side=divergent_at,
        **report,
    )


def rh_constant(V: Potential, q: float, window: Cube, depth: int) -> WeightClassReport:
    """Reverse-Holder ratio sup over the dyadic family of the window.

    Per cube: M_q / M_1, (mean of V^q)^(1/q) / (mean of V); for q = infinity
    the numerator is the max of V over an ESS_SUP_GRID-point refinement.  The
    estimate is a lower bound for the sup over all cubes.
    """
    if not (q == math.inf or q > 1.0):
        raise ParameterError(f"reverse-Holder exponent must be > 1, got {q}")
    if depth < 1:
        raise ParameterError("depth must be >= 1")
    if q == math.inf and 2**depth > 4096:
        raise ParameterError("q = infinity scan supports depth <= 12")
    return _power_mean_scan(V, window, depth, q, 1.0, kind="reverse_holder", exponent=q)


def ap_constant(V: Potential, p: float, window: Cube, depth: int) -> WeightClassReport:
    """Muckenhoupt quantity sup_Q (mean_Q V) * (mean_Q V^{-1/(p-1)})^{p-1}.

    Per cube that is M_1 / M_sigma with sigma = -1/(p-1).  The report
    carries the companion exponent beta = 2/(2 + n(p-1)) used by the
    averaged upper envelope.
    """
    if not p > 1.0:
        raise ParameterError(f"Muckenhoupt exponent must be > 1, got {p}")
    if depth < 1:
        raise ParameterError("depth must be >= 1")
    beta = 2.0 / (2.0 + V.n * (p - 1.0))
    return _power_mean_scan(V, window, depth, 1.0, -1.0 / (p - 1.0), kind="muckenhoupt", exponent=p, beta=beta)


@dataclass(frozen=True)
class DoublingFit:
    """Least-squares (C, epsilon) for mass ratios of nested concentric cubes.

    The doubling lemma guarantees some epsilon < 1 valid for *all* cube
    pairs; a family nested at a zero of V can legitimately fit a larger
    exponent (e.g. 3 for V = x^2 at the origin), so epsilon is reported
    unclamped.
    """

    C: float
    epsilon: float
    residual: float
    pairs: tuple[tuple[float, float], ...] = field(default=())


def doubling_fit(V: Potential, window: Cube, depth: int) -> DoublingFit:
    """Fit log(mass ratio) = epsilon * log(volume ratio) + log C.

    The family is the window and its concentric dyadic shrinkings; each
    depth contributes the pair (Z_d, window).
    """
    if depth < 3:
        raise ParameterError("doubling fit needs at least 3 nested pairs (depth >= 3)")
    if V.n != 1 or window.n != 1:
        raise ParameterError("doubling fit is one-dimensional")
    c = window.center[0]
    sides = window.side * 2.0 ** -np.arange(depth + 1)
    masses = interval_integral(V, c - sides / 2.0, c + sides / 2.0)
    masses = np.asarray(masses, dtype=float)
    if not np.all(np.isfinite(masses)) or masses[0] <= 0:
        raise ParameterError("doubling fit needs finite positive cube masses")
    xs = np.log(sides[1:] / sides[0]) * window.n
    ys = np.log(masses[1:] / masses[0])
    eps, logc = np.polyfit(xs, ys, 1)
    resid = float(np.max(np.abs(ys - (eps * xs + logc))))
    return DoublingFit(
        C=float(np.exp(logc)),
        epsilon=float(eps),
        residual=resid,
        pairs=tuple((float(s), float(m)) for s, m in zip(sides, masses)),
    )
