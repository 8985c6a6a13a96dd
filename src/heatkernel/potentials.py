"""Nonnegative potentials on the line, exact cube averages, and weight-class diagnostics.

Potentials are immutable value objects, all one-dimensional; a kind with no
exact interval integral is refused.  `Cube` stays n-dimensional, but every
average and scan here refuses n != 1.  The reverse-Holder and Muckenhoupt
constants are sups of power-mean ratios M_a / M_b, M_q = (mean of V^q)^(1/q),
over dyadic refinements of a window; V^q is integrated by one rule that
splits at V's break points.  The doubling fit uses nested cubes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
        # one write for both fields: the frozen class's `__setattr__` refuses them
        self.__dict__.update(center=center, side=float(side))

    @property
    def n(self) -> int:
        return len(self.center)

    def bounds(self, axis: int = 0) -> tuple[float, float]:
        c = self.center[axis]
        return c - self.side / 2.0, c + self.side / 2.0


# ---------------------------------------------------------------------------
# potential kinds


NO_BREAKS = (np.empty(0), np.empty(0))


class Potential:
    """Base class: V on the line, n = 1.  Subclasses are frozen dataclasses, safe to share/hash.

    `breaks` are the points where V vanishes, is singular or has a kink, each
    with an order o: near a break r, V(x) = |x - r|^o W(x), W bounded and > 0.
    """

    n = 1
    # whether V can be rough at a break (a fractional power): a cube with such a break is graded
    rough = True

    def __call__(self, x):
        raise NotImplementedError

    @property
    def breaks(self) -> tuple[np.ndarray, np.ndarray]:
        """(sorted points, their orders); a kind with no breaks lists none."""
        return NO_BREAKS

    def order_at(self, r):
        """The order of the break at each r, 0 where r is not a break point."""
        points, orders = self.breaks
        if not len(points):
            return np.zeros(np.shape(r))
        i = np.minimum(np.searchsorted(points, r), len(points) - 1)
        return np.where(points[i] == r, orders[i], 0.0)

    def near(self, r, h):
        """W = V(r + h) / |h|^order(r), h != 0; a kind with breaks evaluates it without cancelling or underflowing."""
        return self(r + h) / np.abs(h) ** self.order_at(r)


@dataclass(frozen=True)
class PolynomialPotential(Potential):
    """V(x) = sum_i coeffs[i] x^i.  Its breaks are its real roots, of order their multiplicity."""

    coeffs: tuple[float, ...]
    rough = False

    def __init__(self, coeffs: Sequence[float]):
        coeffs = tuple(float(c) for c in coeffs)
        if not coeffs:
            raise ParameterError("polynomial needs at least one coefficient")
        object.__setattr__(self, "coeffs", coeffs)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        Q, roots = self.factored
        val = npoly.polyval(x, Q)
        for r in roots:
            val = val * (x - r)
        return val if val.ndim else float(val)

    @property
    def breaks(self):
        return _poly_real_roots(self.coeffs)[:2]

    @cached_property
    def factored(self) -> tuple[np.ndarray, tuple[float, ...]]:
        """(Q, real roots each repeated by its multiplicity): V = Q(x) prod (x - root), which cancels at no root."""
        roots, mult = self.breaks
        if not len(roots):
            return np.asarray(self.coeffs), ()
        repeated = np.repeat(roots, mult.astype(int))
        return npoly.polydiv(self.coeffs, npoly.polyfromroots(repeated))[0], tuple(repeated.tolist())

    @cached_property
    def gauss(self) -> tuple[tuple[float, ...], tuple[float, ...], tuple[tuple[float, float], ...]]:
        """(Q's coefficients from the top, the roots, (node, weight) pairs of the (d // 2 + 1)-point rule)."""
        Q, roots = self.factored
        rule = _gl_rule((len(self.coeffs) - 1) // 2 + 1)
        return tuple(Q[::-1].tolist()), roots, tuple(zip(*(a.tolist() for a in rule)))

    def near(self, r, h):
        # the factored form with each x - root taken as (r - root) + h, which is h itself at r = root
        Q, roots = self.factored
        w = npoly.polyval(r + h, Q)
        for root in roots:
            d = (r - root) + h
            w = w * np.where(r == root, np.sign(d), d)
        return w


@dataclass(frozen=True)
class PowerPotential(Potential):
    """V(x) = |x|**alpha, one break at 0 of order alpha; for alpha < 0, V(0) is a domain error."""

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

    @property
    def breaks(self):
        return np.zeros(1), np.array([self.alpha])

    @property
    def rough(self):
        return not self.alpha.is_integer()

    def near(self, r, h):
        with np.errstate(divide="ignore"):
            return np.where(r == 0.0, 1.0, np.abs(r + h) ** self.alpha)


@dataclass(frozen=True)
class TabulatedPotential(Potential):
    """Piecewise-linear interpolant of uniform samples, values >= 0; its nodes are breaks of order (value == 0)."""

    xs: tuple[float, ...]
    values: tuple[float, ...]
    rough = False

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
        """(nodes, values, integral over each segment and a trailing 0)."""
        xs, vs = np.asarray(self.xs), np.asarray(self.values)
        return xs, vs, np.append(0.5 * (vs[1:] + vs[:-1]) * np.diff(xs), 0.0)

    @cached_property
    def breaks(self):
        xs, vs, _ = self.cumulative
        return xs, (vs == 0.0).astype(float)

    def near(self, r, h):
        # along the segment from the node x_i nearest r toward x = r + h, in u = x - x_i:
        # v_i + u (v_j - v_i) / (x_j - x_i), which keeps its relative accuracy at a zero node
        xs, vs, _ = self.cumulative
        i = np.clip(np.rint((r - xs[0]) / (xs[1] - xs[0])).astype(int), 0, len(xs) - 1)
        u = (r - xs[i]) + h
        j = np.clip(np.where(u > 0.0, i + 1, i - 1), 0, len(xs) - 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            return (vs[i] + u * (vs[j] - vs[i]) / (xs[j] - xs[i])) / np.abs(h) ** self.order_at(r)


@dataclass(frozen=True)
class ScaledPotential(Potential):
    """c * V with c > 0; the breaks of V."""

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

    @property
    def breaks(self):
        return self.base.breaks

    @property
    def rough(self):
        return self.base.rough

    def near(self, r, h):
        return self.factor * self.base.near(r, h)


@dataclass(frozen=True)
class SumPotential(Potential):
    """V1 + V2 + ... , all of equal dimension.

    Its breaks are its parts', each of the lowest order of any part there (0
    for a part with no break there, which is positive there).
    """

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

    @property
    def rough(self):
        return any(p.rough for p in self.parts)

    @cached_property
    def breaks(self):
        points = np.unique(np.concatenate([p.breaks[0] for p in self.parts]))
        return points, np.min([p.order_at(points) for p in self.parts], axis=0)

    def near(self, r, h):
        # each part's own W, so that no |h|^o underflows: V / |h|^o = sum W_i |h|^(o_i - o)
        o = self.order_at(r)
        return sum(p.near(r, h) * np.abs(h) ** (p.order_at(r) - o) for p in self.parts)


def constant(c: float) -> PolynomialPotential:
    """V = c >= 0."""
    if c < 0:
        raise ParameterError("constant potential must be >= 0")
    return PolynomialPotential([c])


# ---------------------------------------------------------------------------
# exact 1D interval integrals


def _abs_power_interval(lo, hi, s, excision=0.0):
    """int over [lo, hi] of |x|^s less (-excision, excision), vectorized; +inf where divergent."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    total = 0.0
    for a, b in ((-hi, -lo), (lo, hi)):  # |x| on x < 0, then on x > 0
        # 0-d arrays, not numpy scalars: a scalar's ** can round differently from the array loop's
        a, b = np.broadcast_arrays(np.maximum(np.maximum(a, 0.0), excision), b)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            part = np.log(b) - np.log(a) if s == -1.0 else (b ** (s + 1.0) - a ** (s + 1.0)) / (s + 1.0)
        total = total + np.where(b > a, np.where((a == 0.0) & (s <= -1.0), np.inf, part), 0.0)
    return total


@lru_cache(maxsize=None)
def _gl_rule(n: int):
    """The n-point Gauss-Legendre rule on [-1, 1], built on first use (it starts LAPACK, ~1 MB of RSS)."""
    return np.polynomial.legendre.leggauss(n)


def _poly_interval_integral(V: PolynomialPotential, lo, hi):
    """Gauss-Legendre with d // 2 + 1 nodes about the centre of each [lo, hi]: exact for degree d.

    For V >= 0 no term is negative, and V in factored form cancels at no root, so
    a small cube far from 0 or at a root keeps its digits.  One loop serves floats and arrays.
    """
    top_down, roots, rule = V.gauss
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    total = 0.0
    for t, w in rule:
        x, v = mid + half * t, 0.0
        for a in top_down:
            v = a + v * x
        for r in roots:
            v = v * (x - r)
        total = total + w * v
    return half * total


def _table_integral(V: TabulatedPotential, lo, hi):
    """Exact integral of the interpolant over each [lo, hi] from its own pieces, all >= 0: nothing cancels."""
    xs, vs, segs = V.cumulative
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    i, j = (np.clip(np.searchsorted(xs, e, side="right") - 1, 0, len(xs) - 2) for e in (lo, hi))
    a, b = (vs[k] + (e - xs[k]) * (vs[k + 1] - vs[k]) / (xs[k + 1] - xs[k]) for k, e in ((i, lo), (j, hi)))
    whole = np.add.reduceat(segs, np.stack([i + 1, np.maximum(j, i + 1)], axis=-1).ravel())[::2].reshape(i.shape)
    ends = 0.5 * (a + vs[i + 1]) * (xs[i + 1] - lo), 0.5 * (vs[j] + b) * (hi - xs[j])
    return np.where(i == j, 0.5 * (a + b) * (hi - lo), ends[0] + np.where(j > i + 1, whole, 0.0) + ends[1])


def interval_integral(V: Potential, lo, hi):
    """Exact integral of a 1D potential over [lo, hi] (vectorized); +inf where a power is not integrable."""
    if V.n != 1:
        raise ParameterError("interval_integral is one-dimensional")
    if isinstance(V, PolynomialPotential):
        return _poly_interval_integral(V, lo, hi)
    if isinstance(V, PowerPotential):
        return _abs_power_interval(lo, hi, V.alpha)
    if isinstance(V, TabulatedPotential):
        lo_a, hi_a = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
        if np.any(lo_a < V.xs[0] - 1e-12) or np.any(hi_a > V.xs[-1] + 1e-12):
            raise DomainError("interval outside tabulated domain")
        return _table_integral(V, lo, hi)
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
def _poly_real_roots(coeffs: tuple[float, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(real roots, multiplicities as floats, the other roots above the axis), found once per coefficient tuple.

    Near-real roots split where their gap exceeds ROOT_TOL max(1, |root|); a group is one root at its mean.
    """
    c = np.trim_zeros(np.asarray(coeffs, dtype=float), "b")
    with np.errstate(all="ignore"):  # a companion matrix past the float range has no roots to give
        finite = len(c) > 1 and np.all(np.isfinite(c / c[-1]))
        roots = npoly.polyroots(c) if finite else np.empty(0, dtype=complex)
    real = np.sort(roots.real[np.abs(roots.imag) <= ROOT_TOL * np.maximum(1.0, np.abs(roots))])
    gaps = np.diff(real) > ROOT_TOL * np.maximum(1.0, np.abs(real[1:]))
    groups = np.split(real, np.flatnonzero(gaps) + 1) if real.size else []
    centers = np.array([g.mean() for g in groups])
    mult = np.array([len(g) for g in groups], dtype=float)
    poles = roots[roots.imag > ROOT_TOL * np.maximum(1.0, np.abs(roots))]
    centers.flags.writeable = mult.flags.writeable = poles.flags.writeable = False
    return centers, mult, poles


# The one rule for V^q (`_scaled_powered_integral`): FLAT bounds q log(max V / min V) over a
# cube's nodes for plain Gauss-Legendre, and a complex root of a polynomial inside the cube's
# Bernstein ellipse POLE_RHO would cost its 33 nodes digits (about POLE_RHO^-66).  A graded half
# takes LEVELS pieces of ratio GRADING, each spanning at most SPAN in log |x - r|^(t+1).
GL_NODES, FLAT, POLE_RHO = 33, 30.0, 1.5
GRADING, LEVELS, SPAN = 0.25, 25, 40.0


def powered_interval_integral(V: Potential, lo, hi, q: float, excision: float = 0.0):
    """(integral of V**q over each [lo_i, hi_i], analytic-divergence mask); inf past the float range."""
    J, scale, divergent = _scaled_powered_integral(V, lo, hi, q, excision)
    with np.errstate(over="ignore"):
        return scale**q * J, divergent


def _scaled_powered_integral(V: Potential, lo, hi, q: float, excision=0.0):
    """(J, s, mask): the integral of V**q over [lo_i, hi_i] is s_i^q J_i, so that no cube overflows.

    After scale factors, a power has its closed form in units of the cube's
    farthest point from 0 (nearest when alpha q <= -1).  Any other kind takes
    one plain Gauss-Legendre call, in units of the max of V on its nodes, on
    cubes where that is exact (integer q >= 1, degree d, d q // 2 + 1 <= 33
    nodes) or where no break or near complex root lies and q log(max V /
    min V) <= FLAT; the rest go to `_graded_pieces`, cut also at near complex
    roots and at an inner peak of V^q on the nodes.
    The mask marks a break of order o, o q <= -1, within 1e-12 of the cube: a
    power then returns the integral less (-excision, excision), any other kind +inf.
    """
    if V.n != 1:
        raise ParameterError("powered_interval_integral is one-dimensional")
    factor = 1.0
    while isinstance(V, ScaledPotential):
        factor, V = factor * V.factor, V.base
    lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    if isinstance(V, PowerPotential):
        s = V.alpha * q
        divergent = (lo <= 1e-300) & (hi >= -1e-300) & (s <= -1.0)
        cut = np.where(divergent, excision, 0.0)
        c = np.where(s > -1.0, np.maximum(-lo, hi), np.maximum(np.maximum(np.maximum(lo, -hi), 0.0), cut))
        c = np.where(c > 0.0, c, 1.0)
        return c * _abs_power_interval(lo / c, hi / c, s, cut / c), factor * c**V.alpha, divergent
    shape, lo, hi = lo.shape, lo.ravel(), hi.ravel()
    points, orders = V.breaks
    first = np.searchsorted(points, lo - 1e-12)
    last = np.searchsorted(points, hi + 1e-12, side="right")
    bad = np.concatenate([[0], np.cumsum(orders * q <= -1.0)])
    divergent = bad[last] > bad[first]
    J, scale = np.full(lo.shape, np.inf), np.full(lo.shape, factor)
    deg = len(V.coeffs) - 1 if isinstance(V, PolynomialPotential) else -1
    exact = deg >= 0 and float(q).is_integer() and 1.0 <= q and deg * q <= 65
    nodes, weights = _gl_rule(int(deg * q) // 2 + 1 if exact else GL_NODES)
    at = np.flatnonzero(~divergent)
    mid, half = 0.5 * (lo[at] + hi[at]), 0.5 * (hi[at] - lo[at])
    x = half * nodes[:, None]  # one column per cube; in place below, as these arrays are large
    x += mid
    if (orders < 0).any():  # a node on a singularity moves off it by an ulp
        x = np.where(np.isin(x, points[orders < 0]), np.nextafter(x, np.inf), x)
    with np.errstate(over="ignore"):
        f = np.clip(V(x), 0.0, None)
    top, low = f.max(axis=0), f if exact else f.min(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        in_range = abs(q) * np.maximum(abs(np.log(top)), 0.0 if exact else abs(np.log(low))) < 700.0
        spread = None if exact else abs(q) * np.log(top / low)
    graded = np.empty(0, dtype=int)
    if not exact:  # cut points besides the breaks: complex roots near the cube, and V^q's peak among the nodes
        z = _poly_real_roots(V.coeffs)[2] if deg > 0 else np.empty(0, dtype=complex)
        near = np.zeros((at.size, z.size), dtype=bool)
        if z.size:  # within the ellipse with foci lo, hi and focal sum (POLE_RHO + 1/POLE_RHO) half
            big = np.flatnonzero(half > np.abs(z.imag).min() / (0.5 * (POLE_RHO - 1.0 / POLE_RHO)))
            w = (z - mid[big, None]) / half[big, None]
            near[big] = np.abs(w - 1.0) + np.abs(w + 1.0) < POLE_RHO + 1.0 / POLE_RHO
        graded = np.flatnonzero(~((last == first)[at] & (spread <= FLAT) & ~near.any(axis=-1)))
        k = np.argmax(f[:, graded] if q > 0 else -f[:, graded], axis=0)
        peak = np.where((spread[graded] > FLAT) & (k > 0) & (k < len(nodes) - 1), x[k, graded], np.nan)
    # plain Gauss-Legendre, in units of 1 where V^q stays in range on the nodes, else of the max of V
    top = np.where(in_range, 1.0, np.where(top > 0.0, top, 1.0))
    with np.errstate(divide="ignore", over="ignore"):
        if not np.all(top == 1.0):
            f /= top
        np.power(f, q, out=f)
    f *= weights[:, None]
    J[at], scale[at] = half * f.sum(axis=0), factor * top
    if graded.size:
        cubes = at[graded]
        poles = np.where(near[graded], np.clip(z.real, lo[cubes][:, None], hi[cubes][:, None]), np.nan)
        inner = np.searchsorted(points, lo[cubes]), np.searchsorted(points, hi[cubes], side="right")
        extra = np.column_stack([peak, poles])
        # graded toward every cut where V^q is far from flat, a break is no smooth kink, or a complex root is near
        zero = np.concatenate([[0], np.cumsum(orders != 0.0)])
        rough_break = (zero[inner[1]] > zero[inner[0]]) | (V.rough & (inner[1] > inner[0]))
        steps = np.where((spread[graded] > FLAT) | rough_break | near[graded].any(axis=-1), LEVELS, 0)
        J[cubes], s = _graded_pieces(V, lo[cubes], hi[cubes], q, *inner, extra, steps)
        scale[cubes] = factor * s
    return J.reshape(shape), scale.reshape(shape), divergent.reshape(shape)


def _graded_pieces(V: Potential, lo, hi, q: float, first, last, extra, steps):
    """(J, s) on the cubes [lo_i, hi_i], whose breaks are V.breaks[first_i:last_i], more cuts in extra (or nan).

    Each cube is cut at its ends, breaks and extra cuts; each piece between cuts
    is halved, and a half from cut r (order o, 0 unless a break) is graded in
    steps_i pieces toward r.  With t = o q, delta = |x - r| and W = V / delta^o
    (`near`), V^q dx = delta^(t+1) W^q dlog(delta): Gauss-Legendre in
    log(delta), and on the innermost piece in v, delta = b v^(1/(t+1)), where
    V^q dx = b^(t+1)/(t+1) W^q dv.  Sums run in logs less each cube's largest
    term m: J = sum exp(term - m), s = exp(m / q).
    """
    points, orders = V.breaks
    n = lo.size
    count = last - first
    j = np.arange(count.sum()) + np.repeat(first - np.cumsum(count) + count, count)
    inside = np.nonzero(~np.isnan(extra))
    cube = np.concatenate([np.repeat(np.arange(n), count), inside[0], np.arange(n), np.arange(n)])
    r = np.concatenate([points[j], extra[inside], lo, hi])
    t = np.concatenate([orders[j] * q, np.zeros(inside[0].size + 2 * n)])
    # the cuts of each cube in order, one per place, where a break wins
    order = np.lexsort((np.arange(cube.size) >= j.size, r, cube))
    cube, r, t = cube[order], r[order], t[order]
    one = np.concatenate([[True], (np.diff(cube) != 0) | (np.diff(r) != 0.0)])
    cube, r, t = cube[one], r[one], t[one]
    # each piece between consecutive cuts as two halves, side by side to keep the cube order
    a = np.flatnonzero(cube[1:] == cube[:-1])
    halves, end = np.column_stack([a, a + 1]).ravel(), np.repeat(0.5 * (r[a] + r[a + 1]), 2)
    halves, end = halves[end != r[halves]], end[end != r[halves]]
    # the pieces of each half, k = 0..steps, at distances [inner, outer] from r
    size = steps[cube[halves]] + 1
    k = np.arange(size.sum()) - np.repeat(np.cumsum(size) - size, size)
    h, end = np.repeat(halves, size), np.repeat(end, size)
    cube, r, t = cube[h], r[h], t[h]
    ratio = np.maximum(GRADING, np.exp(-SPAN / (t + 1.0)))
    outer = np.abs(end - r) * ratio**k
    inner = np.where(k == steps[cube], 0.0, outer * ratio)
    nodes, weights = _gl_rule(GL_NODES)
    u = 0.5 * (nodes + 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        graded, span = (inner > 0.0)[:, None], np.log(outer / inner)[:, None]
        delta = np.where(graded, inner[:, None] * np.exp(span * u), outer[:, None] * u ** (1.0 / (t + 1.0))[:, None])
        delta = np.maximum(delta, np.finfo(float).tiny)
        lead = np.where(
            graded,
            (t + 1.0)[:, None] * np.log(delta) + np.log(0.5 * span),
            ((t + 1.0) * np.log(outer) - np.log(2.0 * (t + 1.0)))[:, None],
        )
        W = np.clip(V.near(r[:, None], np.sign(end - r)[:, None] * delta), 0.0, None)
        term = np.where((outer > 0.0)[:, None], lead + np.log(weights) + q * np.log(W), -np.inf)
    m = np.full(n, -np.inf)
    np.maximum.at(m, cube, term.max(axis=1))
    m = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(over="ignore"):  # where a term is +inf, so is the integral
        return np.bincount(cube, np.exp(term - m[cube, None]).sum(axis=1), minlength=n), np.exp(m / q)


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
    center = Z.center
    if V.n != 1 or len(center) != 1:
        raise ParameterError(f"cube_average is one-dimensional, got potential n={V.n} and cube n={len(center)}")
    half = Z.side / 2.0  # `Z.bounds(0)` inline: the same IEEE operations
    lo, hi = center[0] - half, center[0] + half
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
    """Scan of a weight-class ratio over a dyadic cube family; constant is the max of the trace ratios.

    A divergent report has a cube integral analytically non-integrable (or a ratio above
    DIVERGENCE_THRESHOLD); a power's trace then shows the ratio excised at radius
    window_side 8^-(d+2) at level d, which grows without bound as the family refines.
    """

    kind: str
    exponent: float
    constant: float
    trace: tuple[tuple[float, float], ...]
    divergent: bool
    divergent_at_side: float | None
    beta: float | None = None


ESS_SUP_GRID = 2**10  # refinement points per cube for the q = infinity scan


def _power_means(V: Potential, lo, hi, side, q: float, excision):
    """(power mean M_q = (mean of V^q)^(1/q) on each cube [lo_i, hi_i], divergence flags).

    A mean divides by hi_i - lo_i, which rounded edges can put an ulp off side_i.  M_inf is
    the max of V on ESS_SUP_GRID + 1 points per cube, one side at a time (+inf and a flag
    where V is singular); any other q != 1 is s (J / length)^(1/q) of `_scaled_powered_integral`.
    """
    if q == 1.0:
        return interval_integral(V, lo, hi) / (hi - lo), np.zeros(lo.shape, dtype=bool)
    if q == math.inf:
        points, orders = V.breaks
        flags = np.any((lo[:, None] <= points[orders < 0.0]) & (points[orders < 0.0] <= hi[:, None]), axis=-1)
        sup = np.full(lo.shape, np.inf)
        for s in np.unique(side).tolist():
            at = (side == s) & ~flags
            sup[at] = np.max(V(lo[at][:, None] + np.linspace(0.0, s, ESS_SUP_GRID + 1)), axis=1)
        return sup, flags
    J, scale, flags = _scaled_powered_integral(V, lo, hi, q, excision=excision)
    with np.errstate(divide="ignore", invalid="ignore"):
        return scale * (np.clip(J, 0.0, None) / (hi - lo)) ** (1.0 / q), flags


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
    return DoublingFit(C=float(np.exp(logc)), epsilon=float(eps), residual=resid)
