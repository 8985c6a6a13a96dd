"""Nonnegative potentials on the line, exact cube averages, and weight-class diagnostics.

Potentials are immutable value objects on the line, and a cube is an
interval given by two numbers, its center and side; a kind with no exact
interval integral is refused.  The reverse-Holder and Muckenhoupt constants
are sups of power-mean ratios M_a / M_b, M_q = (mean of V^q)^(1/q), over
dyadic refinements of a window; V^q is integrated by one rule that splits at
V's break points.  The doubling fit uses nested cubes.
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


def m_beta(x, beta: float):
    """Piecewise weight: identity below 1, power beta above 1, of a number or elementwise of an array.

    Continuous at the knee x = 1, nondecreasing, and <= x everywhere on
    [0, inf) since 0 < beta <= 1.  A number gives a float.  The powers go
    through Python's `**`: numpy's SIMD power can differ from libm's in
    the last bit.
    """
    if not 0.0 < beta <= 1.0:
        raise ParameterError(f"beta must lie in (0, 1], got {beta}")
    a = np.array(x, dtype=float, ndmin=1)
    if np.any(a < 0.0):
        raise ParameterError(f"m_beta argument must be >= 0, got {a[a < 0.0][0]}")
    above = a > 1.0
    a[above] = [v**beta for v in a[above].tolist()]
    return a.reshape(np.shape(x)) if np.ndim(x) else float(a[0])


# ---------------------------------------------------------------------------
# potential kinds


NO_BREAKS = (np.empty(0), np.empty(0))


class Potential:
    """Base class: V on the line.  Subclasses are frozen dataclasses, safe to share/hash.

    `breaks` are the points where V vanishes, is singular or has a kink, each
    with an order o: near a break r, V(x) = |x - r|^o W(x), W bounded and > 0.
    `cube_memo` holds the cube averages `cube_average` has computed for this
    instance: it never changes a value and takes no part in equality or
    hashing.  It serves closed-form `bounds`, which asks for 8 scalar averages
    per grid point, most of them repeats (`bounds._cube_means`); once that
    loop is one batched call over the distinct cubes, the memo should go
    unless something else still repeats scalar averages.
    """

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

    @cached_property
    def cube_memo(self) -> dict[tuple[float, float], float]:
        """{(center, side): mean} of the cubes `cube_average` has averaged V over, at most CUBE_MEMO_CAP of them."""
        return {}


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
        Q, roots, check = self.factored
        val = npoly.polyval(x, Q)
        for r in roots:
            val = val * (x - r)
        if check:
            val = self._checked(x, val)
        return val if val.ndim else float(val)

    @property
    def breaks(self):
        return _poly_real_roots(self.coeffs)[:2]

    @cached_property
    def factored(self) -> tuple[np.ndarray, tuple[float, ...], bool]:
        """(Q, real roots each repeated by its multiplicity, check): V = Q(x) prod (x - root), which cancels at no root.

        The division's remainder is dropped, so its values need `_checked` (check) when the
        remainder is not 0, or when a coefficient or a root is below 1e-150 or above 1e150 in
        size and the products could leave the normal range.  A division that overflows takes
        out no root.
        """
        roots, mult = self.breaks
        repeated = np.repeat(roots, mult.astype(int))
        with np.errstate(all="ignore"):
            Q, rest = npoly.polydiv(self.coeffs, npoly.polyfromroots(repeated))
        if not len(roots) or not np.all(np.isfinite(rest)):
            return np.asarray(self.coeffs), (), False
        c = np.abs(self.coeffs)
        check = np.any(rest) or np.any((c > 0.0) & (c < 1e-150)) or np.abs(roots).max() > 1e150
        return Q, tuple(repeated.tolist()), bool(check)

    def _checked(self, x, v):
        """v, the factored form's values at x, where they agree with polyval within its error bound
        (d + 1) eps sum |c_i| |x|^i (Higham, Accuracy and Stability, 5.1), and polyval's elsewhere.

        A root far from 0 comes out of the eigensolve inexact, and the dropped remainder of the
        division by it is not small away from it: 1 + x^2 + 1e-8 x^3 read V(0) = 0.  Near a
        root, where polyval cancels, the factored form keeps V's digits.
        """
        c = self.coeffs
        plain = npoly.polyval(x, c)
        agree = np.abs(v - plain) <= len(c) * np.finfo(float).eps * npoly.polyval(np.abs(x), np.abs(c))
        return np.where(agree, v, plain)

    @cached_property
    def gauss(self) -> tuple[tuple[float, ...], tuple[float, ...], tuple[tuple[float, float], ...]]:
        """(Q's coefficients from the top, the roots, (node, weight) pairs of the (d // 2 + 1)-point rule)."""
        Q, roots, _ = self.factored
        rule = _gl_rule((len(self.coeffs) - 1) // 2 + 1)
        return tuple(Q[::-1].tolist()), roots, tuple(zip(*(a.tolist() for a in rule)))

    def near(self, r, h):
        # the factored form with each x - root taken as (r - root) + h, which is h itself at r = root
        Q, roots, _ = self.factored
        if not roots:  # the division overflowed and the breaks stay in Q
            return super().near(r, h)
        w = npoly.polyval(r + h, Q)
        for root in roots:
            d = (r - root) + h
            w = w * np.where(r == root, np.sign(d), d)
        return w


@dataclass(frozen=True)
class PowerPotential(Potential):
    """V(x) = |x|**alpha, finite alpha > -1 (locally integrable), a break at 0 of order alpha; alpha < 0 raises at 0."""

    alpha: float

    def __init__(self, alpha: float):
        if not -1.0 < (alpha := float(alpha)) < math.inf:
            raise ParameterError(f"power exponent must be a finite number > -1, got {alpha}")
        object.__setattr__(self, "alpha", alpha)

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
    """Piecewise-linear interpolant of uniform samples, finite values >= 0; nodes are breaks of order (value == 0)."""

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
        if not all(0.0 <= v < math.inf for v in values):
            raise ParameterError("tabulated values must be finite and >= 0")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "values", values)

    def __call__(self, x):
        val = np.interp(self._inside(x), self.xs, self.values)
        return val if val.ndim else float(val)

    def _inside(self, x) -> np.ndarray:
        """x as a float array; the first point more than 1e-12 outside the table raises DomainError naming it."""
        arr, lo, hi = np.asarray(x, dtype=float), self.xs[0], self.xs[-1]
        if np.any(out := (arr < lo - 1e-12) | (arr > hi + 1e-12)):
            raise DomainError(f"point {float(arr[out][0])!r} outside tabulated domain [{lo!r}, {hi!r}]")
        return arr

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
    """V1 + V2 + ...

    Its breaks are its parts', each of the lowest order of any part there (0
    for a part with no break there, which is positive there).
    """

    parts: tuple[Potential, ...]

    def __init__(self, *parts: Potential):
        if not parts:
            raise ParameterError("sum potential needs at least one part")
        object.__setattr__(self, "parts", tuple(parts))

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
    check = V.factored[2]
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    total = 0.0
    for t, w in rule:
        x, v = mid + half * t, 0.0
        for a in top_down:
            v = a + v * x
        for r in roots:
            v = v * (x - r)
        total = total + w * (V._checked(x, v) if check else v)
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
    """Exact integral of V over [lo, hi] (vectorized); inf or nan only where it leaves the float range."""
    if isinstance(V, PolynomialPotential):
        return _poly_interval_integral(V, lo, hi)
    if isinstance(V, PowerPotential):
        return _abs_power_interval(lo, hi, V.alpha)
    if isinstance(V, TabulatedPotential):
        V._inside(np.stack(np.broadcast_arrays(lo, hi), axis=-1))  # interval by interval, lo then hi
        return _table_integral(V, lo, hi)
    if isinstance(V, ScaledPotential):
        return V.factor * interval_integral(V.base, lo, hi)
    if isinstance(V, SumPotential):
        return sum(interval_integral(p, lo, hi) for p in V.parts)
    raise ParameterError(f"no interval integral for {type(V).__name__}")


# A double root comes out of the companion-matrix eigensolve split by about
# sqrt(machine eps) ~ 1.5e-8 of its size, along either axis.  Roots within
# ROOT_TOL of their size of each other are one root, and a root that close to
# the real axis is real.  A root of multiplicity k >= 3 comes out as a k-gon
# of radius about eps^(1/k) of its size, or wider when another root is near:
# ROOT_TOL^(2/degree) bounds where one is looked for, and the derivatives
# decide (`_multiple_root`).
ROOT_TOL = 1e-6


def _multiple_root(derivatives: list, sizes: list, start: float, k: int) -> tuple[float, bool]:
    """(r, whether the polynomial p has a root of multiplicity k at r), given p, p', p'', ...
    as derivatives and the same of the polynomial with coefficients |c| as sizes.

    r is Newton's refinement of start on p^(k-1), of which such a root is a simple root.  It
    counts when |p^(j)(r)| <= ROOT_TOL^2 sizes[j](|r|) for each j < k: rounding's size, or
    that of a cluster of radius about ROOT_TOL of r's size, as for a pair.
    """
    r = start
    for _ in range(8):
        r -= npoly.polyval(r, derivatives[k - 1]) / npoly.polyval(r, derivatives[k])
    tests = zip(derivatives[:k], sizes)
    return r, all(abs(npoly.polyval(r, d)) <= ROOT_TOL**2 * npoly.polyval(abs(r), s) for d, s in tests)


@lru_cache(maxsize=32)
def _poly_real_roots(coeffs: tuple[float, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(real roots, multiplicities as floats, the other roots above the axis), found once per coefficient tuple.

    First the k >= 3 roots nearest a root (the largest such k) become k copies of a real r when they
    lie about equally far from their mean, it lies within ROOT_TOL max(1, |mean|) of the axis, and
    `_multiple_root` finds a root of multiplicity k at r, within their spread of the mean; the other
    roots are then those of the quotient by the multiple roots.  Then near-real roots split where
    their gap exceeds ROOT_TOL max(1, |root|); a group is one root at its mean.
    """
    c = np.trim_zeros(np.asarray(coeffs, dtype=float), "b")
    with np.errstate(all="ignore"):  # a companion matrix past the float range has no roots to give
        finite = len(c) > 1 and np.all(np.isfinite(c / c[-1]))
        roots = npoly.polyroots(c) if finite else np.empty(0, dtype=complex)
    # a root of a k-gon has two others within 2 ROOT_TOL^(2/k) of its size; k = degree is the loosest bound.
    # Sums past the float range (roots near 1e308) are inf or nan and pass no test.
    free, multiple = np.ones(len(roots), dtype=bool), np.zeros(len(roots), dtype=bool)
    with np.errstate(all="ignore"):
        if len(roots) >= 3:
            second = np.sort(np.abs(roots[:, None] - roots), axis=1)[:, 2]
            free = second <= 2.0 * ROOT_TOL ** (2.0 / len(roots)) * (1.0 + np.abs(roots) + second)
            derivatives, sizes = [c], [np.abs(c)]  # p, p', ..., p^(degree), and the same of |c|
            for _ in range(len(roots)):
                derivatives.append(npoly.polyder(derivatives[-1]))
                sizes.append(npoly.polyder(sizes[-1]))
        for i in np.flatnonzero(free):
            if not free[i]:
                continue
            near = np.flatnonzero(free)
            near = near[np.argsort(np.abs(roots[near] - roots[i]), kind="stable")]
            # a sieve over every k: row k - 1 holds the k nearest about their running mean, `slack` from .mean()
            means = np.cumsum(roots[near]) / np.arange(1, len(near) + 1)
            dist, first_k = np.abs(roots[near] - means[:, None]), np.tri(len(near), dtype=bool)
            slack = 1e-12 * np.maximum.accumulate(np.abs(roots[near]))
            wide = np.max(dist, axis=1, where=first_k, initial=0.0) - slack
            narrow = np.min(dist, axis=1, where=first_k, initial=np.inf) + slack
            gons = (wide <= 2.0 * narrow) & (np.abs(means.imag) - slack <= ROOT_TOL * np.maximum(1.0, np.abs(means)))
            for k in np.flatnonzero(gons[2:])[::-1] + 3:
                mean = roots[near[:k]].mean()
                spread, scale = np.abs(roots[near[:k]] - mean), max(1.0, abs(mean))
                if spread.max() <= 2.0 * spread.min() and abs(mean.imag) <= ROOT_TOL * scale:
                    r, holds = _multiple_root(derivatives, sizes, mean.real, k)
                    if holds and abs(r - mean) <= spread.max():
                        roots[near[:k]], free[near[:k]], multiple[near[:k]] = r, False, True
                        break
        if multiple.any():
            quotient = npoly.polydiv(c, npoly.polyfromroots(roots[multiple].real))[0]
            roots = np.concatenate([roots[multiple], npoly.polyroots(quotient)])
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
# takes LEVELS pieces of ratio GRADING, each spanning at most SPAN in log |x - r|^(t+1).  A plain
# cube of a polynomial takes the fewest nodes of _ORDERS whose a-priori error bound on the
# Bernstein ellipse through V's nearest root reaches rounding (`_gl_orders`, `_order_reach`),
# and GL_NODES where none does.
GL_NODES, FLAT, POLE_RHO = 33, 30.0, 1.5
GRADING, LEVELS, SPAN = 0.25, 25, 40.0
_ORDERS = (5, 9, 17, GL_NODES)


def _gl_orders(V: Potential, q: float, lo, hi, clear) -> np.ndarray:
    """The Gauss-Legendre order of V^q on each cube [lo_i, hi_i]: GL_NODES unless V is a polynomial
    whose roots are trusted, the cube is clear (no break within 1e-12) and its nearest root is far
    enough out for fewer nodes (`_order_reach`).

    A polynomial's roots are not trusted when its values need `_checked`, when the division by its
    real roots overflowed (coefficients spanning 1e219 lose roots in the eigensolve), or when the
    eigensolve returned fewer roots than the degree.  With the cube mapped to [-1, 1], a root w lies
    on the Bernstein ellipse of semi-axis (|w - 1| + |w + 1|) / 2; the nearest root's is at most 1e8.
    """
    if not isinstance(V, PolynomialPotential):
        return np.full(lo.shape, GL_NODES)
    points, mult, poles = _poly_real_roots(V.coeffs)
    _, factors, check = V.factored
    degree = max((i for i, c in enumerate(V.coeffs) if c), default=-1)
    if check or (points.size and not factors) or mult.sum() + 2 * poles.size != degree:
        return np.full(lo.shape, GL_NODES)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # a root past the float range: a = 1e8
        w = (np.concatenate([points, poles])[:, None] - mid) / half
        a = np.minimum(0.5 * np.min(np.abs(w - 1.0) + np.abs(w + 1.0), axis=0, initial=np.inf), 1e8)
    reached = sum(a >= reach for reach in _order_reach(float(q), degree))  # 0 to 3 of 17, 9, 5 nodes
    return np.where(clear, np.take(_ORDERS[::-1], reached), GL_NODES)


@lru_cache(maxsize=64)
def _order_reach(q: float, degree: int) -> np.ndarray:
    """The least semi-axis a of a cube's nearest root from which 17, 9 and 5 nodes integrate V^q to
    2^-53, V of the given degree, on a grid of a, 1 + 10^k for k from -4 to 8 in steps of 0.005.

    With the cube mapped to [-1, 1], n nodes err by at most 64/15 M rho^(2-2n) / (rho^2 - 1) on an f
    analytic and bounded by M in the Bernstein ellipse E_rho (Trefethen, SIAM Review 50 (2008) 67-87,
    Thm 4.5, whose I_n takes n + 1 nodes).  V^q is analytic inside the ellipse through V's nearest
    root, of semi-axis a, and every root w' lies at |z - w'| within a_w' -+ a_rho of E_rho and
    a_w' -+ 1 of the cube, a_w' >= a.  So M over the cube's least V^q is at most
    ((a + a_rho) / (a - 1))^(q d) for q > 0 and ((a + 1) / (a - a_rho))^(-q d) for q < 0, d the
    degree: a growth counted through |q| d.  The cube's integral is at least twice that least V^q, so
    the relative error is at most 32/15 of that growth times rho^(2-2n) / (rho^2 - 1), taken at
    rho = rho_0^theta for a few theta, rho_0 = a + sqrt(a^2 - 1) the nearest root's.  Fewer than
    GL_NODES nodes also need |q| d log((a + 1) / (a - 1)) <= FLAT, a bound on |q| log(max V / min V)
    over the whole cube, so GL_NODES nodes would take such a cube plain too: no break is near, and no
    complex root lies inside its ellipse POLE_RHO.  Each bound falls as a grows, so the first grid
    point that meets it is a threshold for every a above it.
    """
    a = 1.0 + np.logspace(-4.0, 8.0, 2401)
    growth = abs(q) * degree
    log_rho = np.array([[0.25], [0.5], [0.75], [0.9]]) * np.arccosh(a)
    a_rho = np.cosh(log_rho)
    ratio = (a + a_rho) / (a - 1.0) if q > 0 else (a + 1.0) / (a - a_rho)
    bound = np.log(32.0 / 15.0) + growth * np.log(ratio) - np.log(np.expm1(2.0 * log_rho))
    # the fewest nodes n with bound - 2 (n - 1) log rho <= log 2^-53 at some rho
    need = 1.0 + np.min((bound + 53.0 * math.log(2.0)) / (2.0 * log_rho), axis=0)
    need[growth * np.log((a + 1.0) / (a - 1.0)) > FLAT] = np.inf
    return np.array([a[np.argmax(need <= n)] if np.any(need <= n) else np.inf for n in _ORDERS[-2::-1]])


def _scaled_powered_integral(V: Potential, lo, hi, q: float, excision=0.0):
    """(J, s, mask): the integral of V**q over [lo_i, hi_i] is s_i^q J_i, so that no cube overflows.

    After scale factors, a power has its closed form in units of the cube's
    farthest point from 0 (nearest when alpha q <= -1).  Any other kind takes
    plain Gauss-Legendre, in units of the max of V on its nodes, on cubes
    where that is exact (integer q >= 1, degree d, d q // 2 + 1 <= 33 nodes)
    or where no break or near complex root lies and q log(max V / min V) <=
    FLAT, with GL_NODES nodes or the fewer `_gl_orders` allows, one call per
    order; the rest go to `_graded_pieces`, cut also at near complex roots
    and at an inner peak of V^q on the nodes.
    The mask marks a break of order o, o q <= -1, within 1e-12 of the cube: a
    power then returns the integral less (-excision, excision), any other kind +inf.
    """
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
    live = np.flatnonzero(~divergent)
    if exact:
        groups = [(int(deg * q) // 2 + 1, live)]
    else:
        rule = _gl_orders(V, q, lo[live], hi[live], (last == first)[live])
        groups = [(n, live[rule == n]) for n in _ORDERS]
    for n, at in groups:
        if not at.size:
            continue
        nodes, weights = _gl_rule(n)
        mid, half = 0.5 * (lo[at] + hi[at]), 0.5 * (hi[at] - lo[at])
        x = half * nodes[:, None]  # one column per cube; in place below, as these arrays are large
        x += mid
        if (orders < 0).any():  # a node on a singularity moves off it by an ulp
            x = np.where(np.isin(x, points[orders < 0]), np.nextafter(x, np.inf), x)
        with np.errstate(over="ignore"):
            f = np.clip(V(x), 0.0, None)
        top, low = f.max(axis=0), f if exact else f.min(axis=0)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # a subnormal min V: spread inf
            in_range = abs(q) * np.maximum(abs(np.log(top)), 0.0 if exact else abs(np.log(low))) < 700.0
            spread = None if exact else abs(q) * np.log(top / low)
        graded = np.empty(0, dtype=int)
        # cut points besides the breaks: complex roots near the cube, and V^q's peak among the nodes
        if not exact and n == GL_NODES:
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
        total = f[0].copy()  # the nodes in order: numpy sums a lone column pairwise, more columns row by row
        for row in f[1:]:
            total += row
        J[at], scale[at] = half * total, factor * top
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


def checked_cube(center, side) -> tuple[float, float]:
    """(center, side) of a cube as floats; a center that is not finite, or a side not > 0, raises ParameterError."""
    if not side > 0.0:
        raise ParameterError(f"cube side must be > 0, got {side}")
    if not math.isfinite(center := float(center)):
        raise ParameterError(f"cube center must be finite, got {center}")
    return center, float(side)


# Entries of one potential's `cube_memo`: 2^17 of them take about 20 MB.  A closed-form
# `bounds` job on a 13x13x8 grid stores 1,230; past the cap a cube is averaged and not stored.
CUBE_MEMO_CAP = 2**17


def cube_average(V: Potential, center: float, side: float) -> float:
    """Mean of V over the cube of the given center and side.

    The exact `interval_integral` over [center - side/2, center + side/2],
    divided by side; every potential is locally integrable, so an integral
    that is inf or nan has left the float range, and raises DomainError giving
    it.  A cube V has already been averaged over returns the stored value
    (`Potential.cube_memo`), looked up before `checked_cube`; a refused cube is never stored.
    """
    memo = V.cube_memo
    try:
        return memo[center, side]
    except (KeyError, TypeError):  # not averaged yet, or unhashable (a 0-d array: computed, then stored by its floats)
        pass
    center, side = checked_cube(center, side)
    lo, hi = center - side / 2.0, center + side / 2.0
    if not math.isfinite(total := float(interval_integral(V, lo, hi))):
        raise DomainError(f"the integral of V over [{lo!r}, {hi!r}] is {total}, not a finite number")
    mean = total / side
    if len(memo) < CUBE_MEMO_CAP:
        memo[center, side] = mean
    return mean


def cube_averages(V: Potential, centers, sides) -> np.ndarray:
    """Means of V over the cubes (centers[i], sides[i]), in one call.

    centers and sides broadcast against each other.  Each value equals
    `cube_average(V, c, s)` bit for bit, and a cube that one refuses
    raises the same exception type here.  One `interval_integral` call
    covers every cube.
    """
    centers, sides = np.broadcast_arrays(np.asarray(centers, dtype=float), np.asarray(sides, dtype=float))
    if not np.all(sides > 0.0):
        raise ParameterError(f"cube side must be > 0, got {sides[~(sides > 0.0)].flat[0]}")
    if not np.all(np.isfinite(centers)):
        raise ParameterError(f"cube center must be finite, got {centers[~np.isfinite(centers)].flat[0]}")
    lo, hi = centers - sides / 2.0, centers + sides / 2.0
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, as cube_average refuses it
        total = interval_integral(V, lo, hi)
    if not np.all(finite := np.isfinite(total)):
        lo, hi, bad = (float(a[~finite].flat[0]) for a in np.broadcast_arrays(lo, hi, total))
        raise DomainError(f"the integral of V over [{lo!r}, {hi!r}] is {bad}, not a finite number")
    return total / sides


# ---------------------------------------------------------------------------
# weight-class reports


@dataclass(frozen=True, eq=False)  # an array field has no single truth value, so == is identity
class WeightClassReport:
    """Scan of a weight-class ratio over a dyadic cube family, d = 0..depth.

    sides[d] is the cube side of level d and ratios[d] the max ratio over its
    cubes, two read-only float arrays; constant is the max of the ratios.  A
    divergent report has a cube integral analytically non-integrable (or a
    ratio above DIVERGENCE_THRESHOLD), first at level side divergent_at_side;
    a power's ratios then show the ratio excised at radius window_side
    8^-(d+2) at level d, which grow without bound as the family refines.
    """

    exponent: float
    constant: float
    sides: np.ndarray
    ratios: np.ndarray
    divergent_at_side: float | None
    beta: float | None = None

    @property
    def divergent(self) -> bool:
        return self.divergent_at_side is not None


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
    """num / den where den > 0; elsewhere inf where num > 0, else 1."""
    return np.divide(num, den, out=np.where(num > 0, np.inf, 1.0), where=den > 0)


def _power_mean_scan(
    V: Potential, center: float, side: float, depth: int, a: float, b: float, **report
) -> WeightClassReport:
    """Report of M_a(V) / M_b(V) on the 2^d dyadic cubes of the window (center, side), d = 0..depth.

    Level d reports its cube side and its max ratio; the first level with
    a divergence flag or a ratio above DIVERGENCE_THRESHOLD is divergent_at_side.
    The cubes of every level are laid end to end, level d from 2^d - 1 on, and
    each exponent takes two `_power_means` calls: levels 0..depth-1 together
    (2^depth - 1 cubes), then the deepest level alone, so that no call holds
    more cubes than the deepest level.
    """
    if depth < 1:
        raise ParameterError("depth must be >= 1")
    center, side = checked_cube(center, side)
    levels = np.arange(depth + 1)
    starts = 2**levels - 1
    level = np.repeat(levels, 2**levels)
    k = np.arange(level.size) - starts[level]
    sides = side * 2.0**-level
    # adjacent cubes share each edge, left + side k, so an edge on 0 is 0 for both of them
    left = center - side / 2.0
    lo, hi = left + sides * k, left + sides * (k + 1)
    excision = side * 8.0 ** -(level + 2)
    ratios, flags = [], []
    for part in (slice(0, starts[-1]), slice(starts[-1], None)):
        (num, num_flags), (den, den_flags) = (
            _power_means(V, lo[part], hi[part], sides[part], e, excision[part]) for e in (a, b)
        )
        ratios.append(_safe_ratio(num, den))
        flags.append(num_flags | den_flags)
    top = np.maximum.reduceat(np.concatenate(ratios), starts)
    divergent = np.logical_or.reduceat(np.concatenate(flags), starts) | (top > DIVERGENCE_THRESHOLD)
    level_sides = sides[starts]
    level_sides.flags.writeable = top.flags.writeable = False
    divergent_at = float(level_sides[np.argmax(divergent)]) if divergent.any() else None
    return WeightClassReport(
        constant=float(np.max(top)), sides=level_sides, ratios=top, divergent_at_side=divergent_at, **report
    )


def rh_constant(V: Potential, q: float, center: float, side: float, depth: int) -> WeightClassReport:
    """Reverse-Holder ratio sup over the dyadic family of the window (center, side).

    Per cube: M_q / M_1, (mean of V^q)^(1/q) / (mean of V); for q = infinity
    the numerator is the max of V over an ESS_SUP_GRID-point refinement.  The
    estimate is a lower bound for the sup over all cubes.
    """
    if not (q == math.inf or q > 1.0):
        raise ParameterError(f"reverse-Holder exponent must be > 1, got {q}")
    if q == math.inf and 2**depth > 4096:
        raise ParameterError("q = infinity scan supports depth <= 12")
    return _power_mean_scan(V, center, side, depth, q, 1.0, exponent=q)


def ap_constant(V: Potential, p: float, center: float, side: float, depth: int) -> WeightClassReport:
    """Muckenhoupt quantity sup_Q (mean_Q V) * (mean_Q V^{-1/(p-1)})^{p-1} over the window (center, side).

    Per cube that is M_1 / M_sigma with sigma = -1/(p-1).  The report
    carries the companion exponent beta = 2/(2 + n(p-1)), n = 1, used by
    the averaged upper envelope.
    """
    if not p > 1.0:
        raise ParameterError(f"Muckenhoupt exponent must be > 1, got {p}")
    beta = 2.0 / (2.0 + (p - 1.0))
    sigma = -1.0 / (p - 1.0)
    return _power_mean_scan(V, center, side, depth, 1.0, sigma, exponent=p, beta=beta)


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


def doubling_fit(V: Potential, center: float, side: float, depth: int) -> DoublingFit:
    """Fit log(mass ratio) = epsilon * log(volume ratio) + log C.

    The family is the window (center, side) and its concentric dyadic
    shrinkings; each depth contributes the pair (Z_d, window).  The first cube
    of the family whose mass is not finite and > 0 is named in a DomainError.
    """
    if depth < 3:
        raise ParameterError("doubling fit needs at least 3 nested pairs (depth >= 3)")
    c, side = checked_cube(center, side)
    sides = side * 2.0 ** -np.arange(depth + 1)
    masses = np.asarray(interval_integral(V, c - sides / 2.0, c + sides / 2.0), dtype=float)
    if not np.all(good := np.isfinite(masses) & (masses > 0.0)):
        i = int(np.argmin(good))
        cube = f"the cube of center {c!r} and side {float(sides[i])!r}"
        raise DomainError(f"doubling fit needs finite positive cube masses, got {masses[i]} on {cube}")
    xs = np.log(sides[1:] / sides[0])
    ys = np.log(masses[1:] / masses[0])
    eps, logc = np.polyfit(xs, ys, 1)
    resid = float(np.max(np.abs(ys - (eps * xs + logc))))
    return DoublingFit(C=float(np.exp(logc)), epsilon=float(eps), residual=resid)
