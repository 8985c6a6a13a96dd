"""Nonnegative potentials, exact cube averages, and weight-class diagnostics.

Potentials are immutable value objects.  One-dimensional kinds carry exact
interval integrals (closed-form antiderivatives); multi-dimensional support
is restricted to tensor products of one-dimensional factors, for which cube
integrals factorize.  Weight-class scans (reverse Holder, Muckenhoupt,
doubling) run over dyadic refinements of a user-supplied window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np
from numpy.polynomial import polynomial as npoly
from scipy import integrate

from .errors import DomainError, ParameterError

# ratio above which a weight-class report is marked divergent
DIVERGENCE_THRESHOLD = 1e8
# adaptive quadrature settings for cube averages
QUAD_REL_TOL = 1e-10
QUAD_ABS_FLOOR = 1e-300


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
        if np.ndim(center) == 0:
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

    @property
    def volume(self) -> float:
        return self.side**self.n

    def bounds(self, axis: int = 0) -> tuple[float, float]:
        c = self.center[axis]
        return c - self.side / 2.0, c + self.side / 2.0

    def contains(self, x) -> bool:
        pt = np.atleast_1d(np.asarray(x, dtype=float))
        half = self.side / 2.0
        return all(abs(pt[i] - self.center[i]) <= half + 1e-15 for i in range(self.n))


# ---------------------------------------------------------------------------
# potential kinds


class Potential:
    """Base class.  Subclasses are frozen dataclasses, safe to share/hash."""

    n: int

    def __call__(self, x):
        raise NotImplementedError


def _as_points(x, n: int) -> np.ndarray:
    """Normalize x to shape (..., n)."""
    arr = np.asarray(x, dtype=float)
    if n == 1:
        return arr.reshape(arr.shape + (1,)) if arr.ndim == 0 or arr.shape[-1:] != (1,) else arr
    if arr.shape[-1] != n:
        raise ParameterError(f"point has wrong dimension for n={n}: shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class PolynomialPotential(Potential):
    """Tensor product of one-variable polynomials, one factor per axis.

    For n = 1 this is just V(x) = sum_i coeffs[i] x^i.
    """

    axis_coeffs: tuple[tuple[float, ...], ...]

    def __init__(self, coeffs: Sequence, n: int = 1):
        if n >= 1 and len(coeffs) > 0 and np.ndim(coeffs[0]) == 0:
            axes = tuple(tuple(float(c) for c in coeffs) for _ in range(n))
        else:
            axes = tuple(tuple(float(c) for c in ax) for ax in coeffs)
        if not axes:
            raise ParameterError("polynomial needs at least one coefficient")
        object.__setattr__(self, "axis_coeffs", axes)

    @property
    def n(self) -> int:
        return len(self.axis_coeffs)

    @property
    def coeffs(self) -> tuple[float, ...]:
        if self.n != 1:
            raise ParameterError("coeffs is defined for one-dimensional polynomials")
        return self.axis_coeffs[0]

    def __call__(self, x):
        pts = _as_points(x, self.n)
        val = np.ones(pts.shape[:-1])
        for axis, c in enumerate(self.axis_coeffs):
            val = val * npoly.polyval(pts[..., axis], c)
        return val if val.ndim else float(val)


@dataclass(frozen=True)
class PowerPotential(Potential):
    """V(x) = |x|**alpha with |x| the Euclidean norm.

    alpha < 0 has a singularity at the origin: pointwise evaluation there is
    a domain error, while cube integrals use the improper closed form (1D).
    """

    alpha: float
    dim: int = 1

    def __init__(self, alpha: float, n: int = 1):
        object.__setattr__(self, "alpha", float(alpha))
        object.__setattr__(self, "dim", int(n))

    @property
    def n(self) -> int:
        return self.dim

    def __call__(self, x):
        pts = _as_points(x, self.n)
        r = np.sqrt(np.sum(pts * pts, axis=-1))
        if self.alpha < 0 and np.any(r == 0.0):
            raise DomainError("power potential with negative exponent is singular at 0")
        with np.errstate(divide="ignore"):
            val = r**self.alpha
        return val if val.ndim else float(val)


@dataclass(frozen=True)
class TabulatedPotential(Potential):
    """Piecewise-linear interpolant of uniform samples (1D), values >= 0."""

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

    @property
    def n(self) -> int:
        return 1

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


def constant(c: float, n: int = 1) -> PolynomialPotential:
    """V = c >= 0 in n dimensions."""
    if c < 0:
        raise ParameterError("constant potential must be >= 0")
    return PolynomialPotential([c], n=n)


def eval_potential(V: Potential, x) -> float:
    """Pointwise evaluation; singular points raise DomainError."""
    return V(x)


# ---------------------------------------------------------------------------
# exact 1D interval integrals


def _poly_interval_integral(coeffs, lo, hi):
    anti = npoly.polyint(np.asarray(coeffs, dtype=float))
    return npoly.polyval(hi, anti) - npoly.polyval(lo, anti)


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


@lru_cache(maxsize=4)
def _gl_nodes(order: int):
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return nodes, weights


def _gl_interval_integral(f, lo, hi, order: int = 33):
    """Fixed-order Gauss-Legendre on each [lo_i, hi_i], vectorized."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    nodes, weights = _gl_nodes(order)
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


@lru_cache(maxsize=32)
def _poly_real_roots(coeffs: tuple[float, ...]) -> np.ndarray:
    """Real roots of a polynomial (imaginary part below 1e-9), found once per coefficient tuple."""
    c = np.trim_zeros(np.asarray(coeffs, dtype=float), "b")
    roots = npoly.polyroots(c) if len(c) > 1 else np.empty(0, dtype=complex)
    real = roots.real[np.abs(roots.imag) < 1e-9]
    real.flags.writeable = False
    return real


def _nonintegrable_root_mask(coeffs, lo, hi, q: float) -> np.ndarray:
    """Per interval: whether a real root of the polynomial inside it makes V^q non-integrable.

    A root counts as inside [lo, hi] up to 1e-12; roots within 1e-8 of each
    other count as one root of that multiplicity m, which is non-integrable
    iff m q <= -1.  The roots are found once for all intervals.
    """
    roots = _poly_real_roots(tuple(coeffs))
    lo, hi = np.broadcast_arrays(lo, hi)
    if roots.size == 0 or q > -0.5:
        return np.zeros(lo.shape, dtype=bool)
    inside = (lo[..., None] - 1e-12 <= roots) & (roots <= hi[..., None] + 1e-12)
    close = np.abs(roots[:, None] - roots[None, :]) < 1e-8
    mult = inside.astype(int) @ close.astype(int)  # [..., r]: roots inside near root r
    return np.any(inside & (mult * q <= -1.0), axis=-1)


def powered_interval_integral(V: Potential, lo, hi, q: float, excision: float = 0.0):
    """(integral of V**q over each [lo_i, hi_i], analytic-divergence mask).

    Closed form for power kind (|x|^{alpha q}) and integer powers of a
    polynomial; fixed-order Gauss-Legendre otherwise.  Where the mask is
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
        if np.any(divergent) and excision > 0.0:
            vals = _abs_power_interval(lo, hi, s, excision=0.0)
            reg = _abs_power_interval(lo, hi, s, excision=excision)
            vals = np.where(divergent, reg, vals)
        else:
            vals = _abs_power_interval(lo, hi, s)
        return vals, divergent
    if isinstance(V, ScaledPotential):
        vals, div = powered_interval_integral(V.base, lo, hi, q, excision)
        return V.factor**q * vals, div
    if isinstance(V, PolynomialPotential) and q < 0:
        divergent = _nonintegrable_root_mask(V.coeffs, lo, hi, q)
        with np.errstate(divide="ignore"):
            vals = _gl_interval_integral(lambda x: np.clip(V(x), 0.0, None) ** q, lo, hi)
        vals = np.where(divergent, np.inf, vals)
        return vals, divergent
    if isinstance(V, PolynomialPotential) and float(q).is_integer() and q >= 1:
        powed = npoly.polypow(np.asarray(V.coeffs, dtype=float), int(q))
        return _poly_interval_integral(powed, lo, hi), np.zeros(np.broadcast(lo, hi).shape, dtype=bool)
    # generic: fixed-order Gauss-Legendre of max(V, 0)^q
    vals = _gl_interval_integral(lambda x: np.clip(V(x), 0.0, None) ** q, lo, hi)
    return vals, np.zeros(np.broadcast(lo, hi).shape, dtype=bool)


# ---------------------------------------------------------------------------
# cube averages


def _quad_average_1d(V: Potential, lo: float, hi: float) -> float:
    val, _ = integrate.quad(
        lambda x: float(V(x)), lo, hi, epsabs=QUAD_ABS_FLOOR, epsrel=QUAD_REL_TOL, limit=200
    )
    return val / (hi - lo)


def cube_average(V: Potential, Z: Cube, method: str = "auto") -> float:
    """Mean of V over the cube Z.

    method: "auto" prefers closed forms (mandatory for singular power
    potentials), "quad" forces adaptive quadrature, "closed" requires a
    closed form.  Power potentials need alpha > -n for integrability.
    """
    if V.n != Z.n:
        raise ParameterError(f"potential dimension {V.n} != cube dimension {Z.n}")
    if isinstance(V, PowerPotential) and V.alpha <= -V.n and Z.contains([0.0] * V.n):
        raise DomainError("power potential with alpha <= -n is not integrable on this cube")
    if V.n == 1:
        lo, hi = Z.bounds(0)
        singular_power = isinstance(V, PowerPotential) and V.alpha < 0 and Z.contains(0.0)
        if method == "quad" and singular_power:
            raise ParameterError("singular power potentials integrate by closed form only")
        if method == "quad":
            return _quad_average_1d(V, lo, hi)
        try:
            return float(interval_integral(V, lo, hi)) / Z.side
        except ParameterError:
            if method == "closed":
                raise
            return _quad_average_1d(V, lo, hi)
    # n >= 2: tensor products factorize; bounded kinds fall back to nquad
    if isinstance(V, PolynomialPotential):
        out = 1.0
        for axis, c in enumerate(V.axis_coeffs):
            lo, hi = Z.bounds(axis)
            out *= float(_poly_interval_integral(c, lo, hi)) / Z.side
        return out
    if isinstance(V, ScaledPotential):
        return V.factor * cube_average(V.base, Z, method)
    if isinstance(V, SumPotential):
        return sum(cube_average(p, Z, method) for p in V.parts)
    if isinstance(V, PowerPotential):
        if V.alpha < 0:
            raise ParameterError("singular power cube averages are supported in 1D only")
        ranges = [Z.bounds(a) for a in range(Z.n)]
        val, _ = integrate.nquad(
            lambda *xs: float(V(list(xs))), ranges, opts={"epsabs": 1e-12, "epsrel": 1e-9}
        )
        return val / Z.volume
    raise ParameterError(f"no cube average for {type(V).__name__} in n={V.n}")


# ---------------------------------------------------------------------------
# weight-class reports


@dataclass(frozen=True)
class WeightClassReport:
    """Scan of a weight-class ratio over a dyadic cube family.

    constant is the max of the per-scale trace ratios.  A divergent report
    means some cube integral is analytically non-integrable (or the ratio
    overflowed DIVERGENCE_THRESHOLD); divergent trace entries then show the
    ratio with the singularity excised at radius side*8^-(depth+2), which
    grows without bound as the family refines.
    """

    kind: str
    exponent: float
    constant: float
    trace: tuple[tuple[float, float], ...]
    window: Cube
    depth: int
    divergent: bool = False
    divergent_at_side: float | None = None
    beta: float | None = None

    def __post_init__(self):
        if self.trace:
            object.__setattr__(self, "constant", max(r for _, r in self.trace))


ESS_SUP_GRID = 2**10  # refinement points per cube for the q = infinity scan


def _dyadic_lefts(window: Cube, d: int):
    lo, _ = window.bounds(0)
    side = window.side * 2.0**-d
    return lo + side * np.arange(2**d), side


def _scan_ratio(V, window, depth, per_cube_ratio):
    """Shared dyadic scan: per_cube_ratio(lo, hi, side, depth) -> (ratios, flags)."""
    if V.n != 1 or window.n != 1:
        raise ParameterError("weight-class scans are one-dimensional")
    trace = []
    divergent = False
    divergent_at = None
    for d in range(depth + 1):
        lefts, side = _dyadic_lefts(window, d)
        ratios, flags = per_cube_ratio(lefts, lefts + side, side, d)
        top = float(np.max(ratios))
        trace.append((side, top))
        if (np.any(flags) or top > DIVERGENCE_THRESHOLD) and not divergent:
            divergent = True
            divergent_at = side
    return tuple(trace), divergent, divergent_at


def rh_constant(V: Potential, q: float, window: Cube, depth: int) -> WeightClassReport:
    """Reverse-Holder ratio sup over the dyadic family of the window.

    Per cube: (mean of V^q)^(1/q) / (mean of V); for q = infinity the
    numerator is the max of V over an ESS_SUP_GRID-point refinement.  The
    estimate is a lower bound for the sup over all cubes.
    """
    if not (q == math.inf or q > 1.0):
        raise ParameterError(f"reverse-Holder exponent must be > 1, got {q}")
    if depth < 1:
        raise ParameterError("depth must be >= 1")

    if q == math.inf:
        if 2**depth > 4096:
            raise ParameterError("q = infinity scan supports depth <= 12")

        def per_cube(lo, hi, side, d):
            offsets = np.linspace(0.0, side, ESS_SUP_GRID + 1)
            pts = lo[:, None] + offsets[None, :]
            if isinstance(V, PowerPotential) and V.alpha < 0:
                with np.errstate(divide="ignore"):
                    sup = np.max(np.abs(pts) ** V.alpha, axis=1)
                flags = (lo <= 0.0) & (hi >= 0.0)
                sup = np.where(flags, np.inf, sup)
            else:
                sup = np.max(V(pts), axis=1)
                flags = np.zeros(lo.shape, dtype=bool)
            mean = interval_integral(V, lo, hi) / side
            ratios = _safe_ratio(sup, mean)
            return ratios, flags

    else:

        def per_cube(lo, hi, side, d):
            excision = window.side * 8.0 ** -(d + 2)
            upper, flags = powered_interval_integral(V, lo, hi, q, excision=excision)
            mean_q = np.clip(upper, 0.0, None) / side
            mean = interval_integral(V, lo, hi) / side
            lhs = mean_q ** (1.0 / q)
            return _safe_ratio(lhs, mean), flags

    trace, divergent, div_at = _scan_ratio(V, window, depth, per_cube)
    return WeightClassReport(
        kind="reverse_holder",
        exponent=q,
        constant=0.0,
        trace=trace,
        window=window,
        depth=depth,
        divergent=divergent,
        divergent_at_side=div_at,
    )


def _safe_ratio(num, den):
    num, den = np.broadcast_arrays(np.asarray(num, dtype=float), np.asarray(den, dtype=float))
    out = np.ones(num.shape)
    pos = den > 0
    out[pos] = num[pos] / den[pos]
    out[~pos & (num > 0)] = np.inf
    return out


def ap_constant(V: Potential, p: float, window: Cube, depth: int) -> WeightClassReport:
    """Muckenhoupt quantity sup_Q (mean_Q V) * (mean_Q V^{-1/(p-1)})^{p-1}.

    The report carries the companion exponent beta = 2/(2 + n(p-1)) used by
    the averaged upper envelope.
    """
    if not p > 1.0:
        raise ParameterError(f"Muckenhoupt exponent must be > 1, got {p}")
    if depth < 1:
        raise ParameterError("depth must be >= 1")
    sigma = -1.0 / (p - 1.0)

    def per_cube(lo, hi, side, d):
        excision = window.side * 8.0 ** -(d + 2)
        dual, flags = powered_interval_integral(V, lo, hi, sigma, excision=excision)
        mean_dual = dual / side
        mean = interval_integral(V, lo, hi) / side
        vals = mean * np.where(mean_dual > 0, mean_dual, 0.0) ** (p - 1.0)
        vals = np.where((mean <= 0) & (mean_dual <= 0), 1.0, vals)
        return vals, flags

    trace, divergent, div_at = _scan_ratio(V, window, depth, per_cube)
    n = V.n
    return WeightClassReport(
        kind="muckenhoupt",
        exponent=p,
        constant=0.0,
        trace=trace,
        window=window,
        depth=depth,
        divergent=divergent,
        divergent_at_side=div_at,
        beta=2.0 / (2.0 + n * (p - 1.0)),
    )


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
