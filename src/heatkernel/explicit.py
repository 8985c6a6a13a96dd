"""Closed-form heat kernels: free Gaussian and the quadratic-potential kernel.

All kernel arithmetic happens in log-space: every kernel returns log p,
-inf for an exact zero.  Hyperbolic factors switch to exp-scaled forms at
argument 30 so the kernel stays finite for t up to 1e4 and |x|, |y| up to 1e3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ParameterError

LOG_2PI = math.log(2.0 * math.pi)
HYP_SCALE_ARG = 30.0  # switch point for exp-scaled hyperbolic forms
T_FLOOR = 1e-12  # delta-limit regime below this is handled by limit tests

__all__ = [
    "QuadraticCoeffs",
    "gaussian_kernel",
    "gaussian_log_kernel",
    "quadratic_kernel",
    "quadratic_log_kernel",
    "log_csch",
    "csch",
    "coth_minus_csch",
]


@dataclass(frozen=True)
class QuadraticCoeffs:
    """V(x) = a0 + a1 x + a2 x^2 with a2 > 0; a0, a1 may be signed."""

    a0: float
    a1: float
    a2: float

    def __post_init__(self):
        if not self.a2 > 0.0:
            raise ParameterError(f"quadratic coefficient a2 must be > 0, got {self.a2}")

    @property
    def nonnegative(self) -> bool:
        """True when V >= 0 everywhere (a1^2 <= 4 a0 a2)."""
        return self.a1**2 <= 4.0 * self.a0 * self.a2


def log_csch(u: float) -> float:
    """log(csch u) for u > 0, exp-scaled above HYP_SCALE_ARG."""
    if u <= HYP_SCALE_ARG:
        return -math.log(math.sinh(u))
    # csch u = 2 e^{-u} / (1 - e^{-2u})
    e2 = math.exp(-2.0 * u) if u < 350.0 else 0.0
    return math.log(2.0) - u - math.log1p(-e2)


def csch(u: float) -> float:
    """csch u for u > 0, underflowing gracefully to 0 for huge arguments."""
    if u <= HYP_SCALE_ARG:
        return 1.0 / math.sinh(u)
    e1 = math.exp(-u) if u < 745.0 else 0.0
    e2 = e1 * e1
    return 2.0 * e1 / (1.0 - e2)


def coth_minus_csch(u: float) -> float:
    """coth u - csch u; identical to tanh(u/2), stable for all u > 0."""
    return math.tanh(0.5 * u)


def _sq_dist(x, y) -> float:
    dx = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    return float(np.sum(dx * dx))


def _log_grid(xs, ys, ts, log_at) -> np.ndarray:
    """log_at(X, Y, t) at each t of ts, X the column of xs and Y the row of ys: log p shaped [t, x, y]."""
    X = np.asarray(xs, dtype=float)[:, None]
    Y = np.asarray(ys, dtype=float)[None, :]
    out = np.empty((len(ts), X.shape[0], Y.shape[1]))
    for k, t in enumerate(ts):
        out[k] = log_at(X, Y, float(t))
    return out


def _gaussian_log(n: int, d2, t: float):
    """log p of the free kernel at one time t; d2 = |x-y|^2 is a float or an array."""
    if not t > 0.0:
        raise ParameterError(f"time must be > 0, got {t}")
    return -0.5 * n * (math.log(4.0 * math.pi) + math.log(t)) - d2 / (4.0 * t)


def gaussian_kernel(n: int, x, y, t: float) -> float:
    """log p of the free heat kernel (4 pi t)^{-n/2} exp(-|x-y|^2 / 4t)."""
    if n < 1:
        raise ParameterError(f"dimension must be >= 1, got {n}")
    return _gaussian_log(n, _sq_dist(x, y), t)


def gaussian_log_kernel(xs, ys, ts) -> np.ndarray:
    """log p of the one-dimensional free kernel on a grid, shaped [t, x, y].

    Same formula and operation order as `gaussian_kernel(1, ...)`, so each
    entry equals the scalar value bit for bit.
    """
    return _log_grid(xs, ys, ts, lambda X, Y, t: _gaussian_log(1, (X - Y) ** 2, t))


@lru_cache(maxsize=64)
def _time_factors(c: QuadraticCoeffs, t: float):
    """The closed form's t-only factors (w, csch u, tanh(u/2), head), u = 2 w t.

    w = sqrt(a2) and head = log p(0, 0, t).  `ode.closed_form_state` reads
    its ansatz coefficients from the same factors.  Memoised per (c, t);
    coefficients that compare equal, as +-0.0 do, give bit-identical factors.
    """
    w = math.sqrt(c.a2)
    u = 2.0 * w * t
    th = coth_minus_csch(u)
    head = 0.5 * (0.5 * math.log(c.a2) + log_csch(u) - LOG_2PI)
    head += (c.a1**2 / (4.0 * c.a2) - c.a0) * t
    head -= c.a1**2 / (4.0 * w**3) * th
    return w, csch(u), th, head


def _quadratic_log(c: QuadraticCoeffs, x, y, t: float):
    """log p at one time t; x and y are floats or broadcastable arrays.

    The t-only factors are computed once, as floats, so an array call costs
    one pass of elementwise arithmetic over x and y.
    """
    if not t >= T_FLOOR:
        raise ParameterError(f"time must be >= {T_FLOOR}, got {t}")
    w, cs, th, head = _time_factors(c, t)
    d = x - y  # squared by multiplication: `**` on a Python float calls pow, which can round differently
    return head - 0.5 * w * (d * d * cs + (x * x + y * y) * th) - c.a1 / (2.0 * w) * (x + y) * th


def quadratic_kernel(c: QuadraticCoeffs, x: float, y: float, t: float) -> float:
    """log p of the exact 1D heat kernel for V(x) = a0 + a1 x + a2 x^2, a2 > 0.

    log p = 1/2 log(sqrt(a2) csch(u) / 2pi)
            + (a1^2/4a2 - a0) t
            - (a1^2 / 4 a2^{3/2}) (coth - csch)(u)
            - (sqrt(a2)/2) [ (x-y)^2 csch(u) + (x^2+y^2)(coth - csch)(u) ]
            - (a1 / 2 sqrt(a2)) (x+y)(coth - csch)(u)
    with u = 2 sqrt(a2) t.  This is the shifted/translated oscillator
    kernel; it does not require V >= 0.
    """
    return float(_quadratic_log(c, x, y, t))


def quadratic_log_kernel(c: QuadraticCoeffs, xs, ys, ts) -> np.ndarray:
    """log p of the closed-form kernel on a grid, shaped [t, x, y].

    Same formula and operation order as `quadratic_kernel`, so each entry
    equals the scalar value bit for bit.
    """
    return _log_grid(xs, ys, ts, lambda X, Y, t: _quadratic_log(c, X, Y, t))
