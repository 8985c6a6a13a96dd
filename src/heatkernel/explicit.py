"""Closed-form heat kernels: free Gaussian and the quadratic-potential kernel.

All kernel arithmetic happens in log-space: every kernel returns log p,
-inf for an exact zero.  The hyperbolic factors come from one expression
finite at every u > 0, csch u = 2 e^{-u} / (1 - e^{-2u}) with the denominator
from `math.expm1`, so the kernel stays finite for t up to 1e4 and |x|, |y| up to 1e3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ParameterError

LOG_2PI = math.log(2.0 * math.pi)
T_FLOOR = 1e-12  # delta-limit regime below this is handled by limit tests


@dataclass(frozen=True)
class QuadraticCoeffs:
    """V(x) = a0 + a1 x + a2 x^2 with a2 > 0; a0, a1 may be signed."""

    a0: float
    a1: float
    a2: float

    def __post_init__(self):
        if not self.a2 > 0.0:
            raise ParameterError(f"quadratic coefficient a2 must be > 0, got {self.a2}")


def _log_grid(xs, ys, ts, log_at) -> np.ndarray:
    """log_at(X, Y, t) at each t of ts, X the column of xs and Y the row of ys: log p shaped [t, x, y]."""
    X = np.asarray(xs, dtype=float)[:, None]
    Y = np.asarray(ys, dtype=float)[None, :]
    out = np.empty((len(ts), X.shape[0], Y.shape[1]))
    for k, t in enumerate(ts):
        out[k] = log_at(X, Y, float(t))
    return out


def _gaussian_log(X, Y, t: float):
    """log p of the free kernel at one time t > 0."""
    if not t > 0.0:
        raise ParameterError(f"time must be > 0, got {t}")
    return -0.5 * (math.log(4.0 * math.pi) + math.log(t)) - (X - Y) ** 2 / (4.0 * t)


def gaussian_log_kernel(xs, ys, ts) -> np.ndarray:
    """log p of the one-dimensional free heat kernel (4 pi t)^{-1/2} exp(-(x-y)^2 / 4t), shaped [t, x, y].

    Each entry depends only on its own x, y and t, so a one-point call,
    `gaussian_log_kernel([x], [y], [t])[0, 0, 0]`, is the grid bit for bit.
    """
    return _log_grid(xs, ys, ts, _gaussian_log)


@lru_cache(maxsize=64)
def _time_factors(a0: float, a1: float, a2: float, t: float):
    """The closed form's t-only factors (w, csch u, tanh(u/2), head), u = 2 w t.

    w = sqrt(a2) and head = log p(0, 0, t) for V = a0 + a1 x + a2 x^2.  With
    m = 1 - e^{-2u}, csch u = 2 e^{-u} / m at every u > 0, and a1 enters only
    through b = a1 / 2w, with b^2 <= a0 when V >= 0, so no factor overflows.
    `ode.closed_form_states` reads its ansatz coefficients from the same
    factors.  Memoised per (a0, a1, a2, t), a key of plain numbers, so a
    lookup hashes and compares in C; numbers that compare equal, as +-0.0
    do, give bit-identical factors.
    """
    w = math.sqrt(a2)
    u = 2.0 * w * t
    m = -math.expm1(-2.0 * u)
    th = math.tanh(0.5 * u)  # coth u - csch u, stable for all u > 0
    b = a1 / (2.0 * w)
    head = 0.5 * (0.5 * math.log(a2) + math.log(2.0) - u - math.log(m) - LOG_2PI)  # log csch u = log 2 - u - log m
    head += (b * b - a0) * t - b * b * (th / w)  # th / w <= t keeps the product below b^2 t
    return w, 2.0 * math.exp(-u) / m, th, head


def _quadratic_log(c: QuadraticCoeffs, x, y, t: float):
    """log p at one time t; x and y are floats or broadcastable arrays.

    The t-only factors are computed once, as floats, so an array call costs
    one pass of elementwise arithmetic over x and y.
    """
    if not t >= T_FLOOR:
        raise ParameterError(f"time must be >= {T_FLOOR}, got {t}")
    w, cs, th, head = _time_factors(c.a0, c.a1, c.a2, t)
    d = x - y  # squared by multiplication: `**` on a Python float calls pow, which can round differently
    return head - 0.5 * w * (d * d * cs + (x * x + y * y) * th) - c.a1 / (2.0 * w) * (x + y) * th


def quadratic_kernel(c: QuadraticCoeffs, x: float, y: float, t: float) -> float:
    """log p of the exact 1D heat kernel for V(x) = a0 + a1 x + a2 x^2, a2 > 0.

    log p = 1/2 log(sqrt(a2) csch(u) / 2pi)
            + (b^2 - a0) t
            - (b^2 / sqrt(a2)) (coth - csch)(u)
            - (sqrt(a2)/2) [ (x-y)^2 csch(u) + (x^2+y^2)(coth - csch)(u) ]
            - b (x+y)(coth - csch)(u)
    with u = 2 sqrt(a2) t and b = a1 / 2 sqrt(a2).  This is the shifted/translated oscillator
    kernel; it does not require V >= 0.
    """
    return float(_quadratic_log(c, x, y, t))


def quadratic_log_kernel(c: QuadraticCoeffs, xs, ys, ts) -> np.ndarray:
    """log p of the closed-form kernel on a grid, shaped [t, x, y].

    Same formula and operation order as `quadratic_kernel`, so each entry
    equals the scalar value bit for bit.
    """
    return _log_grid(xs, ys, ts, lambda X, Y, t: _quadratic_log(c, X, Y, t))
