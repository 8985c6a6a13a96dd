"""Closed-form heat kernels: free Gaussian and the quadratic-potential kernel.

All kernel arithmetic happens in log-space; values are exponentiated on
demand.  Hyperbolic factors switch to exp-scaled forms at argument 30 so
the kernel stays finite for t up to 1e4 and |x|, |y| up to 1e3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

LOG_2PI = math.log(2.0 * math.pi)
HYP_SCALE_ARG = 30.0  # switch point for exp-scaled hyperbolic forms
T_FLOOR = 1e-12  # delta-limit regime below this is handled by limit tests

__all__ = [
    "KernelValue",
    "QuadraticCoeffs",
    "gaussian_kernel",
    "quadratic_kernel",
    "quadratic_log_kernel",
    "a0_shift_check",
    "log_csch",
    "csch",
    "coth_minus_csch",
]


@dataclass(frozen=True)
class KernelValue:
    """A kernel sample stored as log p; -inf encodes an exact zero."""

    log_value: float

    @property
    def value(self) -> float:
        if self.log_value == -math.inf:
            return 0.0
        if self.log_value < -745.0:
            return 0.0
        if self.log_value > 709.0:
            return math.inf
        return math.exp(self.log_value)

    def __repr__(self):
        return f"KernelValue(log={self.log_value:.6g}, value={self.value:.6g})"


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


def gaussian_kernel(n: int, x, y, t: float) -> KernelValue:
    """Free heat kernel (4 pi t)^{-n/2} exp(-|x-y|^2 / 4t)."""
    if not t > 0.0:
        raise ParameterError(f"time must be > 0, got {t}")
    if n < 1:
        raise ParameterError(f"dimension must be >= 1, got {n}")
    logp = -0.5 * n * (math.log(4.0 * math.pi) + math.log(t)) - _sq_dist(x, y) / (4.0 * t)
    return KernelValue(logp)


def _quadratic_log(c: QuadraticCoeffs, x, y, t: float):
    """log p at one time t; x and y are floats or broadcastable arrays.

    The t-only factors are computed once, as floats, so an array call costs
    one pass of elementwise arithmetic over x and y.
    """
    w = math.sqrt(c.a2)
    u = 2.0 * w * t
    cs = csch(u)
    th = coth_minus_csch(u)
    head = 0.5 * (0.5 * math.log(c.a2) + log_csch(u) - LOG_2PI)
    head += (c.a1**2 / (4.0 * c.a2) - c.a0) * t
    head -= c.a1**2 / (4.0 * w**3) * th
    return head - 0.5 * w * ((x - y) ** 2 * cs + (x**2 + y**2) * th) - c.a1 / (2.0 * w) * (x + y) * th


def _check_time(t: float) -> None:
    if not t >= T_FLOOR:
        raise ParameterError(f"time must be >= {T_FLOOR}, got {t}")


def quadratic_kernel(c: QuadraticCoeffs, x: float, y: float, t: float) -> KernelValue:
    """Exact 1D heat kernel for V(x) = a0 + a1 x + a2 x^2, a2 > 0.

    log p = 1/2 log(sqrt(a2) csch(u) / 2pi)
            + (a1^2/4a2 - a0) t
            - (a1^2 / 4 a2^{3/2}) (coth - csch)(u)
            - (sqrt(a2)/2) [ (x-y)^2 csch(u) + (x^2+y^2)(coth - csch)(u) ]
            - (a1 / 2 sqrt(a2)) (x+y)(coth - csch)(u)
    with u = 2 sqrt(a2) t.  This is the shifted/translated oscillator
    kernel; it does not require V >= 0.
    """
    _check_time(t)
    return KernelValue(float(_quadratic_log(c, x, y, t)))


def quadratic_log_kernel(c: QuadraticCoeffs, xs, ys, ts) -> np.ndarray:
    """log p of the closed-form kernel on a grid, shaped [t, x, y].

    Same formula and operation order as `quadratic_kernel`, so each entry
    equals the scalar value bit for bit.
    """
    X = np.asarray(xs, dtype=float)[:, None]
    Y = np.asarray(ys, dtype=float)[None, :]
    out = np.empty((len(ts), X.shape[0], Y.shape[1]))
    for k, t in enumerate(ts):
        t = float(t)
        _check_time(t)
        out[k] = _quadratic_log(c, X, Y, t)
    return out


def a0_shift_check(c: QuadraticCoeffs, x: float, y: float, t: float) -> float:
    """Defect of the constant-shift identity p_{a0} = e^{-a0 t} p_0.

    Returns |log p_{a0} - (log p_0 - a0 t)|; zero up to roundoff for any
    a0 (signed included).
    """
    shifted = quadratic_kernel(c, x, y, t)
    base = quadratic_kernel(QuadraticCoeffs(0.0, c.a1, c.a2), x, y, t)
    return abs(shifted.log_value - (base.log_value - c.a0 * t))
