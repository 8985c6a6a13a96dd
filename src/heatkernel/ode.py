"""Gaussian-ansatz ODE route to the quadratic-potential kernel.

The kernel ansatz

    p(x, y, t) = phi(t) exp{-(alpha x^2 + gamma y^2 + 2 beta x y)/2 - mu x - nu y}

turns the heat equation for V = a1 x + a2 x^2 into six coupled ODEs in t:

    alpha'   = -2 alpha^2 + 2 a2
    beta'    = -2 alpha beta
    gamma'   = -2 beta^2
    mu'      = a1 - 2 mu alpha
    nu'      = -2 mu beta
    logphi'  = -alpha + mu^2

The exact solution is singular at t = 0 (delta initial data), so numerical
integration starts from the closed-form state at some t0 > 0.  Constant
potential terms a0 are handled by the shift identity p_{a0} = e^{-a0 t} p_0,
that is log_phi - a0 t, never inside the system.
"""

from __future__ import annotations

import numpy as np

from .errors import IntegrationError, ParameterError
from .explicit import QuadraticCoeffs, _time_factors

# The names of a coefficient row's six entries, in the order `_rhs` takes them; `ode` writes them as columns.
ANSATZ_COEFFS = ("alpha", "beta", "gamma", "mu", "nu", "log_phi")


def closed_form_states(c: QuadraticCoeffs, ts) -> np.ndarray:
    """Exact ansatz coefficients for V = a1 x + a2 x^2 at each time of ts, one row per time in ANSATZ_COEFFS order.

    With w = sqrt(a2), u = 2 w t and b = a1 / 2w:
        alpha = gamma = w coth(u),  beta = -w csch(u),
        mu = nu = b (coth - csch)(u),
        logphi = log(w csch(u) / 2 pi)/2 + b^2 t - (b^2 / w)(coth - csch)(u).
    """
    if c.a0 != 0.0:
        raise ParameterError("ansatz route requires a0 = 0; apply the shift identity first")
    ts = np.asarray(ts, dtype=float)
    if not np.all(ts > 0.0):
        raise ParameterError(f"time must be > 0, got {ts[~(ts > 0.0)][0]}")
    # the closed form's own t-only factors, through libm as `quadratic_kernel` takes them
    w, cs, th, log_phi = np.array([_time_factors(c.a0, c.a1, c.a2, t) for t in ts.tolist()]).reshape(-1, 4).T
    alpha = w * (cs + th)  # coth = csch + (coth - csch)
    mu = c.a1 / (2.0 * w) * th
    return np.column_stack([alpha, -w * cs, alpha, mu, mu, log_phi])


def _rhs(t, state, a1, a2):
    alpha, beta, gamma, mu, nu, log_phi = state
    return [
        -2.0 * alpha**2 + 2.0 * a2,
        -2.0 * alpha * beta,
        -2.0 * beta**2,
        a1 - 2.0 * mu * alpha,
        -2.0 * mu * beta,
        -alpha + mu**2,
    ]


def integrate_odes(c: QuadraticCoeffs, t0: float, t1: float, samples: int = 201) -> tuple[np.ndarray, np.ndarray]:
    """Adaptively integrate the six-ODE system from t0 to t1.

    The start is the closed-form state at t0 (t0 > 0 is required: the exact
    solution blows up like 1/t toward the delta limit).  Returns (ts, coeffs):
    `samples` times, geometrically spaced to resolve the stiff early
    transient, and the trajectory there, one row per time in ANSATZ_COEFFS order.
    """
    from scipy.integrate import solve_ivp

    if not 0.0 < t0 < t1:
        raise ParameterError(f"need 0 < t0 < t1, got ({t0}, {t1})")
    t_eval = np.geomspace(t0, t1, samples)
    sol = solve_ivp(
        _rhs,
        (t0, t1),
        closed_form_states(c, [t0])[0],
        t_eval=t_eval,
        args=(c.a1, c.a2),
        method="DOP853",
        rtol=1e-10,
        atol=1e-12,
    )
    if not sol.success:
        raise IntegrationError(f"ODE integration failed: {sol.message}")
    return sol.t, sol.y.T


def closed_form_error(c: QuadraticCoeffs, ts, coeffs: np.ndarray) -> float:
    """Largest absolute difference between the coefficient rows at times ts and the closed form's."""
    return float(np.max(np.abs(coeffs - closed_form_states(c, ts)), initial=0.0))


def ansatz_log(coeffs, x, y):
    """log p = logphi - quadratic form - linear form, from one coefficient row; x, y may be broadcastable arrays."""
    alpha, beta, gamma, mu, nu, log_phi = coeffs
    quad = 0.5 * (alpha * x**2 + gamma * y**2 + 2.0 * beta * x * y)
    return log_phi - quad - mu * x - nu * y
