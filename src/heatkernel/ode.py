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

from dataclasses import dataclass

import numpy as np

from .errors import IntegrationError, ParameterError
from .explicit import QuadraticCoeffs, _time_factors


@dataclass(frozen=True)
class AnsatzState:
    t: float
    alpha: float
    beta: float
    gamma: float
    mu: float
    nu: float
    log_phi: float

    def as_array(self) -> np.ndarray:
        return np.array([self.alpha, self.beta, self.gamma, self.mu, self.nu, self.log_phi])


def _require_reduced(c: QuadraticCoeffs):
    if c.a0 != 0.0:
        raise ParameterError("ansatz route requires a0 = 0; apply the shift identity first")


def closed_form_state(c: QuadraticCoeffs, t: float) -> AnsatzState:
    """Exact ansatz coefficients at time t for V = a1 x + a2 x^2.

    With w = sqrt(a2) and u = 2 w t:
        alpha = gamma = w coth(u),  beta = -w csch(u),
        mu = nu = (a1 / 2w)(coth - csch)(u),
        logphi = log(w csch(u) / 2 pi)/2 + (a1^2/4a2) t - (a1^2/4w^3)(coth - csch)(u).
    """
    _require_reduced(c)
    if not t > 0.0:
        raise ParameterError(f"time must be > 0, got {t}")
    w, cs, th, log_phi = _time_factors(c.a0, c.a1, c.a2, t)
    alpha = w * (cs + th)  # coth = csch + (coth - csch)
    mu = c.a1 / (2.0 * w) * th
    return AnsatzState(t=t, alpha=alpha, beta=-w * cs, gamma=alpha, mu=mu, nu=mu, log_phi=log_phi)


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


def integrate_odes(c: QuadraticCoeffs, t0: float, t1: float, samples: int = 201) -> list[AnsatzState]:
    """Adaptively integrate the six-ODE system from t0 to t1.

    The start is the closed-form state at t0 (t0 > 0 is required: the exact
    solution blows up like 1/t toward the delta limit).  Returns the
    trajectory sampled at `samples` times, geometrically spaced to resolve
    the stiff early transient.
    """
    from scipy.integrate import solve_ivp

    if not 0.0 < t0 < t1:
        raise ParameterError(f"need 0 < t0 < t1, got ({t0}, {t1})")
    _require_reduced(c)
    t_eval = np.geomspace(t0, t1, samples)
    sol = solve_ivp(
        _rhs,
        (t0, t1),
        closed_form_state(c, t0).as_array(),
        t_eval=t_eval,
        args=(c.a1, c.a2),
        method="DOP853",
        rtol=1e-10,
        atol=1e-12,
    )
    if not sol.success:
        raise IntegrationError(f"ODE integration failed: {sol.message}")
    return [
        AnsatzState(t=float(ti), alpha=y[0], beta=y[1], gamma=y[2], mu=y[3], nu=y[4], log_phi=y[5])
        for ti, y in zip(sol.t, sol.y.T)
    ]


def closed_form_error(c: QuadraticCoeffs, traj: list[AnsatzState]) -> float:
    """Largest absolute difference between a trajectory's six coefficients and the closed form's."""
    return max(
        (float(np.max(np.abs(s.as_array() - closed_form_state(c, s.t).as_array()))) for s in traj),
        default=0.0,
    )


def ansatz_log(state: AnsatzState, x, y):
    """log p = logphi - quadratic form - linear form; x, y may be broadcastable arrays."""
    quad = 0.5 * (state.alpha * x**2 + state.gamma * y**2 + 2.0 * state.beta * x * y)
    return state.log_phi - quad - state.mu * x - state.nu * y
