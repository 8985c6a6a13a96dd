"""Spectral reference kernels on truncated domains.

The Hamiltonian -d^2/dx^2 + V with Dirichlet walls at +-L is discretized by
second-order central differences on a uniform interior grid, giving a
symmetric tridiagonal matrix.  Its full eigendecomposition yields the
discrete heat kernel

    p_B(x, y, t) = sum_k exp(-lam_k t) phi_k(x) phi_k(y)

with eigenvectors orthonormal in the h-weighted inner product and linear
interpolation between nodes.  Truncation to a box only lowers the kernel
(domain monotonicity), so doubling L until the value stabilizes converges
to the whole-space kernel from below.

Mode count: resolving time t needs roughly (2L/pi) sqrt(37/t) modes before
the eigensum tail drops below 1e-16 of the total, which is why t >= 0.05
is the recommended floor at default resolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy.integrate import quad
from scipy.linalg import eigh_tridiagonal

from .errors import ConvergenceError, DomainError, ParameterError
from .explicit import KernelValue
from .potentials import Potential, PowerPotential

EIGENSUM_TAIL = 1e-16

__all__ = [
    "DiscreteHamiltonian",
    "SpectralKernel",
    "build_spectral",
    "eval_spectral",
    "spectral_log_kernel",
    "dirichlet_interval_kernel",
    "converged_kernel",
    "ProbeGrid",
    "pde_residual",
    "semigroup_defect",
    "cached_spectral",
    "separable_kernel_2d",
]


@dataclass(frozen=True)
class DiscreteHamiltonian:
    """Symmetric tridiagonal discretization of -d^2/dx^2 + V on [-L, L]."""

    L: float
    nodes: np.ndarray  # interior grid points
    h: float
    diagonal: np.ndarray  # V(x_i) + 2/h^2
    offdiagonal: np.ndarray  # -1/h^2


def _discretize(V: Potential, L: float, m: int) -> DiscreteHamiltonian:
    if not L > 0:
        raise ParameterError(f"half-width must be > 0, got {L}")
    if m < 3:
        raise ParameterError(f"need at least 3 grid points, got {m}")
    if V.n != 1:
        raise ParameterError("spectral builds are one-dimensional")
    if isinstance(V, PowerPotential) and V.alpha < 0:
        raise DomainError("singular potentials inside the computational box are rejected")
    h = 2.0 * L / (m + 1)
    nodes = np.linspace(-L, L, m + 2)[1:-1]
    vals = np.asarray(V(nodes), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise DomainError("potential is unbounded on the computational box")
    if np.min(vals) < -1e-12:
        raise DomainError("potential must be >= 0 on the computational box")
    diag = vals + 2.0 / h**2
    off = np.full(m - 1, -1.0 / h**2)
    return DiscreteHamiltonian(L=L, nodes=nodes, h=h, diagonal=diag, offdiagonal=off)


@dataclass
class SpectralKernel:
    """Eigendecomposition of the discrete Dirichlet Hamiltonian.

    phi has one row per grid node including the boundary zeros, one column
    per mode, normalized so that h * phi.T @ phi = I on the interior.
    Treat instances as immutable once built; evaluation never mutates them,
    so a kernel is safe to share across threads.
    """

    L: float
    m: int
    h: float
    nodes: np.ndarray
    eigenvalues: np.ndarray
    phi: np.ndarray  # (m+2, m) node values, boundary rows are zero
    phi_sup: np.ndarray
    orthonormality_defect: float

    def __call__(self, x: float, y: float, t: float) -> KernelValue:
        return eval_spectral(self, x, y, t)

    def modes_at(self, x: float) -> np.ndarray:
        """Linear interpolation of every eigenvector at one point."""
        return self.rows([x])[0]

    def rows(self, xs) -> np.ndarray:
        """Interpolated eigenvector values, one row per point of xs."""
        xs = np.asarray(xs, dtype=float)
        outside = (xs < -self.L) | (xs > self.L) | np.isnan(xs)
        if np.any(outside):
            raise ParameterError(f"point {xs[outside][0]} outside [-{self.L}, {self.L}]")
        pos = (xs + self.L) / self.h
        j = np.minimum(pos.astype(int), self.m)
        w = (pos - j)[:, None]
        return self.phi[j] * (1.0 - w) + self.phi[j + 1] * w

    def weights(self, t: float) -> np.ndarray:
        """exp(-lambda_k t) for every mode."""
        return np.exp(-np.clip(self.eigenvalues * t, None, 745.0))

    def mode_count(self, t: float) -> int:
        """Number of modes the eigensum keeps at time t."""
        bounds = self.weights(t) * self.phi_sup**2
        total = float(np.sum(bounds))
        keep = bounds >= EIGENSUM_TAIL * total
        return int(np.max(np.nonzero(keep)) + 1) if np.any(keep) else 1

    def mass(self, x: float, t: float) -> float:
        """h-weighted integral of p_B(x, ., t) over the box."""
        col_sums = self.h * np.sum(self.phi[1:-1], axis=0)
        return float(np.dot(self.weights(t) * self.modes_at(x), col_sums))


def build_spectral(V: Potential, L: float, m: int) -> SpectralKernel:
    """Full eigendecomposition of the discretized Hamiltonian on [-L, L].

    m is the number of interior grid points (= matrix size).
    """
    ham = _discretize(V, L, m)
    lam, vecs = eigh_tridiagonal(ham.diagonal, ham.offdiagonal)
    phi_int = vecs / math.sqrt(ham.h)
    phi = np.zeros((m + 2, m))
    phi[1:-1] = phi_int
    sample = np.linspace(0, m - 1, num=min(m, 48), dtype=int)
    gram = ham.h * phi_int[:, sample].T @ phi_int[:, sample]
    defect = float(np.max(np.abs(gram - np.eye(len(sample)))))
    if defect > 1e-8:
        raise RuntimeError(f"eigenvector orthonormality defect {defect:.3e} exceeds 1e-8")
    return SpectralKernel(
        L=L,
        m=m,
        h=ham.h,
        nodes=ham.nodes,
        eigenvalues=lam,
        phi=phi,
        phi_sup=np.max(np.abs(phi), axis=0),
        orthonormality_defect=defect,
    )


def spectral_log_kernel(K: SpectralKernel, xs, ys, ts) -> np.ndarray:
    """Truncated eigensum on a grid, as log p shaped [t, x, y].

    The rows of every distinct point are interpolated once; each time slice
    is then one product (A diag(w)) A^T over the first `mode_count(t)`
    modes, the ones whose worst-case contribution is at least EIGENSUM_TAIL
    of the sum of all such bounds.  Only the x <= y triangle of that product
    is kept and mirrored, so p(x, y, t) and p(y, x, t) are bit-identical.
    Values <= 0 (truncation noise below the cancellation floor) map to -inf.
    """
    xs = np.asarray(xs, dtype=float).ravel()
    ys = np.asarray(ys, dtype=float).ravel()
    for t in ts:
        if not t > 0.0:
            raise ParameterError(f"time must be > 0, got {t}")
    pts, index = np.unique(np.concatenate([xs, ys]), return_inverse=True)
    ix, iy = index[: len(xs)], index[len(xs) :]
    A = K.rows(pts)
    upper = np.triu(np.ones((len(pts), len(pts)), dtype=bool))
    out = np.empty((len(ts), len(xs), len(ys)))
    for k, t in enumerate(ts):
        n = K.mode_count(t)
        G = (A[:, :n] * K.weights(t)[:n]) @ A[:, :n].T
        out[k] = np.where(upper, G, G.T)[np.ix_(ix, iy)]
    positive = out > 0.0
    return np.where(positive, np.log(np.where(positive, out, 1.0)), -np.inf)


def eval_spectral(K: SpectralKernel, x: float, y: float, t: float) -> KernelValue:
    """One point of `spectral_log_kernel`."""
    return KernelValue(float(spectral_log_kernel(K, [x], [y], [t])[0, 0, 0]))


def dirichlet_interval_kernel(
    a: float, b: float, x: float, y: float, t: float, terms: int | None = None
) -> KernelValue:
    """Sine-series heat kernel of the Dirichlet Laplacian on (a, b).

    Gamma_D(x,y,t) = (2/(b-a)) sum_k sin(k pi (x-a)/(b-a)) sin(k pi (y-a)/(b-a))
                     exp(-(k pi/(b-a))^2 t)

    terms defaults to enough that the next term is below 1e-16 of the sum.
    Points on the boundary return an exact zero; outside is an error.
    """
    if not b > a:
        raise ParameterError(f"need b > a, got ({a}, {b})")
    if not t > 0.0:
        raise ParameterError(f"time must be > 0, got {t}")
    ell = b - a
    for pt in (x, y):
        if pt < a - 1e-14 or pt > b + 1e-14:
            raise ParameterError(f"point {pt} outside [{a}, {b}]")
    if min(abs(x - a), abs(x - b), abs(y - a), abs(y - b)) <= 1e-14:
        return KernelValue(-math.inf)
    if terms is None:
        terms = int(math.ceil(ell / math.pi * math.sqrt(40.0 / t))) + 4
    k = np.arange(1, terms + 1)
    decay = np.exp(-np.clip((k * math.pi / ell) ** 2 * t, None, 745.0))
    series = np.sin(k * math.pi * (x - a) / ell) * np.sin(k * math.pi * (y - a) / ell) * decay
    value = 2.0 / ell * float(np.sum(series))
    if value <= 0.0:
        return KernelValue(-math.inf)
    return KernelValue(math.log(value))


@lru_cache(maxsize=12)
def cached_spectral(V: Potential, L: float, m: int) -> SpectralKernel:
    """Memoized build; potentials are immutable so the key is safe."""
    return build_spectral(V, L, m)


def converged_kernel(
    V: Potential,
    x: float,
    y: float,
    t: float,
    rel_tol: float = 1e-4,
    h_target: float = 0.01,
    max_doublings: int = 4,
) -> KernelValue:
    """Whole-space kernel via domain doubling of the Dirichlet boxes.

    Truncation only lowers the kernel, so successive values increase
    (up to discretization error); the first doubling that moves the value
    by less than rel_tol wins.
    """
    if not t > 0.0:
        raise ParameterError(f"time must be > 0, got {t}")
    L = max(4.0 * math.sqrt(t), 2.0 * abs(x), 2.0 * abs(y), 4.0)
    trace = []
    prev = None
    for _ in range(max_doublings + 1):
        m = int(round(2.0 * L / h_target)) - 1
        m = max(201, min(m, 4001))
        K = cached_spectral(V, L, m)
        val = eval_spectral(K, x, y, t).value
        trace.append((L, val))
        if prev is not None and abs(val - prev) <= rel_tol * max(abs(val), 1e-300):
            return KernelValue(math.log(val)) if val > 0 else KernelValue(-math.inf)
        prev = val
        L *= 2.0
    raise ConvergenceError(
        f"kernel value did not stabilize within {max_doublings} domain doublings", trace=trace
    )


@dataclass(frozen=True)
class ProbeGrid:
    """Space-time lattice for residual checks: steps h (space), tau (time)."""

    x_min: float
    x_max: float
    t_min: float
    t_max: float
    h: float
    tau: float

    def __post_init__(self):
        if not (self.x_max > self.x_min and self.t_max >= self.t_min):
            raise ParameterError("probe grid ranges are empty")
        if not (self.h > 0 and self.tau > 0):
            raise ParameterError("probe steps must be > 0")
        if self.t_min - self.tau <= 0:
            raise ParameterError("probe grid must stay away from t = 0")

    def refine(self, factor: float = 0.5) -> "ProbeGrid":
        return ProbeGrid(self.x_min, self.x_max, self.t_min, self.t_max, self.h * factor, self.tau * factor)


def pde_residual(
    V: Potential, K: Callable[[float, float, float], KernelValue], y: float, grid: ProbeGrid
) -> float:
    """Max norm of d_t p + (-D_h^2 p + V p) over the probe lattice.

    Centered second differences in space, centered first differences in
    time, so a kernel actually solving the equation shrinks at O(h^2+tau^2).
    """
    xs = np.arange(grid.x_min - grid.h, grid.x_max + 1.5 * grid.h, grid.h)
    ts = np.arange(grid.t_min - grid.tau, grid.t_max + 1.5 * grid.tau, grid.tau)
    P = np.empty((len(xs), len(ts)))
    for i, xi in enumerate(xs):
        for j, tj in enumerate(ts):
            P[i, j] = K(xi, y, tj).value
    inner = P[1:-1, 1:-1]
    d_t = (P[1:-1, 2:] - P[1:-1, :-2]) / (2.0 * grid.tau)
    d_xx = (P[2:, 1:-1] - 2.0 * inner + P[:-2, 1:-1]) / grid.h**2
    vals = np.asarray(V(xs[1:-1]), dtype=float)[:, None]
    residual = d_t - d_xx + vals * inner
    return float(np.max(np.abs(residual)))


def separable_kernel_2d(k1, k2):
    """Product kernel for additively separable 2D potentials.

    When V(x1, x2) = V1(x1) + V2(x2) the Hamiltonian splits and the heat
    kernel factorizes: p((x1,x2), (y1,y2), t) = p1(x1,y1,t) p2(x2,y2,t).
    """

    def kernel(x, y, t: float) -> KernelValue:
        return KernelValue(k1(x[0], y[0], t).log_value + k2(x[1], y[1], t).log_value)

    return kernel


def _auto_window(x: float, y: float, t: float, s: float) -> float:
    return max(abs(x), abs(y)) + 12.0 * math.sqrt(max(t, s)) + 1.0


def semigroup_defect(K, x: float, y: float, t: float, s: float, L: float | None = None) -> float:
    """Relative Chapman-Kolmogorov defect |int p(x,z,t) p(z,y,s) dz - p| / p.

    Spectral kernels use the h-weighted node sum (the identity is exact for
    the discrete operator, interpolation aside); closed-form kernels use
    adaptive quadrature over [-L, L] with L wide enough that the Gaussian
    tail is below 1e-12.  If p(x,y,t+s) underflows, the absolute defect is
    returned instead.
    """
    if not (t > 0 and s > 0):
        raise ParameterError("semigroup times must be > 0")
    if isinstance(K, SpectralKernel):
        p1 = K.phi[1:-1] @ (K.weights(t) * K.modes_at(x))
        p2 = K.phi[1:-1] @ (K.weights(s) * K.modes_at(y))
        integral = K.h * float(np.dot(p1, p2))
        direct = eval_spectral(K, x, y, t + s).value
    else:
        if L is None:
            L = _auto_window(x, y, t, s)
        integral, _ = quad(
            lambda z: K(x, z, t).value * K(z, y, s).value,
            -L,
            L,
            epsabs=1e-300,
            epsrel=1e-10,
            limit=400,
        )
        direct = K(x, y, t + s).value
    if direct <= 0.0:
        return abs(integral - direct)
    return abs(integral - direct) / direct
