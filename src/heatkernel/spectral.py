"""Spectral reference kernels on truncated domains.

The Hamiltonian -d^2/dx^2 + V with Dirichlet walls at +-L is discretized by
second-order central differences on a uniform interior grid, giving a
symmetric tridiagonal matrix.  Its lowest eigenpairs yield the discrete
heat kernel

    p_B(x, y, t) = sum_k exp(-lam_k t) phi_k(x) phi_k(y)

with eigenvectors orthonormal in the h-weighted inner product and linear
interpolation between nodes.  Truncation to a box only lowers the kernel
(domain monotonicity), so the box kernel approaches the whole-space kernel
from below as L grows.

Mode count: a kernel built for t >= t_min keeps the k lowest modes, enough
that each dropped mode's bound exp(-lam_j t) max phi_j^2 stays below
EIGENSUM_TAIL of the kept total at every such t (`_modes_needed`).  At a
time t the eigensum keeps every cluster of eigenvalues (CLUSTER_RTOL)
up to the last whose bound exp(-lam t) max_x sum_cluster phi_j(x)^2 is at
least EIGENSUM_TAIL of the sum of all the cluster bounds; inside a cluster
the eigenvectors are any orthonormal basis LAPACK picks, and that bound is
the same for all of them.
Resolving t needs roughly (2L/pi) sqrt(45/t) modes, which is why t >= 0.05
is the recommended floor at default resolution.  Evaluating below t_min
raises ParameterError.

`pde_residual` and `semigroup_defect` take a batched `log_kernel(xs, ys, ts)`
returning log p shaped [t, x, y], and evaluate each lattice in one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import DomainError, ParameterError
from .potentials import Potential

EIGENSUM_TAIL = 1e-16
# Eigenvalues within CLUSTER_RTOL of each other, relatively, are one cluster:
# the eigenvectors of a pair that close mix by about eps ||H|| / gap, so
# their individual maxima are not a property of the operator.
CLUSTER_RTOL = 1e-6

__all__ = [
    "SpectralKernel",
    "build_spectral",
    "eval_spectral",
    "spectral_log_kernel",
    "dirichlet_interval_log_kernel",
    "ProbeGrid",
    "z_lattice",
    "pde_residual",
    "semigroup_defect",
    "cached_spectral",
]


def eigh_tridiagonal(*args, **kwargs):
    """scipy.linalg.eigh_tridiagonal, imported on first call: `import heatkernel` loads no scipy.linalg."""
    from scipy.linalg import eigh_tridiagonal

    return eigh_tridiagonal(*args, **kwargs)


def _discretize(V: Potential, L: float, m: int):
    """(interior nodes, spacing h, diagonal V(x_i) + 2/h^2, off-diagonal -1/h^2) of -d^2/dx^2 + V on [-L, L]."""
    if not L > 0:
        raise ParameterError(f"half-width must be > 0, got {L}")
    if m < 3:
        raise ParameterError(f"need at least 3 grid points, got {m}")
    if V.n != 1:
        raise ParameterError("spectral builds are one-dimensional")
    V(0.0)  # a kind singular at 0 raises DomainError there, even when the nodes straddle 0
    h = 2.0 * L / (m + 1)
    nodes = np.linspace(-L, L, m + 2)[1:-1]
    vals = np.asarray(V(nodes), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise DomainError("potential is unbounded on the computational box")
    if np.min(vals) < -1e-12:
        raise DomainError("potential must be >= 0 on the computational box")
    return nodes, h, vals + 2.0 / h**2, np.full(m - 1, -1.0 / h**2)


@dataclass
class SpectralKernel:
    """The lowest eigenpairs of the discrete Dirichlet Hamiltonian.

    phi has one row per grid node including the boundary zeros, one column
    per mode kept for t >= t_min, normalized so that h * phi.T @ phi = I on
    the interior.  Treat instances as immutable once built: evaluation never
    mutates them, and `cached_spectral` hands the same instance to every caller.
    """

    L: float
    m: int
    h: float
    t_min: float
    nodes: np.ndarray
    eigenvalues: np.ndarray
    phi: np.ndarray  # (m+2, k) node values, boundary rows are zero
    phi_sup: np.ndarray
    orthonormality_defect: float
    cluster_starts: np.ndarray  # first mode of each eigenvalue cluster, ascending
    cluster_sup: np.ndarray  # per cluster, max over the nodes of sum phi_j^2

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
        """exp(-lambda_k t) for every kept mode; t must be >= t_min."""
        if not t >= self.t_min:
            raise ParameterError(f"time {t} is below t_min = {self.t_min}, the earliest this kernel was built for")
        return np.exp(-np.clip(self.eigenvalues * t, None, 745.0))

    def mode_count(self, t: float) -> int:
        """Number of modes the eigensum keeps at time t: whole clusters, never part of one.

        A cluster's bound takes the weight of its lowest eigenvalue, the
        largest in it; for a one-mode cluster it is exp(-lam_j t) max phi_j^2.
        """
        bounds = self.weights(t)[self.cluster_starts] * self.cluster_sup
        keep = np.flatnonzero(bounds >= EIGENSUM_TAIL * float(np.sum(bounds)))
        ends = np.append(self.cluster_starts[1:], len(self.eigenvalues))
        return int(ends[keep[-1]]) if keep.size else 1

    def mass(self, x: float, t: float) -> float:
        """h-weighted integral of p_B(x, ., t) over the box."""
        col_sums = self.h * np.sum(self.phi[1:-1], axis=0)
        return float(np.dot(self.weights(t) * self.rows([x])[0], col_sums))


def _modes_needed(h: float, diagonal: np.ndarray, offdiagonal: np.ndarray, t_min: float) -> int:
    """Modes any t >= t_min keeps.  By min-max lam_j >= mu_j + min V, with mu_j the
    discrete Dirichlet Laplacian's eigenvalues; h sum phi_j^2 = 1 puts max phi_j^2
    in [1/(m h), 1/h].  So mode j is below EIGENSUM_TAIL of the kept total once
    (mu_j + min V - lam_1) t_min > log(m / EIGENSUM_TAIL) + 1 (an e-fold for rounding).
    """
    m = len(diagonal)
    lam1 = eigh_tridiagonal(diagonal, offdiagonal, eigvals_only=True, select="i", select_range=(0, 0))[0]
    v_min = float(np.min(diagonal)) - 2.0 / h**2
    mu = (4.0 / h**2) * np.sin(np.arange(1, m + 1) * (math.pi / (2 * (m + 1)))) ** 2
    gap = (math.log(m / EIGENSUM_TAIL) + 1.0) / t_min
    return max(1, int(np.searchsorted(mu + (v_min - lam1), gap, side="right")))


def build_spectral(V: Potential, L: float, m: int, t_min: float) -> SpectralKernel:
    """The lowest eigenpairs of the discretized Hamiltonian on [-L, L], for t >= t_min.

    m is the number of interior grid points (= matrix size).  The k modes
    come from MRRR (`stemr`) on that index range.  A cluster that k cuts
    keeps only its modes below k: the ones from k on are negligible at every
    t >= t_min (`_modes_needed`).
    """
    if not (t_min > 0.0 and math.isfinite(t_min)):
        raise ParameterError(f"t_min must be a number > 0, got {t_min}")
    nodes, h, diagonal, offdiagonal = _discretize(V, L, m)
    k = _modes_needed(h, diagonal, offdiagonal, t_min)
    lam, vecs = eigh_tridiagonal(diagonal, offdiagonal, select="i", select_range=(0, k - 1), lapack_driver="stemr")
    phi = np.zeros((m + 2, k))
    np.divide(vecs, math.sqrt(h), out=phi[1:-1])
    del vecs
    gram = h * phi[1:-1].T @ phi[1:-1]
    defect = float(np.max(np.abs(gram - np.eye(k))))
    if defect > 1e-8:
        raise RuntimeError(f"eigenvector orthonormality defect {defect:.3e} exceeds 1e-8")
    phi_sup = np.maximum(phi.max(axis=0), -phi.min(axis=0))
    # a cluster starts wherever lam_{j+1} - lam_j exceeds CLUSTER_RTOL |lam_{j+1}|
    starts = np.flatnonzero(np.append(True, np.diff(lam) > CLUSTER_RTOL * np.abs(lam[1:])))
    ends = np.append(starts[1:], k)
    cluster_sup = phi_sup[starts] ** 2  # max phi_j^2 of a one-mode cluster
    for c in np.flatnonzero(ends - starts > 1):
        cluster_sup[c] = np.max(np.sum(phi[:, starts[c] : ends[c]] ** 2, axis=1))
    return SpectralKernel(
        L=L,
        m=m,
        h=h,
        t_min=t_min,
        nodes=nodes,
        eigenvalues=lam,
        phi=phi,
        phi_sup=phi_sup,
        orthonormality_defect=defect,
        cluster_starts=starts,
        cluster_sup=cluster_sup,
    )


def spectral_log_kernel(K: SpectralKernel, xs, ys, ts) -> np.ndarray:
    """Truncated eigensum on a grid, as log p shaped [t, x, y]; every t >= K.t_min.

    The rows of every distinct point are interpolated once; each time slice
    then sums w_k a_k a_k^T, mode by mode, over the first `mode_count(t)`
    modes, the ones whose worst-case contribution is at least EIGENSUM_TAIL
    of the sum of all such bounds.  Elementwise sums keep one order however
    many points are evaluated, so a one-point call is the grid bit for bit.
    Only the x <= y triangle is kept and mirrored, so p(x, y, t) and
    p(y, x, t) are bit-identical.  Values <= 0 (truncation noise below the
    cancellation floor) map to -inf.
    """
    xs = np.asarray(xs, dtype=float).ravel()
    ys = np.asarray(ys, dtype=float).ravel()
    weights = [K.weights(t) for t in ts]
    pts, index = np.unique(np.concatenate([xs, ys]), return_inverse=True)
    ix, iy = index[: len(xs)], index[len(xs) :]
    rows = np.ascontiguousarray(K.rows(pts).T)  # one row per mode
    upper = np.triu(np.ones((len(pts), len(pts)), dtype=bool))
    out = np.empty((len(ts), len(xs), len(ys)))
    for k, (t, w) in enumerate(zip(ts, weights)):
        G = np.zeros((len(pts), len(pts)))
        for a, wj in zip(rows[: K.mode_count(t)], w):
            G += np.multiply.outer(a * wj, a)
        out[k] = np.where(upper, G, G.T)[np.ix_(ix, iy)]
    positive = out > 0.0
    return np.where(positive, np.log(np.where(positive, out, 1.0)), -np.inf)


# Nothing in the package calls this; it stays because perfbench's tracer reports
# kernel calls per point only while both it and `explicit.quadratic_kernel` exist.
def eval_spectral(K: SpectralKernel, x: float, y: float, t: float) -> float:
    """One point of `spectral_log_kernel`."""
    return float(spectral_log_kernel(K, [x], [y], [t])[0, 0, 0])


def dirichlet_interval_log_kernel(a: float, b: float, xs, ys, ts) -> np.ndarray:
    """Sine-series heat kernel of the Dirichlet Laplacian on (a, b), as log p shaped [t, x, y].

    Gamma_D(x,y,t) = (2/(b-a)) sum_k sin(k pi (x-a)/(b-a)) sin(k pi (y-a)/(b-a))
                     exp(-(k pi/(b-a))^2 t)

    At each t the series keeps enough terms that the next one is below 1e-16
    of the sum, and sums them per point in one order, so a one-point call is
    the grid bit for bit.  Points on the walls, and sums <= 0 (the series'
    cancellation floor), give -inf; a point outside is an error.
    """
    if not b > a:
        raise ParameterError(f"need b > a, got ({a}, {b})")
    ell = b - a
    xs = np.asarray(xs, dtype=float).ravel()
    ys = np.asarray(ys, dtype=float).ravel()
    pts = np.concatenate([xs, ys])
    outside = ~((pts >= a - 1e-14) & (pts <= b + 1e-14))
    if np.any(outside):
        raise ParameterError(f"point {pts[outside][0]} outside [{a}, {b}]")
    wall = np.minimum(np.abs(pts - a), np.abs(pts - b)) <= 1e-14
    walls = wall[: len(xs), None] | wall[None, len(xs) :]
    out = np.empty((len(ts), len(xs), len(ys)))
    for i, t in enumerate(ts):
        if not t > 0.0:
            raise ParameterError(f"time must be > 0, got {t}")
        k = np.arange(1, int(math.ceil(ell / math.pi * math.sqrt(40.0 / t))) + 5)
        decay = np.exp(-np.clip((k * math.pi / ell) ** 2 * t, None, 745.0))
        sx = np.sin(k * math.pi * (xs[:, None] - a) / ell)
        sy = np.sin(k * math.pi * (ys[:, None] - a) / ell)
        out[i] = 2.0 / ell * np.sum(sx[:, None, :] * sy[None, :, :] * decay, axis=-1)
    positive = (out > 0.0) & ~walls
    return np.where(positive, np.log(np.where(positive, out, 1.0)), -np.inf)


@lru_cache(maxsize=12)
def cached_spectral(V: Potential, L: float, m: int, t_min: float) -> SpectralKernel:
    """Memoized build; potentials are immutable so the key is safe."""
    return build_spectral(V, L, m, t_min)


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

    def refine(self) -> "ProbeGrid":
        """The same ranges at half the steps."""
        return ProbeGrid(self.x_min, self.x_max, self.t_min, self.t_max, self.h * 0.5, self.tau * 0.5)


def pde_residual(V: Potential, log_kernel: Callable[..., np.ndarray], y: float, grid: ProbeGrid) -> float:
    """Max norm of d_t p + (-D_h^2 p + V p) over the probe lattice.

    p(., y, .) on the whole lattice comes from one `log_kernel` call.
    Centered second differences in space, centered first differences in
    time, so a kernel actually solving the equation shrinks at O(h^2+tau^2).
    """
    xs = np.arange(grid.x_min - grid.h, grid.x_max + 1.5 * grid.h, grid.h)
    ts = np.arange(grid.t_min - grid.tau, grid.t_max + 1.5 * grid.tau, grid.tau)
    P = np.exp(log_kernel(xs, [y], ts)[:, :, 0]).T  # [x, t]
    inner = P[1:-1, 1:-1]
    d_t = (P[1:-1, 2:] - P[1:-1, :-2]) / (2.0 * grid.tau)
    d_xx = (P[2:, 1:-1] - 2.0 * inner + P[:-2, 1:-1]) / grid.h**2
    vals = np.asarray(V(xs[1:-1]), dtype=float)[:, None]
    residual = d_t - d_xx + vals * inner
    return float(np.max(np.abs(residual)))


# Nodes `z_lattice` may allocate: 8 MB per array.
MAX_LATTICE_NODES = 1_000_000


def z_lattice(L: float, t: float) -> tuple[np.ndarray, float]:
    """(nodes, spacing h) of the uniform lattice on [-L, L] with spacing at most 0.05 sqrt(t).

    h times a sum over the nodes integrates a kernel of time >= t whose tails
    at +-L are negligible to near machine precision, since the trapezoid rule
    converges geometrically on such integrands.
    """
    count = math.ceil(2.0 * L / (0.05 * math.sqrt(t))) + 1
    if count > MAX_LATTICE_NODES:
        raise ParameterError(f"the lattice needs {count} nodes, above the cap of {MAX_LATTICE_NODES}")
    return np.linspace(-L, L, count), 2.0 * L / (count - 1)


def semigroup_defect(K, x: float, y: float, t: float, s: float, L: float | None = None) -> float:
    """Relative Chapman-Kolmogorov defect |int p(x,z,t) p(z,y,s) dz - p| / p.

    K is a SpectralKernel or a batched `log_kernel(xs, ys, ts)`.  Spectral
    kernels use the h-weighted node sum (the identity is exact for the
    discrete operator, interpolation aside).  A log_kernel is integrated as
    h times the sum over `z_lattice(L, min(t, s))`, with L wide enough that
    the Gaussian tails are below 1e-12; it is called three times, for
    p(x, ., t), p(., y, s) and p(x, y, t + s).  If p(x,y,t+s) underflows,
    the absolute defect is returned instead.
    """
    if not (t > 0 and s > 0):
        raise ParameterError("semigroup times must be > 0")
    if isinstance(K, SpectralKernel):
        p1 = K.phi[1:-1] @ (K.weights(t) * K.rows([x])[0])
        p2 = K.phi[1:-1] @ (K.weights(s) * K.rows([y])[0])
        integral = K.h * float(np.dot(p1, p2))
        log_direct = float(spectral_log_kernel(K, [x], [y], [t + s])[0, 0, 0])
    else:
        if L is None:
            L = max(abs(x), abs(y)) + 12.0 * math.sqrt(max(t, s)) + 1.0
        zs, h = z_lattice(L, min(t, s))
        p1 = np.exp(K([x], zs, [t])[0, 0])
        p2 = np.exp(K(zs, [y], [s])[0, :, 0])
        integral = h * float(np.dot(p1, p2))
        log_direct = float(K([x], [y], [t + s])[0, 0, 0])
    direct = math.exp(log_direct) if log_direct >= -745.0 else 0.0
    if direct <= 0.0:
        return abs(integral - direct)
    return abs(integral - direct) / direct
