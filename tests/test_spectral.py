import math
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal
from scipy.special import ai_zeros

from heatkernel import (
    DomainError,
    ParameterError,
    PolynomialPotential,
    Potential,
    PowerPotential,
    ProbeGrid,
    QuadraticCoeffs,
    ScaledPotential,
    SumPotential,
    build_spectral,
    constant,
    dirichlet_interval_log_kernel,
    eval_spectral,
    gaussian_log_kernel,
    pde_residual,
    quadratic_kernel,
    quadratic_log_kernel,
    semigroup_defect,
    spectral_log_kernel,
)
from heatkernel import spectral
from heatkernel.spectral import CLUSTER_RTOL, EIGENSUM_TAIL, cached_spectral

V_SQ = PolynomialPotential([0.0, 0.0, 1.0])


def log_gd(a, b, x, y, t):
    """One point of `dirichlet_interval_log_kernel`."""
    return float(dirichlet_interval_log_kernel(a, b, [x], [y], [t])[0, 0, 0])


def test_free_eigenvalues(spectral_free):
    # Dirichlet spectrum on [-2, 2]: (k pi / 4)^2 with O(h^2) error
    k = np.arange(1, 6)
    exact = (k * math.pi / 4.0) ** 2
    rel = np.abs(spectral_free.eigenvalues[:5] - exact) / exact
    assert np.max(rel) < 1e-4


def test_free_kernel_matches_sine_series(spectral_free):
    for x, y, t in [(0.3, -0.5, 0.05), (0.0, 0.0, 0.2), (1.2, 0.7, 0.1), (-1.0, 1.0, 0.5)]:
        a = math.exp(eval_spectral(spectral_free, x, y, t))
        b = math.exp(log_gd(-2.0, 2.0, x, y, t))
        assert a == pytest.approx(b, rel=1e-4, abs=1e-12)


def test_harmonic_ground_energy(spectral_harmonic):
    lam = spectral_harmonic.eigenvalues
    assert abs(lam[0] - 1.0) < 1e-3
    assert abs(lam[1] - 3.0) < 1e-3
    assert abs(lam[2] - 5.0) < 1e-3
    # Rayleigh quotient cross-check on the ground mode
    K = spectral_harmonic
    phi0 = K.phi[1:-1, 0]
    lap = np.zeros_like(phi0)
    lap[1:-1] = (phi0[2:] - 2 * phi0[1:-1] + phi0[:-2]) / K.h**2
    lap[0] = (phi0[1] - 2 * phi0[0]) / K.h**2
    lap[-1] = (phi0[-2] - 2 * phi0[-1]) / K.h**2
    rayleigh = K.h * float(np.sum(phi0 * (-lap + K.nodes**2 * phi0)))
    assert rayleigh == pytest.approx(lam[0], rel=1e-10)


def test_eval_symmetry_and_positivity(spectral_vxx1):
    for x, y, t in [(0.4, -1.3, 0.05), (2.0, 1.0, 0.5), (-1.8, 1.8, 1.0)]:
        a = eval_spectral(spectral_vxx1, x, y, t)
        b = eval_spectral(spectral_vxx1, y, x, t)
        assert a == b
        assert math.exp(a) >= 0.0  # truncation negatives clamp to zero


def test_spectral_matches_quadratic_oracle(spectral_vxx1):
    c = QuadraticCoeffs(1.0, 1.0, 1.0)
    for x, y, t in [(0.0, 0.0, 0.05), (1.0, 0.5, 0.1), (-2.0, -1.5, 0.5), (2.0, 2.0, 1.0)]:
        ps = math.exp(eval_spectral(spectral_vxx1, x, y, t))
        pq = math.exp(quadratic_kernel(c, x, y, t))
        assert ps == pytest.approx(pq, rel=5e-3)


def test_eval_parameter_errors(spectral_free):
    with pytest.raises(ParameterError):
        eval_spectral(spectral_free, 0.0, 0.0, 0.0)
    with pytest.raises(ParameterError):
        eval_spectral(spectral_free, 3.0, 0.0, 0.1)


def test_build_rejections():
    with pytest.raises(ParameterError):
        build_spectral(V_SQ, 4.0, 2, 0.05)
    with pytest.raises(DomainError):
        build_spectral(PowerPotential(-0.5), 4.0, 101, 0.05)
    with pytest.raises(DomainError):
        build_spectral(PolynomialPotential([-1.0]), 4.0, 101, 0.05)


def test_dirichlet_boundary_and_peak():
    assert math.exp(log_gd(0.0, math.pi, 0.0, 1.0, 0.5)) == 0.0
    got = math.exp(log_gd(0.0, math.pi, math.pi / 2, math.pi / 2, 10.0))
    assert got == pytest.approx(2.0 / math.pi * math.exp(-10.0), rel=1e-12)
    with pytest.raises(ParameterError):
        log_gd(0.0, math.pi, -0.5, 1.0, 0.5)


def test_dirichlet_below_free_kernel():
    for x, y, t in [(0.3, 0.6, 0.05), (1.5, -1.5, 0.3), (0.0, 0.0, 1.0)]:
        gd = math.exp(log_gd(-2.0, 2.0, x, y, t))
        g = math.exp(gaussian_log_kernel([x], [y], [t])[0, 0, 0])
        assert gd <= g * (1.0 + 1e-8)


GD = partial(dirichlet_interval_log_kernel, -2.0, 2.0)
GD_XS, GD_TS = np.linspace(-2.0, 2.0, 41), np.array([0.01, 0.05, 0.3, 1.0, 4.0])


def test_dirichlet_log_kernel_grid_is_bit_symmetric_and_walls_are_minus_inf():
    grid = GD(GD_XS, GD_XS, GD_TS)
    assert grid.shape == (len(GD_TS), len(GD_XS), len(GD_XS))
    assert np.array_equal(grid, grid.transpose(0, 2, 1))
    assert np.all(grid[:, [0, -1], :] == -np.inf) and np.all(grid[:, :, [0, -1]] == -np.inf)
    assert np.all(np.isfinite(grid[2:, 1:-1, 1:-1]))


@settings(max_examples=30, deadline=None)
@given(
    xs=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=5),
    ys=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=5),
    ts=st.lists(st.floats(1e-3, 10.0), min_size=1, max_size=3),
)
def test_dirichlet_log_kernel_one_point_equals_the_grid(xs, ys, ts):
    grid = GD(xs, ys, ts)
    for k, t in enumerate(ts):
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                assert log_gd(-2.0, 2.0, x, y, t) == grid[k, i, j]


def test_dirichlet_log_kernel_is_a_heat_kernel():
    # Chapman-Kolmogorov on the lattice over the interval itself, where p vanishes at the walls
    for x, y, t, s in [(0.3, -0.4, 0.2, 0.3), (1.5, -1.7, 0.05, 0.5), (0.0, 0.0, 1.0, 2.0)]:
        assert semigroup_defect(GD, x, y, t, s, L=2.0) <= 1e-12
    # it solves the free heat equation, V = 0, at second order
    grid = ProbeGrid(x_min=-1.0, x_max=1.0, t_min=0.3, t_max=0.31, h=0.02, tau=2e-4)
    ratio = pde_residual(constant(0.0), GD, 0.3, grid) / pde_residual(constant(0.0), GD, 0.3, grid.refine())
    assert 3.5 <= ratio <= 4.5
    # and stays below the free kernel wherever the series resolves it, |x - y| <= 2 sqrt(t)
    near = np.abs(GD_XS[:, None] - GD_XS[None, :])[None] <= 2.0 * np.sqrt(GD_TS)[:, None, None]
    excess = GD(GD_XS, GD_XS, GD_TS) - gaussian_log_kernel(GD_XS, GD_XS, GD_TS)
    assert np.max(excess[near]) <= 1e-13


@pytest.mark.parametrize(
    "a, b, xs, ts",
    [(-2.0, 2.0, [0.0, 2.5], [0.1]), (-2.0, 2.0, [0.0], [0.1, 0.0]), (2.0, 2.0, [2.0], [0.1]), (1.0, -1.0, [0.0], [0.1])],
)
def test_dirichlet_log_kernel_refusals(a, b, xs, ts):
    with pytest.raises(ParameterError):
        dirichlet_interval_log_kernel(a, b, xs, [0.0], ts)


def test_domain_monotonicity():
    a = cached_spectral(V_SQ, 4.0, 799, 0.3)
    b = cached_spectral(V_SQ, 8.0, 1599, 0.3)
    for x, y, t in [(0.0, 0.0, 0.3), (1.0, -0.5, 0.5), (2.0, 2.0, 1.0)]:
        va = math.exp(eval_spectral(a, x, y, t))
        vb = math.exp(eval_spectral(b, x, y, t))
        assert va <= vb * (1.0 + 1e-6) + 1e-8


def test_bounded_potential_comparison():
    # 0 <= V <= M on the box makes exp(-Mt) Gamma_D a lower bound for p_B
    K = cached_spectral(V_SQ, 2.0, 799, 0.1)
    M = 4.0
    for x in np.linspace(-1.5, 1.5, 5):
        for y in np.linspace(-1.5, 1.5, 5):
            for t in (0.1, 0.5, 1.0):
                lhs = math.exp(-M * t) * math.exp(log_gd(-2.0, 2.0, x, y, t))
                pb = math.exp(eval_spectral(K, x, y, t))
                assert lhs <= pb * (1.0 + 1e-6)


def test_mass_bound(spectral_vxx1):
    # h-weighted integral of p_B(0, ., t) over the box, from the full eigensum
    K = spectral_vxx1
    col_sums = K.h * np.sum(K.phi[1:-1], axis=0)
    for t in (0.05, 0.5, 1.0):
        assert float(np.dot(K.weights(t) * K.rows([0.0])[0], col_sums)) <= 1.0 + 1e-8


def test_pde_residual_rates():
    grid = ProbeGrid(-1.0, 1.0, 0.3, 0.31, h=0.02, tau=2e-4)
    quad_K = partial(quadratic_log_kernel, QuadraticCoeffs(0, 0, 1))
    coarse = pde_residual(V_SQ, quad_K, 0.3, grid)
    fine = pde_residual(V_SQ, quad_K, 0.3, grid.refine())
    assert 3.5 <= coarse / fine <= 4.5

    coarse0 = pde_residual(constant(0.0), gaussian_log_kernel, 0.3, grid)
    fine0 = pde_residual(constant(0.0), gaussian_log_kernel, 0.3, grid.refine())
    assert 3.5 <= coarse0 / fine0 <= 4.5


def test_pde_residual_negative_control():
    grid = ProbeGrid(-1.0, 1.0, 0.3, 0.31, h=0.02, tau=2e-4)
    res = pde_residual(V_SQ, gaussian_log_kernel, 0.3, grid)
    peak = max(
        abs(x * x * math.exp(gaussian_log_kernel([x], [0.3], [0.3])[0, 0, 0])) for x in np.linspace(-1, 1, 101)
    )
    assert res > 0.1 * peak


def test_probe_grid_validation():
    with pytest.raises(ParameterError):
        ProbeGrid(-1.0, 1.0, 1e-5, 0.3, h=0.02, tau=2e-4)
    with pytest.raises(ParameterError):
        ProbeGrid(1.0, -1.0, 0.3, 0.4, h=0.02, tau=2e-4)


def test_semigroup_defects(spectral_free):
    quad_K = partial(quadratic_log_kernel, QuadraticCoeffs(0, 0, 1))
    assert semigroup_defect(quad_K, 0.0, 0.0, 0.25, 0.25) <= 1e-4
    assert semigroup_defect(gaussian_log_kernel, 0.0, 0.0, 0.25, 0.25) <= 1e-10
    # discrete eigensum satisfies the identity exactly up to interpolation
    assert semigroup_defect(spectral_free, 0.3, -0.4, 0.2, 0.3) <= 1e-6


def test_orthonormality_defect(spectral_free):
    assert spectral_free.orthonormality_defect <= 1e-8


def test_spectral_below_free_kernel(spectral_vxx1):
    # nonnegative potential: the free Gaussian kernel dominates
    for x, y, t in [(0.0, 0.0, 0.05), (1.0, -0.5, 0.2), (2.0, 2.0, 1.0)]:
        ps = math.exp(eval_spectral(spectral_vxx1, x, y, t))
        g = math.exp(gaussian_log_kernel([x], [y], [t])[0, 0, 0])
        assert ps <= g * (1.0 + 1e-10)


def test_semigroup_defect_underflow_falls_back_to_absolute():
    # direct value underflows at huge separation; absolute defect returned
    d = semigroup_defect(gaussian_log_kernel, -60.0, 60.0, 0.05, 0.05, L=80.0)
    assert 0.0 <= d < 1e-300


def full_reference(coeffs, L, m):
    """(nodes with the walls, eigenvalues, h-normalized eigenvectors with zero wall rows) of
    every mode of the same discretization, from one full solve made here."""
    h = 2.0 * L / (m + 1)
    grid = np.linspace(-L, L, m + 2)
    lam, vecs = eigh_tridiagonal(np.polyval(coeffs[::-1], grid[1:-1]) + 2.0 / h**2, np.full(m - 1, -1.0 / h**2))
    phi = np.zeros((m + 2, m))
    phi[1:-1] = vecs / math.sqrt(h)
    return grid, lam, phi


def reference_bounds(lam, phi, t):
    return np.exp(-np.clip(lam * t, None, 745.0)) * np.max(np.abs(phi), axis=0) ** 2


def reference_mode_count(lam, phi, t):
    """Modes up to the end of the last cluster whose bound is >= EIGENSUM_TAIL of all of them.

    A cluster is a run of eigenvalues each within CLUSTER_RTOL of the one
    before, relatively.  Its bound, exp(-lam t) at its lowest eigenvalue times
    max_x sum phi_j(x)^2, is the same in every orthonormal basis of the cluster.
    """
    clusters = [[0]]
    for j in range(1, len(lam)):
        if lam[j] - lam[j - 1] > CLUSTER_RTOL * abs(lam[j]):
            clusters.append([j])
        else:
            clusters[-1].append(j)
    weights = np.exp(-np.clip(lam[[c[0] for c in clusters]] * t, None, 745.0))
    bounds = weights * np.array([np.max(np.sum(phi[:, c] ** 2, axis=1)) for c in clusters])
    return clusters[np.flatnonzero(bounds >= EIGENSUM_TAIL * np.sum(bounds))[-1]][-1] + 1


# nonnegative potentials: a (x - s)^2 + c, a x^4 + b x^2 + c, and the double well a (x^2 - b^2)^2
nonnegative = st.one_of(
    st.builds(lambda a, s, c: [c + a * s * s, -2.0 * a * s, a], st.floats(0.1, 3.0), st.floats(-2.0, 2.0),
              st.floats(0.0, 2.0)),
    st.builds(lambda a, b, c: [c, 0.0, b, 0.0, a], st.floats(0.05, 2.0), st.floats(0.0, 2.0), st.floats(0.0, 2.0)),
    st.builds(lambda a, b: [a * b**4, 0.0, -2.0 * a * b * b, 0.0, a], st.floats(0.05, 2.0), st.floats(0.5, 2.0)),
)


@settings(max_examples=15, deadline=None)
@example(coeffs=[0.0, 0.0, 1.0], L=8.0, m=601, t_min=0.05)  # k = 155, a quarter of the modes
@example(coeffs=[1.0, 0.0, -2.0, 0.0, 1.0], L=8.0, m=1201, t_min=0.05)  # k = 153, an eighth of the modes
# modes 200 and 201 are a pair localized at the two walls with one eigenvalue: the
# max of each eigenvector depends on the basis LAPACK picks inside the pair
@example(coeffs=[0.0, 0.0, 1.0], L=6.0, m=202, t_min=0.02)
@given(
    coeffs=nonnegative,
    L=st.floats(2.0, 8.0),
    m=st.integers(201, 1201),
    t_min=st.floats(0.02, 1.0),
)
def test_partial_build_keeps_every_mode_a_full_solve_would(coeffs, L, m, t_min):
    K = build_spectral(PolynomialPotential(coeffs), L, m, t_min)
    grid, lam, phi = full_reference(coeffs, L, m)
    k = len(K.eigenvalues)
    ts = [t_min, 1.5 * t_min, 4.0 * t_min, t_min + 2.0]
    for t in ts:
        # each dropped mode's bound is below EIGENSUM_TAIL of the kept total ...
        kept_total = float(np.sum(K.weights(t) * np.max(np.abs(K.phi), axis=0) ** 2))
        assert np.all(reference_bounds(lam, phi, t)[k:] < EIGENSUM_TAIL * kept_total)
        # ... so the eigensum keeps the modes the full solve keeps
        assert K.mode_count(t) == reference_mode_count(lam, phi, t)
    xs = np.linspace(-0.5 * L, 0.5 * L, 7)
    got = spectral_log_kernel(K, xs, xs, ts)
    for s, t in enumerate(ts):
        n = reference_mode_count(lam, phi, t)
        A = np.array([np.interp(xs, grid, col) for col in phi[:, :n].T]).T
        p = (A * np.exp(-lam[:n] * t)) @ A.T
        resolved = p >= 1e-3 * np.max(p)
        assert np.max(np.abs(got[s][resolved] - np.log(p[resolved]))) <= 1e-9
    below = t_min * (1.0 - 1e-9)
    for call in (
        lambda: spectral_log_kernel(K, xs, xs, [t_min, below]),
        lambda: eval_spectral(K, 0.0, 0.0, below),
        lambda: K.mode_count(below),
        lambda: K.weights(below),
    ):
        with pytest.raises(ParameterError):
            call()


def test_times_below_t_min_raise(spectral_free):
    assert spectral_free.t_min == 0.05
    eval_spectral(spectral_free, 0.1, 0.2, 0.05)
    with pytest.raises(ParameterError, match="t_min"):
        eval_spectral(spectral_free, 0.1, 0.2, 0.049)
    with pytest.raises(ParameterError, match="t_min"):
        semigroup_defect(spectral_free, 0.3, -0.4, 0.04, 0.3)
    with pytest.raises(ParameterError):
        build_spectral(V_SQ, 4.0, 101, 0.0)


def test_orthonormality_is_checked_on_every_kept_mode(monkeypatch):
    real = spectral._lowest_modes

    def one_bad_column(diagonal, offdiagonal, k, out):
        lam, vecs = real(diagonal, offdiagonal, k, out)
        if k > 1:  # the build's solve, not the lambda_1 of `_modes_needed`
            vecs[:, 5] *= 1.0 + 1e-6  # not among 48 columns sampled evenly over all 799
        return lam, vecs

    monkeypatch.setattr(spectral, "_lowest_modes", one_bad_column)
    with pytest.raises(RuntimeError, match="orthonormality defect"):
        build_spectral(V_SQ, 2.0, 799, 0.1)


@pytest.mark.parametrize("m", [200, 201])
@pytest.mark.parametrize(
    "V",
    [
        PowerPotential(-0.5),
        ScaledPotential(2.0, PowerPotential(-0.5)),
        SumPotential(PolynomialPotential([0.0, 0.0, 1.0]), PowerPotential(-0.5)),
    ],
)
def test_build_refuses_potentials_singular_at_0_for_any_m(V, m):
    # an even m puts no node on 0, so only V(0) itself shows the singularity
    with pytest.raises(DomainError):
        build_spectral(V, 4.0, m, 0.05)


def test_mode_count_does_not_depend_on_the_basis_inside_a_cluster(monkeypatch):
    # V = x^2 on [-6, 6], m = 202: modes 200 and 201 are a pair localized at the
    # two walls with one eigenvalue, so any rotation of the pair is an eigenbasis
    V = PolynomialPotential([0.0, 0.0, 1.0])
    K = build_spectral(V, 6.0, 202, 0.02)
    assert K.eigenvalues[201] - K.eigenvalues[200] <= CLUSTER_RTOL * K.eigenvalues[201]
    real = spectral._lowest_modes

    def rotated(diagonal, offdiagonal, k, out):
        lam, vecs = real(diagonal, offdiagonal, k, out)
        if k > 1:  # the build's solve, not the lambda_1 of `_modes_needed`
            c = math.sqrt(0.5)
            vecs[:, 200:202] = vecs[:, 200:202] @ np.array([[c, -c], [c, c]])
        return lam, vecs

    monkeypatch.setattr(spectral, "_lowest_modes", rotated)
    R = build_spectral(V, 6.0, 202, 0.02)
    # each mode's own max moved with the basis
    assert abs(np.max(np.abs(R.phi[:, 200])) - np.max(np.abs(K.phi[:, 200]))) > 0.1
    for t in (0.02, 0.03, 0.08, 2.02):
        assert R.mode_count(t) == K.mode_count(t)


def scipy_lowest_modes(V, L, m, t_min):
    """(diagonal, offdiagonal, k) of a build, and scipy's MRRR solve of its k lowest modes."""
    _, h, diagonal, offdiagonal = spectral._discretize(V, L, m)
    k = spectral._modes_needed(h, diagonal, offdiagonal, t_min)
    lam, vecs = eigh_tridiagonal(diagonal, offdiagonal, select="i", select_range=(0, k - 1), lapack_driver="stemr")
    return diagonal, offdiagonal, k, lam, vecs


def assert_lowest_modes_equal_scipy(V, L, m, t_min):
    diagonal, offdiagonal, k, lam, vecs = scipy_lowest_modes(V, L, m, t_min)
    got_lam, got_vecs = spectral._lowest_modes(diagonal, offdiagonal, k, np.zeros((m, k), order="F"))
    assert got_vecs.shape == (m, k)
    assert np.array_equal(got_lam, lam)
    assert np.array_equal(got_vecs, vecs)


@pytest.mark.parametrize(
    "coeffs, L, m, t_min",
    [
        ([0.0, 0.0, 1.0], 8.0, 3199, 0.1),  # k = 109
        ([0.0, 0.0, 1.0], 8.0, 2001, 0.05),  # k = 153
        ([0.0, 0.0, 0.0, 0.0, 1.0], 8.0, 801, 0.02),  # k = 250
        ([0.0, 0.0, 1.0], 6.0, 202, 0.02),  # every mode, with the wall pair at 200 and 201
    ],
)
def test_lowest_modes_are_scipys_stemr_bit_for_bit(coeffs, L, m, t_min):
    assert_lowest_modes_equal_scipy(PolynomialPotential(coeffs), L, m, t_min)


@settings(max_examples=20, deadline=None)
@given(
    curvature=st.floats(0.05, 4.0),
    center=st.floats(-2.0, 2.0),
    floor=st.floats(0.0, 3.0),
    L=st.floats(2.0, 8.0),
    m=st.integers(50, 1500),
    t_min=st.floats(0.02, 1.0),
)
def test_lowest_modes_equal_scipy_on_quadratics(curvature, center, floor, L, m, t_min):
    # V = curvature (x - center)^2 + floor, nonnegative everywhere
    coeffs = [curvature * center**2 + floor, -2.0 * curvature * center, curvature]
    assert_lowest_modes_equal_scipy(PolynomialPotential(coeffs), L, m, t_min)


def test_build_allocates_m_by_k_not_m_by_m():
    import tracemalloc

    build_spectral(V_SQ, 8.0, 101, 0.1)  # scipy.linalg and ctypes are imported before tracing
    tracemalloc.start()
    try:
        K = build_spectral(V_SQ, 8.0, 3199, 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 109 modes: phi alone is 2.8 MB, an m x m array would be 82 MB
    assert len(K.eigenvalues) == 109
    assert peak <= 16e6


@pytest.mark.parametrize(
    "m, t_min, bound",
    [
        (600, 1e-6, 1.3),  # k = m
        (3199, 0.1, 1.5),  # k = 109
    ],
)
def test_build_peaks_near_its_eigenvector_array(m, t_min, bound):
    # dstemr writes phi in place and the defect is taken over column blocks: no second
    # m x k array and no k x k one (with them the peaks were 4.0 and 2.1 times 8 m k)
    import tracemalloc

    build_spectral(V_SQ, 8.0, 101, 0.1)  # scipy.linalg and ctypes are imported before tracing
    tracemalloc.start()
    try:
        K = build_spectral(V_SQ, 8.0, m, t_min)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    k = len(K.eigenvalues)
    assert k == (m if t_min == 1e-6 else 109)
    assert peak <= bound * 8 * m * k


def test_lowest_modes_refuses_non_finite_entries_and_bad_mode_counts():
    diagonal, offdiagonal = np.full(5, 2.0), np.full(4, -1.0)
    for bad in (math.nan, math.inf):
        d = diagonal.copy()
        d[2] = bad
        with pytest.raises(ParameterError, match="non-finite"):
            spectral._lowest_modes(d, offdiagonal, 2, np.zeros((5, 2), order="F"))
        e = offdiagonal.copy()
        e[1] = bad
        with pytest.raises(ParameterError, match="non-finite"):
            spectral._lowest_modes(diagonal, e, 2, np.zeros((5, 2), order="F"))
    for k in (0, 6):
        with pytest.raises(ParameterError, match="modes"):
            spectral._lowest_modes(diagonal, offdiagonal, k, np.zeros((5, k), order="F"))
    lam, vecs = spectral._lowest_modes(diagonal, offdiagonal, 5, np.zeros((5, 5), order="F"))
    assert vecs.shape == (5, 5)
    assert np.allclose(lam, 2.0 - 2.0 * np.cos(np.arange(1, 6) * math.pi / 6))
    for out in (np.zeros((5, 2)), np.zeros((5, 3), order="F"), np.zeros((5, 2), dtype=np.float32, order="F")):
        with pytest.raises(ParameterError, match="contiguous columns"):
            spectral._lowest_modes(diagonal, offdiagonal, 2, out)


def test_lowest_modes_write_into_a_strided_output():
    # the interior rows of a Fortran-ordered array: LDZ is its column stride, the padding rows stay 0
    diagonal, offdiagonal = np.full(5, 2.0), np.full(4, -1.0)
    want_lam, want = spectral._lowest_modes(diagonal, offdiagonal, 3, np.zeros((5, 3), order="F"))
    padded = np.zeros((7, 3), order="F")
    lam, vecs = spectral._lowest_modes(diagonal, offdiagonal, 3, padded[1:-1])
    assert vecs.base is padded
    assert np.array_equal(lam, want_lam) and np.array_equal(padded[1:-1], want)
    assert not padded[0].any() and not padded[-1].any()


XS9 = np.linspace(-2.0, 2.0, 9)


def resolved(log_p):
    """The points of each time slice of log_p, shaped [t, x, y], where p is at least 1e-3 of the slice max."""
    return log_p >= np.max(log_p, axis=(1, 2), keepdims=True) + math.log(1e-3)


def test_abs_x_oracle_is_converged_and_symmetric(abs_x_kernel, abs_x_modes):
    K = abs_x_modes(0.1)
    lam = -ai_zeros(K)[1]  # the even modes', the lower of the two parities
    assert lam[-1] * 0.1 >= 40.0 > lam[-2] * 0.1 and 1650 <= K <= 1750
    ts = [0.1, 0.2, 1.0, 3.0]
    coarse, fine = (abs_x_kernel(XS9, XS9, ts, modes=k) for k in (K, 2 * K))
    at = resolved(fine)
    assert np.max(np.abs(coarse[at] - fine[at])) <= 1e-12
    p = np.exp(fine)
    assert np.all(np.abs(p - p.transpose(0, 2, 1))[at] <= 1e-12 * p[at])


@pytest.mark.parametrize("t", [0.2, 1.0, 3.0])
def test_abs_x_oracle_lattice_mass_is_at_most_one(abs_x_kernel, t):
    zs, h = spectral.z_lattice(8.0, t)
    mass = h * np.sum(np.exp(abs_x_kernel(XS9, zs, [t])[0]), axis=1)
    assert np.all((0.0 < mass) & (mass <= 1.0))


# The worst |d log p| measured at t = 0.1 was 1.53e-3 at m = 2001 and 3.23e-4 at
# m = 3199; each bound sits under 5% above it, so a finer build must lower it.
@pytest.mark.parametrize("m, bound", [(2001, 1.6e-3), (3199, 3.39e-4)])
def test_fd_eigensum_error_against_the_abs_x_oracle_is_pinned(abs_x_kernel, m, bound):
    exact = abs_x_kernel(XS9, XS9, [0.1])
    got = spectral_log_kernel(build_spectral(PowerPotential(1.0), 8.0, m, 0.1), XS9, XS9, [0.1])
    at = resolved(exact)
    assert np.max(np.abs(got[at] - exact[at])) <= bound


@pytest.mark.parametrize("coeffs", [[0.7, 0.4, 1.3], [0.0, 0.0, 1.0], [1.0, 0.0, -2.0, 0.0, 1.0]])
def test_eigensum_a0_shift(coeffs):
    # V + c has the eigenvectors of V and eigenvalues shifted by c: log p drops by c t, the mode count stays
    ts = [0.05, 0.2, 1.0, 3.0]
    K = cached_spectral(PolynomialPotential(coeffs), 8.0, 2001, 0.05)
    log_p = spectral_log_kernel(K, XS9, XS9, ts)
    at = resolved(log_p)
    ct = np.broadcast_to(np.asarray(ts)[:, None, None], log_p.shape)[at]
    for c in (0.5, 3.0, 10.0):
        shifted = build_spectral(PolynomialPotential([coeffs[0] + c, *coeffs[1:]]), 8.0, 2001, 0.05)
        assert [shifted.mode_count(t) for t in ts] == [K.mode_count(t) for t in ts]
        got = spectral_log_kernel(shifted, XS9, XS9, ts)[at]
        assert np.max(np.abs(got - (log_p[at] - c * ct))) <= 1e-10


class _UnboundedAwayFromZero(Potential):
    """V = 0 on [-1, 1] and infinite outside it."""

    def __call__(self, x):
        return np.where(np.abs(x) <= 1.0, 0.0, math.inf)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: build_spectral(V_SQ, 0.0, 101, 0.05), ParameterError, "half-width must be > 0, got 0.0"),
        (
            lambda: build_spectral(_UnboundedAwayFromZero(), 4.0, 101, 0.05),
            DomainError,
            "potential is unbounded on the computational box",
        ),
        (lambda: ProbeGrid(-1.0, 1.0, 0.3, 0.4, h=0.0, tau=2e-4), ParameterError, "probe steps must be > 0"),
        (
            lambda: semigroup_defect(gaussian_log_kernel, 0.0, 0.0, 0.0, 0.25),
            ParameterError,
            "semigroup times must be > 0",
        ),
    ],
)
def test_every_spectral_refusal_raises_its_message(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message
