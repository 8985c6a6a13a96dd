"""Batched kernel grids, the sample-based fitter, and the pinned fit results."""

import json
import math

import numpy as np
import pytest

from heatkernel import (
    ParameterError,
    PolynomialPotential,
    QuadraticCoeffs,
    TabulatedPotential,
    ap_constant,
    Cube,
    eval_spectral,
    fit_constants,
    grid_points,
    grid_samples,
    quadratic_kernel,
    quadratic_log_kernel,
    spectral_log_kernel,
)
from heatkernel import acceptance
from heatkernel.cli import main
from heatkernel.potentials import _nonintegrable_root_mask
from heatkernel.spectral import EIGENSUM_TAIL

XS = np.linspace(-2.0, 2.0, 9)
TS = np.linspace(0.05, 1.0, 5)


def scalar_eigensum(K, x, y, t):
    """Per-point eigensum with a running-sum cut, written independently of the batched path."""
    if y < x:
        x, y = y, x
    weights = np.exp(-np.clip(K.eigenvalues * t, None, 745.0))
    running = np.cumsum(weights * K.modes_at(x) * K.modes_at(y))
    keep = weights * K.phi_sup**2 >= EIGENSUM_TAIL * np.abs(running)
    value = float(running[int(np.max(np.nonzero(keep))) if np.any(keep) else 0])
    return math.log(value) if value > 0.0 else -math.inf


def resolved(logp):
    """Points at or above 1e-3 of their time slice's peak, for a [t, x, y] array."""
    p = np.exp(logp)
    return p >= 1e-3 * p.max(axis=(1, 2), keepdims=True)


@pytest.mark.parametrize("coeffs", [(0.0, 0.0, 1.0), (0.7, 0.4, 1.3), (-1.0, -0.8, 0.5)])
def test_closed_form_batched_equals_scalar(coeffs):
    c = QuadraticCoeffs(*coeffs)
    ys = np.linspace(-3.0, 1.5, 7)
    ts = np.geomspace(0.01, 30.0, 6)
    got = quadratic_log_kernel(c, XS, ys, ts)
    assert got.shape == (len(ts), len(XS), len(ys))
    want = np.array([[[quadratic_kernel(c, x, y, t).log_value for y in ys] for x in XS] for t in ts])
    assert np.max(np.abs(got - want)) <= 1e-12


def test_closed_form_batched_rejects_small_times():
    with pytest.raises(ParameterError):
        quadratic_log_kernel(QuadraticCoeffs(0.0, 0.0, 1.0), XS, XS, [0.1, 1e-13])


def test_spectral_batched_equals_scalar_where_resolved(spectral_vxx1):
    got = spectral_log_kernel(spectral_vxx1, XS, XS, TS)
    want = np.array([[[scalar_eigensum(spectral_vxx1, x, y, t) for y in XS] for x in XS] for t in TS])
    mask = resolved(want)
    assert mask.sum() > 200
    assert np.max(np.abs(got[mask] - want[mask])) <= 1e-12
    # the one-point call is the same function
    for k, i, j in [(0, 0, 8), (2, 3, 4), (4, 8, 1)]:
        assert eval_spectral(spectral_vxx1, XS[i], XS[j], TS[k]).log_value == got[k, i, j]


def test_spectral_grids_are_bit_symmetric(spectral_vxx1):
    square = spectral_log_kernel(spectral_vxx1, XS, XS, TS)
    assert np.array_equal(square, square.transpose(0, 2, 1))
    # includes the far corners, where the eigensum sits at its cancellation floor
    assert not resolved(square).all()
    # overlapping axes in another order: p(x, y, t) and p(y, x, t) still agree bit for bit
    ys = np.concatenate([XS[::-2], [0.123]])
    a = spectral_log_kernel(spectral_vxx1, XS, ys, TS)
    b = spectral_log_kernel(spectral_vxx1, ys, XS, TS)
    assert np.array_equal(a, b.transpose(0, 2, 1))
    for x, y, t in [(0.4, -1.3, 0.05), (-2.0, 2.0, 0.05), (1.9, -1.7, 0.3)]:
        assert eval_spectral(spectral_vxx1, x, y, t).log_value == eval_spectral(spectral_vxx1, y, x, t).log_value


def test_spectral_batched_errors(spectral_free):
    with pytest.raises(ParameterError):
        spectral_log_kernel(spectral_free, [0.0], [0.0], [0.1, 0.0])
    with pytest.raises(ParameterError):
        spectral_log_kernel(spectral_free, [0.0, 2.5], [0.0], [0.1])


def test_grid_samples_are_x_major():
    ys, ts = [5.0, 6.0], [0.5, 0.25, 1.0]
    logp = np.arange(len(ts) * len(XS[:3]) * len(ys), dtype=float).reshape(len(ts), 3, len(ys))
    samples = grid_samples(XS[:3], ys, ts, logp)
    assert [s[:3] for s in samples] == grid_points(XS[:3], ys, ts)
    assert [s[3] for s in samples] == [logp[k, i, j] for i in range(3) for j in range(2) for k in range(3)]
    with pytest.raises(ParameterError):
        grid_samples(XS, ys, ts, logp)


@pytest.mark.parametrize("engine", ["explicit", "ode", "spectral"])
def test_kernel_csv_rows_are_x_major(tmp_path, engine):
    cfg = {
        "potential": {"kind": "polynomial", "coefficients": [0.5, 0.2, 1.0], "dimension": 1},
        "engine": engine,
        "grid": {"x": [-1.0, 1.0, 3], "y": [0.0, 0.5, 2], "t": [0.1, 0.4, 2]},
        "spectral": {"half_width": 4.0, "points": 401},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["--config", str(path), "--out", str(tmp_path / "out"), "kernel"]) == 0
    lines = (tmp_path / "out" / "kernel.csv").read_text().splitlines()[2:]
    rows = [tuple(float(v) for v in ln.split(",")) for ln in lines]
    assert [r[:3] for r in rows] == grid_points([-1.0, 0.0, 1.0], [0.0, 0.5], [0.1, 0.4])
    if engine != "spectral":
        c = QuadraticCoeffs(0.5, 0.2, 1.0)
        assert max(abs(r[3] - quadratic_kernel(c, *r[:3]).log_value) for r in rows) <= 1e-12


def test_closed_form_bounds_reads_the_batched_values(tmp_path):
    cfg = {
        "potential": {"kind": "polynomial", "coefficients": [0.5, 0.2, 1.0], "dimension": 1},
        "engine": "explicit",
        "grid": {"x": [-1.0, 1.0, 3], "y": [0.0, 0.5, 2], "t": [0.1, 0.4, 2]},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["--config", str(path), "--out", str(tmp_path / "out"), "bounds"]) == 0
    lines = (tmp_path / "out" / "bound_slacks.csv").read_text().splitlines()[2:]
    by_family = {}
    for ln in lines:
        family, *vals = ln.split(",")
        by_family.setdefault(family, []).append(tuple(float(v) for v in vals[:4]))
    xs, ys, ts = [-1.0, 0.0, 1.0], [0.0, 0.5], [0.1, 0.4]
    want = grid_samples(xs, ys, ts, quadratic_log_kernel(QuadraticCoeffs(0.5, 0.2, 1.0), xs, ys, ts))
    assert len(by_family) == 5 and by_family["avg_upper"] == want
    for rows in by_family.values():  # some families record only the points in their regime
        assert rows == [w for w in want if w in set(rows)]


def test_fit_constants_rejects_malformed_samples():
    with pytest.raises(ParameterError):
        fit_constants(None, [], "avg_upper", beta=0.9)
    with pytest.raises(ParameterError):
        fit_constants(None, [(0.0, 0.0, 0.5)], "avg_upper", beta=0.9)


# Fitted constants, verdicts and min slacks of the c6 sandwich and c10
# interval fits, recorded before the fitter took samples instead of a kernel.
SANDWICH_PINS = {
    "avg_upper": (True, 0.0, {"c0": 0.5641895835477563, "c1": 1.1924991138482286, "c2": 0.125}),
    "symmetrized_upper": (True, 0.0, {"c0": 0.5641895835477563, "c1": 0.125, "c2": 0.7844362800639041}),
    "quadratic_sharp": (
        True,
        0.0,
        {"c0": 0.125983555684144, "c1": 0.492977069163074, "c2": 0.5953936451348476, "c3": 0.4938735384167342},
    ),
    "avg_lower_near": (True, 0.0, {"c0": 0.14104739588693907, "c1": 1.4191952299072534}),
    "avg_lower_far": (
        True,
        8.881784197001252e-16,
        {"c0": 0.14104739588693907, "c1": 2.145636637269014, "c2": 2.0, "c3": 0.5},
    ),
}
INTERVAL_PIN = (True, 0.0, 0.2810684444750617)


def test_sandwich_fits_match_pins():
    _, fits = acceptance._sandwich_fits()
    assert set(fits) == set(SANDWICH_PINS)
    for family, (feasible, min_slack, consts) in SANDWICH_PINS.items():
        fit = fits[family]
        assert fit.feasible is feasible
        assert abs(fit.min_slack - min_slack) <= 1e-12
        for name in ("c0", "c1", "c2", "c3"):
            got = getattr(fit.envelope, name)
            if name not in consts:
                assert got is None
            else:
                assert abs(math.log(got) - math.log(consts[name])) <= 1e-12


def test_interval_fit_matches_pin():
    result = acceptance.c10_dirichlet_comparisons()
    assert result.passed
    feasible, min_slack, C = INTERVAL_PIN
    assert f"C={C:.4f}" in result.details
    from heatkernel.spectral import dirichlet_interval_kernel

    inner = np.linspace(math.pi / 4.0, 3.0 * math.pi / 4.0, 11)[1:-1]
    samples = [
        (x, y, t, dirichlet_interval_kernel(0.0, math.pi, x, y, t).log_value)
        for x, y, t in grid_points(inner, inner, np.linspace(0.01, 1.0, 6))
    ]
    fit = fit_constants(None, samples, "dirichlet_interval", epsilon=math.pi / 4.0)
    assert fit.feasible is feasible
    assert abs(fit.min_slack - min_slack) <= 1e-12
    assert abs(math.log(fit.envelope.C) - math.log(C)) <= 1e-12


def per_cube_root_flags(coeffs, lo, hi, q):
    """Root test one cube at a time: the definition the vectorized mask must match."""
    c = np.trim_zeros(np.asarray(coeffs, dtype=float), "b")
    roots = np.polynomial.polynomial.polyroots(c) if len(c) > 1 else []
    real = [float(r.real) for r in roots if abs(r.imag) < 1e-9]
    flags = []
    for a, b in zip(lo, hi):
        inside = [r for r in real if a - 1e-12 <= r <= b + 1e-12]
        mult = max((sum(1 for r2 in inside if abs(r2 - r) < 1e-8) for r in inside), default=0)
        flags.append(bool(inside) and q <= -0.5 and mult * q <= -1.0)
    return np.array(flags)


@pytest.mark.parametrize(
    "coeffs",
    [(1.0, 0.0, -2.0, 0.0, 1.0), (0.0, 0.0, 1.0), (0.0, 1.0), (0.25, -1.0, 1.0), (3.7,), (2.0, 0.0, 1.0)],
)
@pytest.mark.parametrize("q", [-1.0, -0.5, -0.25, -2.0])
def test_root_mask_matches_per_cube_scan(coeffs, q):
    lefts = -1.5 + 0.125 * np.arange(24)
    lo, hi = lefts, lefts + 0.125
    want = per_cube_root_flags(coeffs, lo, hi, q)
    assert np.array_equal(_nonintegrable_root_mask(coeffs, lo, hi, q), want)


def test_ap_scan_finds_polynomial_roots_once(monkeypatch):
    import heatkernel.potentials as potentials

    calls = []
    real = potentials.npoly.polyroots
    monkeypatch.setattr(potentials.npoly, "polyroots", lambda c: calls.append(1) or real(c))
    potentials._poly_real_roots.cache_clear()
    # x^2 at p = 2: the double root at 0 makes 1/V non-integrable
    report = ap_constant(PolynomialPotential([0.0, 0.0, 1.0]), 2.0, Cube(0.3, 2.0), 8)
    assert report.divergent
    assert len(calls) == 1


def test_tabulated_cumulative_is_computed_once():
    V = TabulatedPotential(np.linspace(-1.0, 1.0, 5), [1.0, 0.5, 0.0, 0.5, 1.0])
    assert V.cumulative is V.cumulative
    assert V.cumulative[2][-1] == pytest.approx(1.0)
    assert V == TabulatedPotential(np.linspace(-1.0, 1.0, 5), [1.0, 0.5, 0.0, 0.5, 1.0])


def test_relative_table_path_resolves_against_config(tmp_path, monkeypatch):
    confdir = tmp_path / "configs"
    confdir.mkdir()
    (confdir / "table.csv").write_text(
        "coordinate,value\n" + "\n".join(f"{x!r},{1.0 + x * x!r}" for x in np.linspace(-4.0, 4.0, 81).tolist())
    )
    cfg = {"potential": {"kind": "tabulated", "table": "table.csv"}, "chain": {"x": 0.0, "y": 0.5, "t": 0.5}}
    (confdir / "cfg.json").write_text(json.dumps(cfg))
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    rc = main(["--config", str(confdir / "cfg.json"), "--out", "out", "chain"])
    assert rc == 0
    assert (elsewhere / "out" / "chain_waypoints.csv").exists()
    # a relative config path works the same way
    monkeypatch.chdir(tmp_path)
    assert main(["--config", "configs/cfg.json", "--out", "out2", "weights"]) == 0
