"""Batched kernel grids, the sample-based fitter, and the pinned fit results."""

import csv
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from heatkernel import (
    ParameterError,
    PolynomialPotential,
    PowerPotential,
    QuadraticCoeffs,
    TabulatedPotential,
    ap_constant,
    eval_spectral,
    fit_constants,
    gaussian_log_kernel,
    grid_points,
    grid_samples,
    quadratic_kernel,
    quadratic_log_kernel,
    spectral_log_kernel,
)
import heatkernel
from heatkernel import acceptance
from heatkernel.cli import main
from heatkernel.potentials import _scaled_powered_integral
from heatkernel.spectral import EIGENSUM_TAIL

XS = np.linspace(-2.0, 2.0, 9)
TS = np.linspace(0.05, 1.0, 5)


def scalar_eigensum(K, x, y, t):
    """Per-point eigensum with a running-sum cut, written independently of the batched path."""
    if y < x:
        x, y = y, x
    weights = np.exp(-np.clip(K.eigenvalues * t, None, 745.0))
    running = np.cumsum(weights * K.rows([x])[0] * K.rows([y])[0])
    keep = weights * K.phi_sup**2 >= EIGENSUM_TAIL * np.abs(running)
    value = float(running[int(np.max(np.nonzero(keep))) if np.any(keep) else 0])
    return math.log(value) if value > 0.0 else -math.inf


def resolved(logp):
    """Points at or above 1e-3 of their time slice's peak, for a [t, x, y] array."""
    p = np.exp(logp)
    return p >= 1e-3 * p.max(axis=(1, 2), keepdims=True)


@pytest.mark.parametrize("coeffs", [(0.0, 0.0, 1.0), (0.7, 0.4, 1.3), (-1.0, -0.8, 0.5), (0.3, -0.4, 1.7)])
def test_closed_form_batched_equals_scalar(coeffs):
    c = QuadraticCoeffs(*coeffs)
    # for the last x and y, d = x - y has pow(d, 2) != d * d
    xs = np.append(XS, 1.7575503504650984)
    ys = np.append(np.linspace(-3.0, 1.5, 7), 7.290103417684794)
    ts = np.append(np.geomspace(0.01, 30.0, 6), 0.5)
    got = quadratic_log_kernel(c, xs, ys, ts)
    assert got.shape == (len(ts), len(xs), len(ys))
    want = np.array([[[quadratic_kernel(c, x, y, t) for y in ys] for x in xs] for t in ts])
    assert got.tobytes() == want.tobytes()


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
        assert eval_spectral(spectral_vxx1, XS[i], XS[j], TS[k]) == got[k, i, j]


ONE_POINT_EQUALS_GRID = """
import numpy as np
from heatkernel import PolynomialPotential, eval_spectral, spectral_log_kernel
from heatkernel.spectral import cached_spectral

K = cached_spectral(PolynomialPotential([1.0, 1.0, 1.0]), 8.0, 2001, 0.05)
xs, ts = np.linspace(-2.0, 2.0, 9), np.linspace(0.05, 1.0, 5)
grid = spectral_log_kernel(K, xs, xs, ts)
for k, t in enumerate(ts):
    for i, x in enumerate(xs):
        for j, y in enumerate(xs):
            one = eval_spectral(K, x, y, t)
            assert one == grid[k, i, j], (x, y, t, one, grid[k, i, j])
"""


def test_one_point_call_equals_the_grid_with_one_blas_thread():
    """The one-point call equals the grid bit for bit when BLAS runs one thread (set before numpy loads)."""
    src = str(Path(heatkernel.__file__).resolve().parents[1])
    env = {
        **os.environ,
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
    }
    proc = subprocess.run([sys.executable, "-c", ONE_POINT_EQUALS_GRID], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


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
        assert eval_spectral(spectral_vxx1, x, y, t) == eval_spectral(spectral_vxx1, y, x, t)


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


@pytest.mark.parametrize("engine", ["explicit", "spectral"])
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
    if engine == "explicit":
        c = QuadraticCoeffs(0.5, 0.2, 1.0)
        assert max(abs(r[3] - quadratic_kernel(c, *r[:3])) for r in rows) <= 1e-12


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


def test_closed_form_bounds_equals_a_polyval_run_without_memoised_time_factors(tmp_path, monkeypatch):
    # the closed-form bounds benchmark's shape: t runs past 1, so both quadratic_sharp branches bind
    from heatkernel import csvout, explicit, potentials
    from heatkernel.config import DEFAULT_CONFIG

    cfg = {
        "potential": {"kind": "polynomial", "coefficients": [0.8, 0.3, 1.2], "dimension": 1},
        "engine": "explicit",
        "grid": {"x": [-2.0, 2.0, 13], "y": [-2.0, 2.0, 13], "t": [0.05, 3.0, 8]},
        "envelopes": DEFAULT_CONFIG["envelopes"],
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))

    def run(out):
        assert main(["--config", str(path), "--out", str(tmp_path / out), "bounds"]) == 0
        return [(tmp_path / out / name).read_bytes() for name in ("bound_slacks.csv", "bound_verdicts.csv")]

    fast = run("fast")
    # the reference: no memo of time factors, of Gauss-Legendre rules or of cube averages, polynomials
    # through polyval, and every CSV value formatted on its own by Python's `%`
    def polyval_mean(V, lo, hi):
        nodes, weights = np.polynomial.legendre.leggauss((len(V.coeffs) - 1) // 2 + 1)
        total, mid, half = 0.0, 0.5 * (lo + hi), 0.5 * (hi - lo)
        for t, w in zip(nodes.tolist(), weights.tolist()):
            total = total + w * npoly.polyval(mid + half * t, V.coeffs)
        return half * total

    monkeypatch.setattr(potentials, "_poly_interval_integral", polyval_mean)
    monkeypatch.setattr(explicit, "_time_factors", explicit._time_factors.__wrapped__)
    monkeypatch.setattr(potentials, "CUBE_MEMO_CAP", 0)
    monkeypatch.setattr(csvout, "_float_text", csvout._printf_rows)
    assert run("reference") == fast


def test_fit_constants_rejects_malformed_samples():
    with pytest.raises(ParameterError):
        fit_constants(None, [], "avg_upper", beta=0.9)
    with pytest.raises(ParameterError):
        fit_constants(None, [(0.0, 0.0, 0.5)], "avg_upper", beta=0.9)
    with pytest.raises(ParameterError, match="samples must be"):
        fit_constants(None, [(0.0, 0.0, 0.5, -1.0), (0.0, 0.0, 0.5)], "avg_upper", beta=0.9)
    # rows of any sequence type: the witness is a tuple
    nan_row = [[0.0, 0.5, 0.5, -1.0], [0.25, 0.5, 0.5, math.nan]]
    with pytest.raises(ParameterError, match=re.escape("log p is NaN at (x, y, t) = (0.25, 0.5, 0.5)")):
        fit_constants(PolynomialPotential([1.0]), nan_row, "gaussian_upper")
    samples = [(0.0, 0.5, 0.5, -1.0), (0.0, 0.5, -0.1, -1.0)]
    for family in ("gaussian_upper", "avg_upper", "quadratic_sharp"):  # checked before any fit
        with pytest.raises(ParameterError, match="time must be > 0"):
            fit_constants(PolynomialPotential([1.0]), samples, family, beta=0.9)


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


def sandwich_samples(shift=0.0):
    """The c6 sandwich grid, V = x^2, with log p shifted by `shift`."""
    xs, ts = np.linspace(-3, 3, 13), np.linspace(0.05, 3.0, 8)
    logp = quadratic_log_kernel(QuadraticCoeffs(0.0, 0.0, 1.0), xs, xs, ts) + shift
    return grid_samples(xs, xs, ts, logp)


def free_samples(shift=0.0):
    xs = np.linspace(-2, 2, 7)
    pts = grid_points(xs, xs, [0.1, 0.5, 1.0])
    return [(x, y, t, float(gaussian_log_kernel([x], [y], [t])[0, 0, 0]) + shift) for x, y, t in pts]


# More fits recorded before each envelope formula was written once: family,
# samples, fit options, then (feasible, min_slack, witness, constants).
MORE_PINS = {
    "gaussian_upper": (
        lambda: (PolynomialPotential([0.0, 0.0, 1.0]), sandwich_samples(), {}),
        (True, 0.6939802362917354, (0.0, 0.0, 0.05), {"c0": 0.5641895835477563, "c2": 0.125}),
    ),
    # log p five units above the kernel: no positive decay coefficient exists
    "avg_upper": (
        lambda: (PolynomialPotential([0.0, 0.0, 1.0]), sandwich_samples(5.0), {"beta": 0.99}),
        (False, -4.3060197637226985, (0.0, 0.0, 0.05), {"c0": 0.5641895835477563, "c1": 1e-09, "c2": 0.125}),
    ),
    # V = 0 gives the far branch no decay to absorb a kernel e^{-50} too small
    "avg_lower_far": (
        lambda: (PolynomialPotential([0.0]), free_samples(-50.0), {"kappa": 0.5}),
        (
            False,
            -49.19574170832894,
            (-2.0, -1.3333333333333335, 1.0),
            {"c0": 0.14104739588693907, "c1": 1e-09, "c2": 2.0, "c3": 0.5},
        ),
    ),
}


@pytest.mark.parametrize("family", sorted(MORE_PINS))
def test_more_fits_match_pins(family):
    make, (feasible, min_slack, witness, consts) = MORE_PINS[family]
    V, samples, kw = make()
    fit = fit_constants(V, samples, family, **kw)
    assert fit.feasible is feasible
    assert fit.witness == witness
    assert abs(fit.min_slack - min_slack) <= 1e-12 * max(1.0, abs(min_slack))
    for name in ("c0", "c1", "c2", "c3", "C"):
        got = getattr(fit.envelope, name)
        if name not in consts:
            assert got is None
        else:
            assert abs(math.log(got) - math.log(consts[name])) <= 1e-12


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
    from heatkernel.spectral import dirichlet_interval_log_kernel

    inner, ts = np.linspace(math.pi / 4.0, 3.0 * math.pi / 4.0, 11)[1:-1], np.linspace(0.01, 1.0, 6)
    samples = grid_samples(inner, inner, ts, dirichlet_interval_log_kernel(0.0, math.pi, inner, inner, ts))
    fit = fit_constants(None, samples, "dirichlet_interval", epsilon=math.pi / 4.0)
    assert fit.feasible is feasible
    assert abs(fit.min_slack - min_slack) <= 1e-12
    assert abs(math.log(fit.envelope.C) - math.log(C)) <= 1e-12


def per_cube_root_flags(coeffs, lo, hi, q):
    """Root test one cube at a time: the definition the vectorized mask must match.

    A computed root is real within 1e-6 of its size of the real axis, and its
    multiplicity is the number of computed roots in the complex disk of that
    radius around it: a double root comes out split by ~1e-8 in either direction.
    """
    c = np.trim_zeros(np.asarray(coeffs, dtype=float), "b")
    roots = np.polynomial.polynomial.polyroots(c) if len(c) > 1 else []
    tol = [1e-6 * max(1.0, abs(r)) for r in roots]
    real = [(r.real, sum(1 for z in roots if abs(z - r) <= tol[i])) for i, r in enumerate(roots) if abs(r.imag) <= tol[i]]
    flags = []
    for a, b in zip(lo, hi):
        mult = max((m for r, m in real if a - 1e-12 <= r <= b + 1e-12), default=0)
        flags.append(mult > 0 and q <= -0.5 and mult * q <= -1.0)
    return np.array(flags)


@pytest.mark.parametrize(
    "coeffs",
    [
        (1.0, 0.0, -2.0, 0.0, 1.0),
        (0.0, 0.0, 1.0),
        (0.0, 1.0),
        (0.25, -1.0, 1.0),
        (3.7,),
        (2.0, 0.0, 1.0),
        (4.0, 0.0, -4.0, 0.0, 1.0),  # (x^2 - 2)^2: the double root -sqrt(2) splits along the real axis
    ],
)
@pytest.mark.parametrize("q", [-1.0, -0.5, -0.25, -2.0])
def test_root_mask_matches_per_cube_scan(coeffs, q):
    lefts = -1.5 + 0.125 * np.arange(24)
    lo, hi = lefts, lefts + 0.125
    want = per_cube_root_flags(coeffs, lo, hi, q)
    assert np.array_equal(_scaled_powered_integral(PolynomialPotential(coeffs), lo, hi, q)[2], want)


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_ap_scan_sees_double_roots(p):
    # (x^2 - 1)^2: polyroots splits the double roots +-1 off the real axis by 5e-9 and 3e-8;
    # at p = 3 (q = -1/2) only their multiplicity 2 makes 1/V^{1/2} non-integrable
    report = ap_constant(PolynomialPotential([1.0, 0.0, -2.0, 0.0, 1.0]), p, 0.3, 2.0, 8)
    assert report.divergent


@pytest.mark.parametrize("degree, divergent", [(4, True), (2, False)])
def test_ap_scan_sees_roots_of_high_multiplicity(degree, divergent):
    # at p = 4 (q = -1/3): x^(-4/3) is not integrable at 0, x^(-2/3) is
    V = PolynomialPotential([0.0] * degree + [1.0])
    report = ap_constant(V, 4.0, 0.3, 2.0, 8)
    assert report.divergent == divergent
    assert report.divergent == ap_constant(PowerPotential(float(degree)), 4.0, 0.3, 2.0, 8).divergent


def test_ap_scan_finds_polynomial_roots_once(monkeypatch):
    import heatkernel.potentials as potentials

    calls = []
    real = potentials.npoly.polyroots
    monkeypatch.setattr(potentials.npoly, "polyroots", lambda c: calls.append(1) or real(c))
    potentials._poly_real_roots.cache_clear()
    # x^2 at p = 2: the double root at 0 makes 1/V non-integrable
    report = ap_constant(PolynomialPotential([0.0, 0.0, 1.0]), 2.0, 0.3, 2.0, 8)
    assert report.divergent
    assert len(calls) == 1


def test_closed_form_bounds_averages_eight_cubes_per_point(tmp_path, monkeypatch):
    import heatkernel.bounds as bounds
    from heatkernel.config import DEFAULT_CONFIG

    averaged = []
    real_average = bounds.cube_average
    monkeypatch.setattr(
        bounds, "cube_average", lambda V, center, side: averaged.append(1) or real_average(V, center, side)
    )
    grid = {"x": [-1.0, 1.0, 3], "y": [-1.0, 1.0, 3], "t": [0.1, 2.0, 2]}
    polys = ([0.8, 0.3, 1.2], [0.5, 0.0, 2.0], [0.8, 0.3, 1.2])
    for i, coeffs in enumerate(polys):
        cfg = {
            "potential": {"kind": "polynomial", "coefficients": coeffs},
            "grid": grid,
            "envelopes": DEFAULT_CONFIG["envelopes"],
        }
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        assert main(["--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / f"o{i}"), "bounds"]) == 0
    # 8 cube averages per grid point per job
    assert len(averaged) == 3 * 8 * 18


def test_tabulated_cumulative_is_computed_once():
    V = TabulatedPotential(np.linspace(-1.0, 1.0, 5), [1.0, 0.5, 0.0, 0.5, 1.0])
    assert V.cumulative is V.cumulative
    assert V.cumulative[2].sum() == pytest.approx(1.0)
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


@pytest.mark.parametrize("kind", ["polynomial", "tabulated", "sum"])
def test_chain_waypoints_match_a_per_waypoint_reference(tmp_path, kind):
    """`chain` averages every waypoint cube in one call; the CSV is byte-identical
    to one written from a scalar `cube_average` per waypoint."""
    from heatkernel import chain_plan, cube_average
    from heatkernel.config import config_hash, potential_from_config

    table = tmp_path / "table.csv"
    table.write_text(
        "coordinate,value\n" + "\n".join(f"{x!r},{1.0 + x * x + math.sin(3.0 * x) ** 2!r}" for x in np.linspace(-4.0, 4.0, 161).tolist())
    )
    quad = {"kind": "polynomial", "coefficients": [0.7, -0.4, 1.3]}
    potential = {
        "polynomial": quad,
        "tabulated": {"kind": "tabulated", "table": str(table)},
        "sum": {"kind": "sum", "parts": [quad, {"kind": "power", "exponent": 0.6}]},
    }[kind]
    cfg = {"potential": potential, "chain": {"x": -0.3, "y": 0.4, "t": 0.5}}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    assert main(["--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out"), "chain"]) == 0

    V = potential_from_config(potential)
    plan = chain_plan(-0.3, 0.4, 0.5)
    rows = [(i, x, cube_average(V, x, plan.cube_side)) for i, x in enumerate(plan.waypoints.tolist())]
    prov = f"config={config_hash(cfg)} M={plan.M} sigma={plan.sigma:.17g}"
    ref = io.StringIO()
    ref.write(f"# {prov}\n")
    writer = csv.writer(ref, lineterminator="\n")
    writer.writerow(["i", "x_i", "avg_V_cube_i"])
    writer.writerows((i, f"{x:.17g}", f"{avg:.17g}") for i, x, avg in rows)
    assert plan.M == 251
    assert (tmp_path / "out" / "chain_waypoints.csv").read_bytes() == ref.getvalue().encode()
