import json
import math

import numpy as np
import pytest

from heatkernel import (
    ParameterError,
    QuadraticCoeffs,
    ANSATZ_COEFFS,
    ansatz_log,
    closed_form_error,
    closed_form_states,
    integrate_odes,
    quadratic_kernel,
)
from heatkernel.cli import main
from heatkernel.config import config_hash

C_OSC = QuadraticCoeffs(0.0, 0.0, 1.0)
C_TILT = QuadraticCoeffs(0.0, 1.0, 1.0)


def test_closed_form_harmonic_components():
    t = 0.37
    alpha, beta, gamma, mu, nu, _ = closed_form_states(C_OSC, [t])[0]
    u = 2.0 * t
    assert alpha == pytest.approx(1.0 / math.tanh(u), rel=1e-14)
    assert gamma == alpha
    assert beta == pytest.approx(-1.0 / math.sinh(u), rel=1e-14)
    assert mu == 0.0 and nu == 0.0


def _fd(fn, t, h=1e-5):
    return (fn(t + h) - fn(t - h)) / (2.0 * h)


def test_ode_residuals_of_closed_form():
    # all six equations hold to centered-difference accuracy
    c = C_TILT
    t = 0.5

    def comp(i):
        return lambda s: closed_form_states(c, [s])[0, i]

    alpha, beta, gamma, mu, nu, _ = closed_form_states(c, [t])[0]
    rhs = [
        -2.0 * alpha**2 + 2.0 * c.a2,
        -2.0 * alpha * beta,
        -2.0 * beta**2,
        c.a1 - 2.0 * mu * alpha,
        -2.0 * mu * beta,
        -alpha + mu**2,
    ]
    for i in range(6):
        assert abs(_fd(comp(i), t) - rhs[i]) <= 1e-9


def test_round_trip_vs_closed_form():
    ts, coeffs = integrate_odes(C_TILT, 0.01, 2.0, samples=101)
    assert coeffs.shape == (len(ts), len(ANSATZ_COEFFS))
    worst = 0.0
    for t, row in zip(ts.tolist(), coeffs):
        ref = closed_form_states(C_TILT, [t])[0]
        worst = max(worst, float(np.max(np.abs(row - ref))))
    assert worst <= 1e-6
    assert closed_form_error(C_TILT, ts, coeffs) == worst


def test_zero_tilt_preserves_mu_nu():
    _, coeffs = integrate_odes(C_OSC, 0.05, 1.5, samples=60)
    assert np.all(coeffs[:, 3] == 0.0) and np.all(coeffs[:, 4] == 0.0)


def test_symmetry_gamma_equals_alpha():
    _, coeffs = integrate_odes(C_TILT, 0.01, 2.0, samples=80)
    assert np.max(np.abs(coeffs[:, 2] - coeffs[:, 0])) <= 1e-8


def test_positive_definite_along_trajectory():
    _, coeffs = integrate_odes(C_TILT, 0.02, 3.0, samples=90)
    alpha, beta, gamma = coeffs[:, 0], coeffs[:, 1], coeffs[:, 2]
    assert np.all(alpha > 0) and np.all(gamma > 0) and np.all(beta < 0)
    assert np.all(alpha * gamma - beta**2 > 0)


def test_assemble_matches_explicit_kernel():
    for t in (0.05, 0.4, 1.7):
        st = closed_form_states(C_TILT, [t])[0]
        for x, y in [(0.0, 0.0), (1.2, -0.4), (-2.0, 2.0)]:
            got = ansatz_log(st, x, y)
            want = quadratic_kernel(C_TILT, x, y, t)
            assert got == pytest.approx(want, rel=1e-10)


def test_assemble_origin_and_symmetry():
    st = closed_form_states(C_TILT, [0.8])[0]
    assert ansatz_log(st, 0.0, 0.0) == st[-1]
    assert ansatz_log(st, 0.3, -0.9) == pytest.approx(ansatz_log(st, -0.9, 0.3), rel=1e-14)


def test_end_to_end_kernel_error():
    ts, coeffs = integrate_odes(C_TILT, 0.05, 2.0, samples=40)
    worst = 0.0
    for t, row in list(zip(ts.tolist(), coeffs))[:: len(ts) // 8]:
        for x in (-2.0, 0.0, 2.0):
            for y in (-2.0, 1.0):
                got = ansatz_log(row, x, y)
                want = quadratic_kernel(C_TILT, x, y, t)
                worst = max(worst, abs(got - want) / max(abs(want), 1.0))
    assert worst <= 1e-5


def test_parameter_errors():
    with pytest.raises(ParameterError):
        closed_form_states(C_TILT, [0.5, 0.0])
    with pytest.raises(ParameterError):
        closed_form_states(QuadraticCoeffs(1.0, 0.0, 1.0), [0.5])  # a0 must be 0
    with pytest.raises(ParameterError):
        integrate_odes(C_TILT, 0.5, 0.1)
    with pytest.raises(ParameterError):
        integrate_odes(C_TILT, 0.0, 1.0)


def test_trajectory_csv(tmp_path):
    cfg = {
        "potential": {"kind": "polynomial", "coefficients": [0.0, 0.0, 1.0]},
        "ode": {"t0": 0.1, "t1": 0.5, "samples": 11},
    }
    (tmp_path / "ode.json").write_text(json.dumps(cfg))
    assert main(["--config", str(tmp_path / "ode.json"), "--out", str(tmp_path), "ode"]) == 0
    _, coeffs = integrate_odes(C_OSC, 0.1, 0.5, samples=11)
    lines = (tmp_path / "trajectory.csv").read_text().strip().splitlines()
    assert lines[0] == f"# config={config_hash(cfg)} t0=0.1 t1=0.5 samples=11"
    assert lines[1] == "t,alpha,beta,gamma,mu,nu,log_phi"
    assert len(lines) == 13
    first = [float(v) for v in lines[2].split(",")]
    assert first[0] == pytest.approx(0.1)
    assert first[1] == pytest.approx(coeffs[0, 0])
