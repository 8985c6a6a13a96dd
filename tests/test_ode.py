import json
import math

import numpy as np
import pytest

from heatkernel import (
    ParameterError,
    QuadraticCoeffs,
    ansatz_log,
    closed_form_error,
    closed_form_state,
    integrate_odes,
    quadratic_kernel,
)
from heatkernel.cli import main
from heatkernel.config import config_hash
from heatkernel.explicit import csch

C_OSC = QuadraticCoeffs(0.0, 0.0, 1.0)
C_TILT = QuadraticCoeffs(0.0, 1.0, 1.0)


def test_closed_form_harmonic_components():
    t = 0.37
    st = closed_form_state(C_OSC, t)
    u = 2.0 * t
    assert st.alpha == pytest.approx(1.0 / math.tanh(u), rel=1e-14)
    assert st.gamma == st.alpha
    assert st.beta == pytest.approx(-csch(u), rel=1e-14)
    assert st.mu == 0.0 and st.nu == 0.0


def _fd(fn, t, h=1e-5):
    return (fn(t + h) - fn(t - h)) / (2.0 * h)


def test_ode_residuals_of_closed_form():
    # all six equations hold to centered-difference accuracy
    c = C_TILT
    t = 0.5

    def comp(i):
        return lambda s: closed_form_state(c, s).as_array()[i]

    st = closed_form_state(c, t)
    rhs = [
        -2.0 * st.alpha**2 + 2.0 * c.a2,
        -2.0 * st.alpha * st.beta,
        -2.0 * st.beta**2,
        c.a1 - 2.0 * st.mu * st.alpha,
        -2.0 * st.mu * st.beta,
        -st.alpha + st.mu**2,
    ]
    for i in range(6):
        assert abs(_fd(comp(i), t) - rhs[i]) <= 1e-9


def test_round_trip_vs_closed_form():
    traj = integrate_odes(C_TILT, 0.01, 2.0, samples=101)
    worst = 0.0
    for s in traj:
        ref = closed_form_state(C_TILT, s.t)
        worst = max(worst, float(np.max(np.abs(s.as_array() - ref.as_array()))))
    assert worst <= 1e-6
    assert closed_form_error(C_TILT, traj) == worst


def test_zero_tilt_preserves_mu_nu():
    traj = integrate_odes(C_OSC, 0.05, 1.5, samples=60)
    assert all(s.mu == 0.0 and s.nu == 0.0 for s in traj)


def test_symmetry_gamma_equals_alpha():
    traj = integrate_odes(C_TILT, 0.01, 2.0, samples=80)
    assert max(abs(s.gamma - s.alpha) for s in traj) <= 1e-8


def test_positive_definite_along_trajectory():
    traj = integrate_odes(C_TILT, 0.02, 3.0, samples=90)
    for s in traj:
        assert s.alpha > 0 and s.gamma > 0 and s.beta < 0
        assert s.alpha * s.gamma - s.beta**2 > 0


def test_assemble_matches_explicit_kernel():
    for t in (0.05, 0.4, 1.7):
        st = closed_form_state(C_TILT, t)
        for x, y in [(0.0, 0.0), (1.2, -0.4), (-2.0, 2.0)]:
            got = ansatz_log(st, x, y)
            want = quadratic_kernel(C_TILT, x, y, t)
            assert got == pytest.approx(want, rel=1e-10)


def test_assemble_origin_and_symmetry():
    st = closed_form_state(C_TILT, 0.8)
    assert ansatz_log(st, 0.0, 0.0) == st.log_phi
    assert ansatz_log(st, 0.3, -0.9) == pytest.approx(ansatz_log(st, -0.9, 0.3), rel=1e-14)


def test_end_to_end_kernel_error():
    traj = integrate_odes(C_TILT, 0.05, 2.0, samples=40)
    worst = 0.0
    for s in traj[:: len(traj) // 8]:
        for x in (-2.0, 0.0, 2.0):
            for y in (-2.0, 1.0):
                got = ansatz_log(s, x, y)
                want = quadratic_kernel(C_TILT, x, y, s.t)
                worst = max(worst, abs(got - want) / max(abs(want), 1.0))
    assert worst <= 1e-5


def test_parameter_errors():
    with pytest.raises(ParameterError):
        closed_form_state(C_TILT, 0.0)
    with pytest.raises(ParameterError):
        closed_form_state(QuadraticCoeffs(1.0, 0.0, 1.0), 0.5)  # a0 must be 0
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
    traj = integrate_odes(C_OSC, 0.1, 0.5, samples=11)
    lines = (tmp_path / "trajectory.csv").read_text().strip().splitlines()
    assert lines[0] == f"# config={config_hash(cfg)} t0=0.1 t1=0.5 samples=11"
    assert lines[1] == "t,alpha,beta,gamma,mu,nu,log_phi"
    assert len(lines) == 13
    first = [float(v) for v in lines[2].split(",")]
    assert first[0] == pytest.approx(0.1)
    assert first[1] == pytest.approx(traj[0].alpha)
