"""The check layer on the batched kernel interface: `pde_residual`, `moser_ratio`
and `semigroup_defect` evaluate each lattice with a few `log_kernel(xs, ys, ts)`
calls, and match per-point references written here."""

import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson

from heatkernel import (
    BoundEnvelope,
    ParameterError,
    PolynomialPotential,
    ProbeGrid,
    QuadraticCoeffs,
    dirichlet_interval_log_kernel,
    energy_test_family,
    fit_constants,
    gaussian_log_kernel,
    moser_ratio,
    pde_residual,
    quadratic_kernel,
    quadratic_log_kernel,
    semigroup_defect,
)

Q = QuadraticCoeffs(0.2, -0.3, 1.1)
V_Q = PolynomialPotential([0.2, -0.3, 1.1])
GRID = ProbeGrid(-1.0, 1.0, 0.3, 0.31, h=0.05, tau=1e-3)
# the probe lattice with its one-step halo, as `pde_residual` builds it
XS = np.arange(GRID.x_min - GRID.h, GRID.x_max + 1.5 * GRID.h, GRID.h)
TS = np.arange(GRID.t_min - GRID.tau, GRID.t_max + 1.5 * GRID.tau, GRID.tau)


class Counting:
    """A log_kernel that counts its calls and the points it evaluates."""

    def __init__(self, log_kernel):
        self.log_kernel, self.calls, self.points = log_kernel, 0, 0

    def __call__(self, xs, ys, ts):
        self.calls += 1
        self.points += len(xs) * len(ys) * len(ts)
        return self.log_kernel(xs, ys, ts)


def per_point(xs, ts, y):
    """p(x, y, t) as an [x, t] array, one scalar `quadratic_kernel` call per point."""
    return np.exp(np.array([[quadratic_kernel(Q, x, y, t) for t in ts] for x in xs]))


def test_log_kernel_calls_per_check():
    K = Counting(partial(quadratic_log_kernel, Q))
    pde_residual(V_Q, K, 0.3, GRID)
    assert (K.calls, K.points) == (1, len(XS) * len(TS))
    K = Counting(partial(quadratic_log_kernel, Q))
    moser_ratio(K, 0.0, 0.2, 1.0, 0.3)
    assert (K.calls, K.points) == (2, 2 * 41 * 41)
    K = Counting(partial(quadratic_log_kernel, Q))
    semigroup_defect(K, 0.0, 0.1, 0.25, 0.2)
    assert K.calls == 3


def test_pde_residual_equals_a_per_point_reference():
    P = per_point(XS, TS, 0.3)
    inner = P[1:-1, 1:-1]
    d_t = (P[1:-1, 2:] - P[1:-1, :-2]) / (2.0 * GRID.tau)
    d_xx = (P[2:, 1:-1] - 2.0 * inner + P[:-2, 1:-1]) / GRID.h**2
    want = float(np.max(np.abs(d_t - d_xx + V_Q(XS[1:-1])[:, None] * inner)))
    assert pde_residual(V_Q, partial(quadratic_log_kernel, Q), 0.3, GRID) == want


@pytest.mark.parametrize("x0, t0, r", [(0.2, 1.0, 0.3), (-1.1, 0.7, 0.15)])
def test_moser_ratio_equals_a_per_point_reference(x0, t0, r):
    def axes(rho):
        return np.linspace(x0 - rho, x0 + rho, 41), np.linspace(t0 - rho * rho, t0, 41)

    sup = float(np.max(per_point(*axes(0.5 * r), 0.4)))
    xs2, ts2 = axes(2.0 * r / 3.0)
    integral = float(simpson(simpson(per_point(xs2, ts2, 0.4) ** 2, x=ts2, axis=1), x=xs2))
    want = sup / math.sqrt(integral / r**3)
    assert moser_ratio(partial(quadratic_log_kernel, Q), 0.4, x0, t0, r) == want


@settings(max_examples=60, deadline=None)
@given(
    xs=st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=6),
    ys=st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=6),
    ts=st.lists(st.floats(1e-8, 1e4), min_size=1, max_size=4),
)
def test_gaussian_log_kernel_equals_scalar(xs, ys, ts):
    got = gaussian_log_kernel(xs, ys, ts)
    assert got.shape == (len(ts), len(xs), len(ys))
    want = [[[gaussian_log_kernel([x], [y], [t])[0, 0, 0] for y in ys] for x in xs] for t in ts]
    assert got.tobytes() == np.array(want).tobytes()


def test_lattice_semigroup_defects_and_refusals():
    # the lattice sum resolves the identity far below c3's tolerances, off the diagonal too
    assert semigroup_defect(partial(quadratic_log_kernel, Q), 0.3, -0.2, 0.1, 0.4) <= 1e-12
    assert semigroup_defect(gaussian_log_kernel, 1.0, -0.5, 0.3, 0.05) <= 1e-12
    with pytest.raises(ParameterError, match="above the cap"):
        semigroup_defect(gaussian_log_kernel, 0.0, 0.0, 1e4, 1e-6)
    with pytest.raises(ParameterError, match="time must be > 0"):
        gaussian_log_kernel([0.0], [0.0], [0.5, 0.0])


@pytest.mark.parametrize(
    "call",
    [
        lambda: moser_ratio(gaussian_log_kernel, 0.0, 0.0, 1.0, 0.3, nx=41),
        lambda: GRID.refine(factor=0.5),
        lambda: dirichlet_interval_log_kernel(0.0, 1.0, [0.5], [0.5], [0.1], terms=10),
        lambda: energy_test_family(0.0, 1.0, nodes=129),
        lambda: energy_test_family(0.0, 1.0, seed=0),
        lambda: fit_constants(None, [(0.0, 0.0, 1.0, 0.0)], "gaussian_upper", c_floor=1e-9),
        # every envelope is one-dimensional
        lambda: BoundEnvelope(family="quadratic_sharp", c0=0.2, c1=0.3, c2=0.8, c3=0.4, n=2),
        lambda: fit_constants(None, [(0.0, 0.0, 1.0, 0.0)], "gaussian_upper", n=2),
    ],
)
def test_removed_knobs_are_refused(call):
    with pytest.raises(TypeError):
        call()


@pytest.mark.parametrize("argv", [["--tol", "1e-3", "ode"], ["--seed", "3", "verify"]])
def test_removed_cli_options_are_refused(argv, capsys):
    from heatkernel.cli import main

    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("usage: heatkernel")


def test_removed_names_are_gone_and_the_package_declares_the_api_once():
    import importlib
    import pkgutil

    import heatkernel
    from heatkernel import acceptance, bounds, explicit, potentials

    for module, name in [
        (heatkernel, "gaussian_kernel"),
        (explicit, "gaussian_kernel"),
        (explicit, "coth_minus_csch"),
        (heatkernel, "interval_clamp_time"),
        (bounds, "interval_clamp_time"),
        (explicit.QuadraticCoeffs, "nonnegative"),
        (bounds.ChainPlan, "far_regime"),
        (potentials, "powered_interval_integral"),
        (acceptance, "SANDWICH_GRID"),
    ]:
        assert not hasattr(module, name), name
    names = [m.name for m in pkgutil.iter_modules(heatkernel.__path__)]
    assert "explicit" in names
    assert [n for n in names if hasattr(importlib.import_module(f"heatkernel.{n}"), "__all__")] == []
