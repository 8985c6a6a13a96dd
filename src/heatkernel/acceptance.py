"""Acceptance suite: one function per criterion, runnable via CLI `verify`.

Each criterion returns a CriterionResult with a deterministic details
string (no wall-clock content), so repeated runs emit byte-identical
reports.  Tolerances are pinned here and nowhere else.
"""

from __future__ import annotations

import filecmp
import math
import tempfile
from dataclasses import dataclass
from functools import cache, partial
from pathlib import Path

import numpy as np

from .bounds import (
    chain_plan,
    chained_lower_bound,
    energy_test_family,
    fefferman_phong_ratio,
    fit_constants,
    fit_options,
    grid_samples,
    moser_ratio,
)
from .config import DEFAULT_CONFIG, resolve
from .explicit import QuadraticCoeffs, gaussian_log_kernel, quadratic_log_kernel
from .ode import ansatz_log, closed_form_error, integrate_odes
from .potentials import (
    PolynomialPotential,
    PowerPotential,
    ap_constant,
    constant,
    cube_average,
    doubling_fit,
    rh_constant,
)
from .spectral import (
    ProbeGrid,
    cached_spectral,
    dirichlet_interval_log_kernel,
    pde_residual,
    semigroup_defect,
    spectral_log_kernel,
    z_lattice,
)

V_SQUARE = PolynomialPotential([0.0, 0.0, 1.0])
Q_SQUARE = QuadraticCoeffs(0.0, 0.0, 1.0)
LOG_P_SQUARE = partial(quadratic_log_kernel, Q_SQUARE)


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    details: str


def c1_oracle_equivalence() -> CriterionResult:
    """Closed-form quadratic kernel vs the spectral reference.

    Disagreement is measured per time slice: in sup norm relative to the
    slice peak, and pointwise wherever the kernel is within 1e-3 of that
    peak.  (Pointwise comparison at far-off-diagonal values is float-noise
    dominated: the eigensum cancels to ~1e-15 absolute while the true
    kernel reaches 1e-35.)
    """
    V = PolynomialPotential([1.0, 1.0, 1.0])
    c = QuadraticCoeffs(1.0, 1.0, 1.0)
    xs = np.linspace(-2.0, 2.0, 9)
    ts = (0.05, 0.1, 0.5, 1.0)
    K = cached_spectral(V, 8.0, 2001, min(ts))
    exact = np.exp(quadratic_log_kernel(c, xs, xs, ts))
    err = np.abs(np.exp(spectral_log_kernel(K, xs, xs, ts)) - exact)
    peak = exact.max(axis=(1, 2), keepdims=True)
    mask = exact >= 1e-3 * peak
    worst_sup, worst_point = float(np.max(err / peak)), float(np.max(err[mask] / exact[mask]))
    passed = worst_sup <= 5e-3 and worst_point <= 5e-3
    details = f"sup-relative {worst_sup:.3e}, pointwise(>=1e-3 peak) {worst_point:.3e}, tol 5e-3"
    return CriterionResult(1, "oracle equivalence (explicit vs spectral)", bool(passed), details)


def c2_ode_round_trip() -> CriterionResult:
    c = QuadraticCoeffs(0.0, 1.0, 1.0)
    ts, coeffs = integrate_odes(c, 0.01, 2.0, samples=161)
    comp_err = closed_form_error(c, ts, coeffs)
    xs, ys = np.array([-2.0, -0.5, 0.0, 1.0, 2.0]), np.array([-1.5, 0.0, 0.7, 2.0])
    got = ansatz_log(coeffs[-1], xs[:, None], ys[None, :])
    log_err = float(np.max(np.abs(got - quadratic_log_kernel(c, xs, ys, [ts[-1]])[0])))
    passed = comp_err <= 1e-6 and log_err <= 1e-5
    details = f"max component error {comp_err:.3e} (tol 1e-6), kernel log error {log_err:.3e} (tol 1e-5)"
    return CriterionResult(2, "ODE round trip vs closed form", bool(passed), details)


def c3_semigroup() -> CriterionResult:
    dq = semigroup_defect(LOG_P_SQUARE, 0.0, 0.0, 0.25, 0.25)
    dg = semigroup_defect(gaussian_log_kernel, 0.0, 0.0, 0.25, 0.25)
    passed = dq <= 1e-4 and dg <= 1e-10
    details = f"quadratic {dq:.3e} (tol 1e-4), gaussian {dg:.3e} (tol 1e-10)"
    return CriterionResult(3, "semigroup (Chapman-Kolmogorov) defects", bool(passed), details)


def c4_pde_residual() -> CriterionResult:
    grid = ProbeGrid(x_min=-1.0, x_max=1.0, t_min=0.3, t_max=0.31, h=0.02, tau=2e-4)
    y0 = 0.3
    coarse = pde_residual(V_SQUARE, LOG_P_SQUARE, y0, grid)
    fine = pde_residual(V_SQUARE, LOG_P_SQUARE, y0, grid.refine())
    ratio = coarse / fine
    # negative control: the free kernel does not solve the V = x^2 equation
    g_coarse = pde_residual(V_SQUARE, gaussian_log_kernel, y0, grid)
    g_fine = pde_residual(V_SQUARE, gaussian_log_kernel, y0, grid.refine())
    xs = np.arange(grid.x_min, grid.x_max + grid.h / 2, grid.h)
    free = np.exp(gaussian_log_kernel(xs, [y0], (grid.t_min, grid.t_max))[:, :, 0])
    vp_peak = float(np.max(np.abs(xs * xs * free)))
    control_stuck = g_fine > 0.1 * vp_peak and not 3.5 <= g_coarse / g_fine <= 4.5
    passed = 3.5 <= ratio <= 4.5 and control_stuck
    details = (
        f"refinement ratio {ratio:.3f} in [3.5, 4.5]; control residual {g_fine:.3e} "
        f"> 0.1*|Vp| peak {0.1 * vp_peak:.3e} and non-converging"
    )
    return CriterionResult(4, "PDE residual convergence + negative control", bool(passed), details)


def _mass(t: float) -> float:
    """h times the sum of p(0, ., t) over `z_lattice` on [-(14 sqrt(t) + 1), 14 sqrt(t) + 1]."""
    zs, h = z_lattice(14.0 * math.sqrt(t) + 1.0, t)
    return h * float(np.sum(np.exp(LOG_P_SQUARE([0.0], zs, [t])[0, 0])))


def c5_mass_positivity() -> CriterionResult:
    masses = {t: _mass(t) for t in (1e-3, 0.01, 0.1, 1.0)}
    ok = 0.99 <= masses[1e-3] and all(m <= 1.0 + 1e-8 for m in masses.values())
    detail = ", ".join(f"t={t:g}: {m:.6f}" for t, m in masses.items())
    return CriterionResult(5, "mass near delta limit and submarkov property", bool(ok), detail)


SANDWICH_XS, SANDWICH_TS = np.linspace(-3, 3, 13), np.linspace(0.05, 3.0, 8)


@cache
def _sandwich_fits():
    """(log p on the sandwich grid, shaped [t, x, y]; the default config's five envelope fits against it)."""
    xs, ts = SANDWICH_XS, SANDWICH_TS
    log_p = LOG_P_SQUARE(xs, xs, ts)
    samples = grid_samples(xs, xs, ts, log_p)
    envelopes = resolve(DEFAULT_CONFIG)["envelopes"]
    fits = {env.family: fit_constants(V_SQUARE, samples, env.family, **fit_options(env)) for env in envelopes}
    return log_p, fits


def c6_sandwich_feasibility() -> CriterionResult:
    log_p, fits = _sandwich_fits()
    all_feasible = all(f.feasible for f in fits.values())
    consts = [getattr(f.envelope, name) for f in fits.values() for name in ("c0", "c1", "c2", "c3")]
    consts_positive = all(v > 0 for v in consts if v is not None)
    both_branches = len(fits["avg_lower_near"].records[0]) > 0 and len(fits["avg_lower_far"].records[0]) > 0
    dom = float(np.max(log_p - gaussian_log_kernel(SANDWICH_XS, SANDWICH_XS, SANDWICH_TS)))
    passed = all_feasible and consts_positive and both_branches and dom <= 1e-10
    verdicts = " ".join(f"{k}:{'F' if v.feasible else 'X'}" for k, v in fits.items())
    details = f"{verdicts}; gaussian domination slack {dom:.3e} <= 1e-10"
    return CriterionResult(6, "sandwich envelope feasibility + gaussian domination", bool(passed), details)


def c7_weight_diagnostics() -> CriterionResult:
    Vp = PowerPotential(-0.5)
    rh15 = rh_constant(Vp, 1.5, 0.0, 2.0, 20)
    tail = rh15.ratios[10:]
    stable = (tail.max() - tail.min()) <= 1e-6 * tail.max() and math.isfinite(rh15.constant)
    ok_convergent = stable and not rh15.divergent

    rh3 = rh_constant(Vp, 3.0, 0.0, 2.0, 20)
    last = rh3.ratios[-11:]
    monotone = np.all(last[1:] > last[:-1])
    ok_divergent = rh3.divergent and monotone and last[-1] > 10.0 * last[0]

    d_sq = doubling_fit(V_SQUARE, 0.0, 2.0, 12)
    d_pw = doubling_fit(Vp, 0.0, 2.0, 12)
    ok_doubling = abs(d_sq.epsilon - 3.0) <= 1e-6 and abs(d_pw.epsilon - 0.5) <= 1e-6

    ap = ap_constant(constant(3.7), 2.0, 0.0, 2.0, 6)
    ok_ap = abs(ap.constant - 1.0) <= 1e-10 and abs(ap.beta - 2.0 / 3.0) <= 1e-12

    passed = ok_convergent and ok_divergent and ok_doubling and ok_ap
    details = (
        f"rh(q=1.5) sup {rh15.constant:.6f} stable; rh(q=3) divergent growth "
        f"{last[-1] / last[0]:.2f}x/10 depths; doubling eps {d_sq.epsilon:.8f}, "
        f"{d_pw.epsilon:.8f}; ap const {ap.constant:.12f}, beta {ap.beta:.6f}"
    )
    return CriterionResult(7, "weight-class diagnostics", bool(passed), details)


def c8_chain_construction() -> CriterionResult:
    m257 = chain_plan(0.0, 1.0, 1.0).M
    m3 = chain_plan(0.0, 0.1, 1.0).M
    ok_m = m257 == 257 and m3 == 3

    rng = np.random.default_rng(0)
    ok_spacing = True
    for _ in range(1000):
        t = 10.0 ** rng.uniform(-3, 1)
        ratio = rng.uniform(1.0 / 64.0, 100.0)
        d = math.sqrt(ratio * t)
        plan = chain_plan(0.0, d, t)
        if not plan.spacing < math.sqrt(plan.t / plan.M) / 16.0:
            ok_spacing = False
            break

    _, fits = _sandwich_fits()
    near = fits["avg_lower_near"].envelope
    ys = np.linspace(0.15, 1.2, 20)
    chained = [chained_lower_bound(V_SQUARE, chain_plan(0.0, y, 1.0), near.c0, near.c1) for y in ys]
    worst = float(np.max(chained - LOG_P_SQUARE([0.0], ys, [1.0])[0, 0]))
    passed = ok_m and ok_spacing and worst <= 1e-9
    details = (
        f"M(1.0)={m257}, M(0.01)={m3}; spacing ok on 1000 draws; "
        f"max log(chained) - log(kernel) = {worst:.1f} (must be < 0)"
    )
    return CriterionResult(8, "chain plan sizes, spacing invariant, chained lower bound", bool(passed), details)


def c9_inequality_checks() -> CriterionResult:
    potentials = {"const": constant(1.0), "square": V_SQUARE, "abs": PowerPotential(1.0)}
    min_ratio = math.inf
    for side in (0.5, 1.0, 2.0):
        xs, values = energy_test_family(0.0, side, count=50)
        for V in potentials.values():
            min_ratio = min(min_ratio, float(np.min(fefferman_phong_ratio(V, xs, values, 0.0, side, beta=0.5))))
    ok_fp = min_ratio >= 0.01

    rng = np.random.default_rng(1)
    max_ratio = {"gaussian": 0.0, "quadratic": 0.0}
    kernels = {"gaussian": gaussian_log_kernel, "quadratic": LOG_P_SQUARE}
    for _ in range(10):
        r = rng.uniform(0.15, 0.4)
        t0 = rng.uniform(4.0 * r * r + 0.05, 1.5)
        x0 = rng.uniform(-1.5, 1.5)
        for name, log_kernel in kernels.items():
            max_ratio[name] = max(max_ratio[name], moser_ratio(log_kernel, 0.0, x0, t0, r))
    ok_moser = all(math.isfinite(v) and v <= 100.0 for v in max_ratio.values())
    passed = ok_fp and ok_moser
    details = (
        f"energy-form ratio min {min_ratio:.4f} >= 0.01; local-boundedness max "
        f"gaussian {max_ratio['gaussian']:.3f}, quadratic {max_ratio['quadratic']:.3f} (<= 100)"
    )
    return CriterionResult(9, "energy-form floor and local-boundedness ratios", bool(passed), details)


def c10_dirichlet_comparisons() -> CriterionResult:
    eps = math.pi / 4.0
    inner, fit_ts = np.linspace(math.pi / 4.0, 3.0 * math.pi / 4.0, 11)[1:-1], np.linspace(0.01, 1.0, 6)
    log_gd = dirichlet_interval_log_kernel(0.0, math.pi, inner, inner, fit_ts)
    fit = fit_constants(None, grid_samples(inner, inner, fit_ts, log_gd), "dirichlet_interval", epsilon=eps)
    ok_interval = fit.feasible and 0.0 < fit.envelope.C < 1.0

    rh = rh_constant(V_SQUARE, math.inf, 0.0, 4.0, 8)
    M = rh.constant * cube_average(V_SQUARE, 0.0, 4.0)
    xs, ts = np.linspace(-1.5, 1.5, 7), np.array([0.1, 0.3, 0.5, 1.0])
    PB = np.exp(spectral_log_kernel(cached_spectral(V_SQUARE, 2.0, 799, min(ts)), xs, xs, ts))
    lhs = np.exp(-M * ts)[:, None, None] * np.exp(dirichlet_interval_log_kernel(-2.0, 2.0, xs, xs, ts))
    worst = float(np.max((lhs - PB) / PB))
    ok_dom = worst <= 1e-6
    passed = ok_interval and ok_dom
    details = (
        f"interval fit C={fit.envelope.C:.4f} in (0,1), min slack {fit.min_slack:.3e}; "
        f"exp(-Mt)Gamma_D vs p_B worst rel violation {worst:.3e} <= 1e-6 (M={M:.4f})"
    )
    return CriterionResult(10, "Dirichlet comparisons (interval lower bound, truncated-kernel domination)", bool(passed), details)


def _pipeline_once(out: Path) -> int:
    from .cli import cmd_chain, cmd_kernel, cmd_weights

    run = resolve(DEFAULT_CONFIG)
    rc = cmd_kernel(run, out)
    rc |= cmd_weights(run, out)
    rc |= cmd_chain(run, out)
    return rc


def c11_determinism(out_dir: Path | None = None) -> CriterionResult:
    """Identical config -> byte-identical CSV artifacts from repeated runs."""
    import contextlib
    import io

    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) if out_dir is None else Path(out_dir) / "determinism"
        a, b = base / "a", base / "b"
        a.mkdir(parents=True, exist_ok=True)
        b.mkdir(parents=True, exist_ok=True)
        with contextlib.redirect_stdout(io.StringIO()):
            rc_a = _pipeline_once(a)
            rc_b = _pipeline_once(b)
        names = sorted(p.name for p in a.glob("*.csv"))
        identical = bool(names) and all(filecmp.cmp(a / n, b / n, shallow=False) for n in names)
    passed = identical and rc_a == 0 and rc_b == 0
    details = f"{len(names)} CSV artifacts byte-identical across two runs, exit codes 0"
    return CriterionResult(11, "deterministic artifacts", bool(passed), details)


CRITERIA = [
    c1_oracle_equivalence,
    c2_ode_round_trip,
    c3_semigroup,
    c4_pde_residual,
    c5_mass_positivity,
    c6_sandwich_feasibility,
    c7_weight_diagnostics,
    c8_chain_construction,
    c9_inequality_checks,
    c10_dirichlet_comparisons,
    c11_determinism,
]


def run_all(out_dir: Path | None = None) -> list[CriterionResult]:
    results = [fn(out_dir) if fn is c11_determinism else fn() for fn in CRITERIA]
    if out_dir is not None:
        from .csvout import emit_csv

        columns = [
            [r.number for r in results],
            [r.name for r in results],
            ["PASS" if r.passed else "FAIL" for r in results],
            [r.details for r in results],
        ]
        emit_csv(columns, ["number", "name", "status", "details"], Path(out_dir) / "acceptance_report.csv")
    return results
