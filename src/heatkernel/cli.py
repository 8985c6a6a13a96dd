"""Batch front-end: kernels, bound fits, weight scans, ODE runs, chaining.

Subcommands
    kernel   evaluate the configured kernel on the grid -> CSV
    bounds   fit envelopes + sandwich verdict -> CSV + FEASIBLE/INFEASIBLE lines
    weights  reverse-Holder / Muckenhoupt / doubling reports -> CSV
    ode      trajectory + closed-form comparison -> CSV
    chain    chain plan + chained lower bound + waypoint cube averages -> CSV
    verify   full acceptance suite; exit 0 iff everything passes

`main` resolves the config once (`config.resolve`) before any subcommand
runs, so a bad value in any section exits 2 naming its key, whatever the
subcommand, and so does a fault of V that a run meets later (`main`).  Each
`cmd_*(run, out)` reads plain values from the resolved run and writes its CSVs
through `csvout.emit_csv`, so identical configs give byte-identical files.

The engines are `explicit` (the closed form for a quadratic potential) and
`spectral` (the Dirichlet eigensum).  Each evaluates a grid in one batched
call, `log_kernel(xs, ys, ts)` returning log p shaped [t, x, y]; `kernel`
evaluates its grid once, and so does `bounds` on the spectral engine.  On the
closed form, `bounds` evaluates `quadratic_kernel` point by point as each
family's fit reads its samples.  `bounds` writes each column of the fits'
records (arrays of x, y, t, log_p, log_env and slack) to `bound_slacks.csv`
as one concatenation.  `chain` averages V over all of its waypoint cubes in one
`cube_averages` call.  A relative `tabulated.table` path resolves against
the directory of the config file.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from .bounds import chain_plan, chained_lower_bound, fit_constants, fit_options, grid_columns, grid_points, grid_samples
from .config import DEFAULT_CONFIG, OPTIONAL_KEYS, check_envelopes, load_config, quadratic_from_potential, resolve
from .csvout import emit_csv
from .errors import ConfigError, DomainError
from .explicit import quadratic_kernel, quadratic_log_kernel
from .ode import ANSATZ_COEFFS, closed_form_error, integrate_odes
# cube_average is unused here but stays in this namespace: perfbench's tracer
# test checks that tracing restores `cli.cube_average` afterwards.
from .potentials import ap_constant, cube_average, cube_averages, doubling_fit, rh_constant
from .spectral import build_spectral, spectral_log_kernel

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_CONFIG = 2
CONSTANTS = ("c0", "c1", "c2", "c3", "beta", "kappa", "epsilon", "C")  # an envelope's constants, in print order


def _grid(run: dict):
    """The run's grid axes (xs, ys, ts), which `kernel` and `bounds` need."""
    if run["grid"] is None:
        raise ConfigError("missing key 'grid'")
    return run["grid"]


def _prov_line(run: dict, prov: str, xs, ys, ts) -> str:
    return f"config={run['hash']} {prov} grid={len(xs)}x{len(ys)}x{len(ts)}"


def _evaluate_grid(run: dict):
    """Build the engine and evaluate the grid once: ((xs, ys, ts), log p[t, x, y], provenance line).

    The spectral kernel is built for t >= the earliest time, and its
    provenance reports the modes kept there.
    """
    xs, ys, ts = _grid(run)
    if run["engine"] == "explicit":
        quad = quadratic_from_potential(run["potential"])
        log_p, prov = quadratic_log_kernel(quad, xs, ys, ts), "engine=explicit"
    else:
        L, m = run["spectral"]["half_width"], run["spectral"]["points"]
        K = build_spectral(run["potential"], L, m, float(min(ts)))
        log_p = spectral_log_kernel(K, xs, ys, ts)
        prov = f"engine=spectral L={L:g} m={m} modes={K.mode_count(K.t_min)}"
    return (xs, ys, ts), log_p, _prov_line(run, prov, xs, ys, ts)


def _bounds_samples(run: dict):
    """(samples() -> x-major (x, y, t, log p) samples of the potential's kernel, provenance line).

    The spectral engine evaluates the grid once and every family
    fits against that evaluation.  The closed form keeps its scalar path:
    each call of samples() yields `quadratic_kernel` values point by point,
    so each family's fit evaluates the grid as it reads it.  It costs a few
    microseconds a point, and perfbench's trace counts these calls as the
    fitter's kernel calls per point.
    """
    if run["engine"] != "explicit":
        axes, log_p, prov_line = _evaluate_grid(run)
        samples = grid_samples(*axes, log_p)
        return (lambda: samples), prov_line
    quad = quadratic_from_potential(run["potential"])
    xs, ys, ts = _grid(run)
    pts = grid_points(xs, ys, ts)

    def samples():
        for x, y, t in pts:
            yield x, y, t, quadratic_kernel(quad, x, y, t)

    return samples, _prov_line(run, "engine=explicit", xs, ys, ts)


def _p_column(lp: np.ndarray) -> np.ndarray:
    """p for the CSV's p column: 0 below log p = -745, inf above 709, else math.exp's bits (NaN stays NaN)."""
    p = np.where(lp < -745.0, 0.0, math.inf)
    rest = ~(lp < -745.0) & ~(lp > 709.0)
    p[rest] = list(map(math.exp, lp[rest].tolist()))
    return p


def cmd_kernel(run: dict, out: Path) -> int:
    axes, log_p, prov_line = _evaluate_grid(run)
    lp = log_p.transpose(1, 2, 0).ravel()  # [t, x, y] to the order of `grid_columns`
    columns = [*grid_columns(*axes), lp, _p_column(lp)]
    path = emit_csv(columns, ["x", "y", "t", "log_p", "p"], out / "kernel.csv", prov_line)
    print(f"wrote {path} ({len(lp)} rows)")
    return EXIT_OK


def cmd_bounds(run: dict, out: Path) -> int:
    check_envelopes(run["envelopes"], _grid(run))  # the default envelopes too, before any output
    samples, prov_line = _bounds_samples(run)
    fits, rows = [], []
    for env0 in run["envelopes"]:
        fit = fit_constants(run["potential"], samples(), env0.family, **fit_options(env0))
        env, verdict = fit.envelope, "FEASIBLE" if fit.feasible else "INFEASIBLE"
        consts = {k: v for k in CONSTANTS if (v := getattr(env, k)) is not None}
        const_str = " ".join(f"{k}={v:.6g}" for k, v in consts.items())
        print(f"{env.family}: {verdict} min_slack={fit.min_slack:.6g} {const_str}")
        rows.append((env.family, verdict, fit.min_slack, *(consts.get(k, math.nan) for k in CONSTANTS[:4])))
        fits.append(fit)
    columns = [list(col) for col in zip(*rows)]
    emit_csv(columns, ["family", "verdict", "min_slack", *CONSTANTS[:4]], out / "bound_verdicts.csv", prov_line)
    families = [fit.envelope.family for fit in fits for _ in fit.records[0]]
    columns = [families] + [np.concatenate([fit.records[j] for fit in fits]) for j in range(6)]
    emit_csv(columns, ["family", "x", "y", "t", "log_p", "log_env", "slack"], out / "bound_slacks.csv", prov_line)
    all_ok = all(fit.feasible for fit in fits)
    print(f"sandwich: {'FEASIBLE' if all_ok else 'INFEASIBLE'}")
    return EXIT_OK if all_ok else EXIT_FAILURE


def cmd_weights(run: dict, out: Path) -> int:
    V, w = run["potential"], run["weights"]
    center, side, depth = w["window_center"], w["window_side"], w["depth"]
    prov_line = f"config={run['hash']} window_side={side:g} depth={depth}"
    rh = rh_constant(V, w["rh_q"], center, side, depth)
    ap = ap_constant(V, w["ap_p"], center, side, depth)
    fit = doubling_fit(V, center, side, depth)
    n, m = len(rh.ratios), len(ap.ratios)
    columns = [
        ["rh"] * n + ["ap"] * m,
        np.repeat([rh.exponent, ap.exponent], [n, m]),
        np.concatenate([rh.sides, ap.sides]),
        np.concatenate([rh.ratios, ap.ratios]),
    ]
    emit_csv(columns, ["kind", "exponent", "side", "ratio"], out / "weight_trace.csv", prov_line)
    emit_csv([[fit.C], [fit.epsilon], [fit.residual]], ["C", "epsilon", "residual"], out / "doubling.csv", prov_line)
    print(
        f"rh: constant={rh.constant:.6g} divergent={rh.divergent} | "
        f"ap: constant={ap.constant:.6g} beta={ap.beta:.6g} | "
        f"doubling: C={fit.C:.6g} eps={fit.epsilon:.6g}"
    )
    return EXIT_OK


def cmd_ode(run: dict, out: Path) -> int:
    t0, t1, samples = (run["ode"][k] for k in ("t0", "t1", "samples"))
    rel = run["tolerances"]["rel"]
    c = quadratic_from_potential(run["potential"])
    if math.sqrt(c.a2) * t1 > 1e4:  # DOP853 steps about 1/sqrt(a2): LIMITS' t1 <= 1e4 at a2 = 1
        raise ConfigError(f"ode.t1 must be <= 1e4 / sqrt(a2) = {1e4 / math.sqrt(c.a2):.6g} here, got {t1!r}")
    quad = type(c)(0.0, c.a1, c.a2)  # the ansatz runs at a0 = 0
    ts, coeffs = integrate_odes(quad, t0, t1, samples=samples)
    prov_line = f"config={run['hash']} t0={t0!r} t1={t1!r} samples={samples}"
    # the shift identity p_{a0} = e^{-a0 t} p_0 makes log_phi the configured kernel's log p(0, 0, t)
    columns = [ts, *coeffs.T[:-1], coeffs[:, -1] - c.a0 * ts]
    path = emit_csv(columns, ("t", *ANSATZ_COEFFS), out / "trajectory.csv", prov_line)
    err = closed_form_error(quad, ts, coeffs)
    print(f"wrote {path} max_closed_form_error={err:.6g} (tol {rel:g})")
    return EXIT_OK if err <= rel else EXIT_FAILURE


def cmd_chain(run: dict, out: Path) -> int:
    V = run["potential"]
    x, y, t, sigma, c0, c1 = (run["chain"][k] for k in ("x", "y", "t", "sigma", "c0", "c1"))
    plan = chain_plan(x, y, t, sigma=sigma)
    waypoints = plan.waypoints
    # before the bound's wider link cubes, so a table the chain leaves is named at a waypoint cube
    avgs = cube_averages(V, waypoints, plan.cube_side)  # a cube V refuses ends the run before any result
    log_bound = chained_lower_bound(V, plan, c0, c1)
    source = "defaults" if (c0, c1) == tuple(OPTIONAL_KEYS["chain"][k] for k in ("c0", "c1")) else "config"
    print(
        f"M={plan.M} sigma={plan.sigma:.6g} cube_side={plan.cube_side:.6g} "
        f"spacing={plan.spacing:.6g} log_bound={log_bound:.6g} c0={c0:.6g} c1={c1:.6g} ({source})"
    )
    prov_line = f"config={run['hash']} M={plan.M} sigma={plan.sigma:.17g}"
    columns = [range(plan.M + 1), waypoints, avgs]
    emit_csv(columns, ["i", "x_i", "avg_V_cube_i"], out / "chain_waypoints.csv", prov_line)
    return EXIT_OK


def cmd_verify(run: dict, out: Path) -> int:
    from . import acceptance

    results = acceptance.run_all(out_dir=out)
    failed = [r for r in results if not r.passed]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{status}] criterion {r.number}: {r.name} -- {r.details}")
    print(f"{len(results) - len(failed)}/{len(results)} acceptance criteria passed")
    return EXIT_OK if not failed else EXIT_FAILURE


COMMANDS = {
    "kernel": cmd_kernel,
    "bounds": cmd_bounds,
    "weights": cmd_weights,
    "ode": cmd_ode,
    "chain": cmd_chain,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    """Run one subcommand: exit 0 if it passes, 1 if a check fails or the numerics fault, 2 on a config fault.

    That is a value `resolve` or a subcommand refuses, naming its key, or a DomainError: after `resolve`, a fault
    of V where the run needs it (a table it leaves, a cube mass not finite, a doubling mass 0, V unbounded).
    """
    parser = argparse.ArgumentParser(
        prog="heatkernel",
        description="Heat-kernel computations and bound checks for -Laplacian + V",
    )
    parser.add_argument("--config", type=Path, help="JSON config file (see README for keys)")
    parser.add_argument("--out", type=Path, default=Path("out"), help="output directory")
    parser.add_argument("command", choices=list(COMMANDS))
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config) if args.config else DEFAULT_CONFIG
        run = resolve(cfg, args.config.parent if args.config else None)
        out = args.out
        out.mkdir(parents=True, exist_ok=True)
        return COMMANDS[args.command](run, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DomainError as exc:
        print(f"config error: potential: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # numerical failures propagate with context
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
