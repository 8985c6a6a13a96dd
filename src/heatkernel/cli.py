"""Batch front-end: kernels, bound fits, weight scans, ODE runs, chaining.

Subcommands
    kernel   evaluate the configured kernel on the grid -> CSV
    bounds   fit envelopes + sandwich verdict -> CSV + FEASIBLE/INFEASIBLE lines
    weights  reverse-Holder / Muckenhoupt / doubling reports -> CSV
    ode      trajectory + closed-form comparison -> CSV
    chain    chain plan + chained lower bound + waypoint cube averages -> CSV
    verify   full acceptance suite; exit 0 iff everything passes

Outputs are deterministic: every CSV is written by `emit_csv`, which takes
one sequence per column (a float64 ndarray, a `range` or a list), and
identical configs give byte-identical files.  The floats of each chunk of
rows are formatted together in numpy, each distinct value once when at most
half are distinct, as with the grid axes x, y and t of `kernel.csv`.
The engines are `explicit` (the closed form for a quadratic potential) and
`spectral` (the Dirichlet eigensum).  Each evaluates a grid in one batched
call, `log_kernel(xs, ys, ts)` returning log p shaped [t, x, y]; `kernel`
evaluates its grid once, and so does `bounds` on the spectral engine.  On the
closed form, `bounds` evaluates `quadratic_kernel` point by point as each
family's fit reads its samples.  `bounds` parses every envelope before it
builds the engine, and writes each column of the fits' records (arrays of
x, y, t, log_p, log_env and slack) to `bound_slacks.csv` as one
concatenation.  `chain` averages V over all of its waypoint cubes in one
`cube_averages` call, and refuses a chain longer than MAX_CHAIN_M links
before planning it.  A relative `tabulated.table` path resolves against the
directory of the config file.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from .bounds import (
    chain_length,
    chain_plan,
    chain_sigma_bound,
    chained_lower_bound,
    fit_constants,
    grid_points,
    grid_samples,
)
from .config import (
    DEFAULT_CONFIG,
    ENGINES,
    check_spectral_grid,
    config_hash,
    config_number,
    envelope_from_config,
    grid_from_config,
    load_config,
    potential_from_config,
    quadratic_from_potential,
)
from .csvout import emit_csv
from .errors import ConfigError, ParameterError
from .explicit import quadratic_kernel, quadratic_log_kernel
from .ode import closed_form_error, integrate_odes
# cube_average is unused here but stays in this namespace: perfbench's tracer
# test checks that tracing restores `cli.cube_average` afterwards.
from .potentials import ap_constant, cube_average, cube_averages, doubling_fit, rh_constant
from .spectral import build_spectral, spectral_log_kernel

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_CONFIG = 2


def _potential(cfg: dict, base_dir: Path | None):
    return potential_from_config(cfg.get("potential", DEFAULT_CONFIG["potential"]), base_dir)


def _build_engine(cfg: dict, xs, ys, ts, V):
    """Return (log_kernel(xs, ys, ts) -> log p[t, x, y], provenance) for the potential V.

    xs, ys and ts are the grid's axes, read and checked before anything is
    built; the spectral kernel is built for t >= the earliest time, and its
    provenance reports the modes kept there.
    """
    engine = cfg.get("engine", "explicit")
    if engine == "explicit":
        quad = quadratic_from_potential(V)
        return (lambda xs, ys, ts: quadratic_log_kernel(quad, xs, ys, ts)), "engine=explicit"
    if engine == "spectral":
        L, m = float(config_number(cfg, "spectral.half_width")), config_number(cfg, "spectral.points")
        check_spectral_grid(xs, ys, L)
        K = build_spectral(V, L, m, float(min(ts)))
        prov = f"engine=spectral L={L:g} m={m} modes={K.mode_count(K.t_min)}"
        return (lambda xs, ys, ts: spectral_log_kernel(K, xs, ys, ts)), prov
    raise ConfigError(f"unknown engine {engine!r}; known: {', '.join(ENGINES)}")


def _prov_line(cfg: dict, prov: str, xs, ys, ts) -> str:
    return f"config={config_hash(cfg)} {prov} grid={len(xs)}x{len(ys)}x{len(ts)}"


def _evaluate_grid(cfg: dict, V):
    """Build the engine for V and evaluate its grid once: ((xs, ys, ts), log p[t, x, y], provenance line)."""
    xs, ys, ts = grid_from_config(cfg)
    log_kernel, prov = _build_engine(cfg, xs, ys, ts, V)
    return (xs, ys, ts), log_kernel(xs, ys, ts), _prov_line(cfg, prov, xs, ys, ts)


def _bounds_samples(cfg: dict, V):
    """(samples() -> x-major (x, y, t, log p) samples of V's kernel, provenance line).

    The spectral engine evaluates the grid once and every family
    fits against that evaluation.  The closed form keeps its scalar path:
    each call of samples() yields `quadratic_kernel` values point by point,
    so each family's fit evaluates the grid as it reads it.  It costs a few
    microseconds a point, and perfbench's trace counts these calls as the
    fitter's kernel calls per point.
    """
    if cfg.get("engine", "explicit") != "explicit":
        axes, log_p, prov_line = _evaluate_grid(cfg, V)
        samples = grid_samples(*axes, log_p)
        return (lambda: samples), prov_line
    quad = quadratic_from_potential(V)
    xs, ys, ts = grid_from_config(cfg)
    pts = grid_points(xs, ys, ts)

    def samples():
        for x, y, t in pts:
            yield x, y, t, quadratic_kernel(quad, x, y, t)

    return samples, _prov_line(cfg, "engine=explicit", xs, ys, ts)


def _p(log_p: float) -> float:
    """p for the CSV's p column: 0 below log p = -745, inf above 709, else e^{log p}."""
    return 0.0 if log_p < -745.0 else math.inf if log_p > 709.0 else math.exp(log_p)


def cmd_kernel(cfg: dict, out: Path, base_dir: Path | None = None) -> int:
    (xs, ys, ts), log_p, prov_line = _evaluate_grid(cfg, _potential(cfg, base_dir))
    nx, ny, nt = len(xs), len(ys), len(ts)
    # x-major order, as `grid_points` lists the points
    lp = log_p.transpose(1, 2, 0).ravel()
    columns = [
        np.repeat(xs, ny * nt),
        np.tile(np.repeat(ys, nt), nx),
        np.tile(ts, nx * ny),
        lp,
        [_p(v) for v in lp.tolist()],
    ]
    path = emit_csv(columns, ["x", "y", "t", "log_p", "p"], out / "kernel.csv", prov_line)
    print(f"wrote {path} ({len(lp)} rows)")
    return EXIT_OK


def cmd_bounds(cfg: dict, out: Path, base_dir: Path | None = None) -> int:
    V = _potential(cfg, base_dir)
    if not isinstance(specs := cfg.get("envelopes", DEFAULT_CONFIG["envelopes"]), list):
        raise ConfigError(f"envelopes must be a list, got {specs!r}")
    if not specs:
        raise ConfigError("envelopes must be a non-empty list")
    envelopes = [envelope_from_config(spec, f"envelopes[{i}]") for i, spec in enumerate(specs)]
    samples, prov_line = _bounds_samples(cfg, V)
    verdicts = {k: [] for k in ("family", "verdict", "min_slack", "c0", "c1", "c2", "c3")}
    families = []
    # the fits' record columns x, y, t, log_p, log_env and slack, one array per fit
    records = {k: [np.empty(0)] for k in ("x", "y", "t", "log_p", "log_env", "slack")}
    all_ok = True
    for env0 in envelopes:
        fit = fit_constants(
            V,
            samples(),
            env0.family,
            n=env0.n,
            beta=env0.beta,
            kappa=env0.kappa,
            epsilon=env0.epsilon,
        )
        env = fit.envelope
        verdict = "FEASIBLE" if fit.feasible else "INFEASIBLE"
        all_ok &= fit.feasible
        consts = {
            k: getattr(env, k)
            for k in ("c0", "c1", "c2", "c3", "beta", "kappa", "epsilon", "C")
            if getattr(env, k) is not None
        }
        const_str = " ".join(f"{k}={v:.6g}" for k, v in consts.items())
        print(f"{env.family}: {verdict} min_slack={fit.min_slack:.6g} {const_str}")
        row = (env.family, verdict, fit.min_slack) + tuple(consts.get(k, math.nan) for k in ("c0", "c1", "c2", "c3"))
        for col, value in zip(verdicts.values(), row):
            col.append(value)
        families += [env.family] * len(fit.records[0])
        for col, values in zip(records.values(), fit.records):
            col.append(values)
    emit_csv(list(verdicts.values()), list(verdicts), out / "bound_verdicts.csv", prov_line)
    slack_columns = [families] + [np.concatenate(col) for col in records.values()]
    emit_csv(slack_columns, ["family", *records], out / "bound_slacks.csv", prov_line)
    print(f"sandwich: {'FEASIBLE' if all_ok else 'INFEASIBLE'}")
    return EXIT_OK if all_ok else EXIT_FAILURE


def cmd_weights(cfg: dict, out: Path, base_dir: Path | None = None) -> int:
    V = _potential(cfg, base_dir)
    w = {k: config_number(cfg, f"weights.{k}") for k in DEFAULT_CONFIG["weights"]}
    center, side, depth = float(w["window_center"]), float(w["window_side"]), w["depth"]
    prov_line = f"config={config_hash(cfg)} window_side={side:g} depth={depth}"
    rh = rh_constant(V, float(w["rh_q"]), center, side, depth)
    ap = ap_constant(V, float(w["ap_p"]), center, side, depth)
    traces = rh.trace + ap.trace
    columns = [
        ["rh"] * len(rh.trace) + ["ap"] * len(ap.trace),
        [rh.exponent] * len(rh.trace) + [ap.exponent] * len(ap.trace),
        [s for s, _ in traces],
        [ratio for _, ratio in traces],
    ]
    emit_csv(columns, ["kind", "exponent", "side", "ratio"], out / "weight_trace.csv", prov_line)
    fit = doubling_fit(V, center, side, depth)
    emit_csv([[fit.C], [fit.epsilon], [fit.residual]], ["C", "epsilon", "residual"], out / "doubling.csv", prov_line)
    print(
        f"rh: constant={rh.constant:.6g} divergent={rh.divergent} | "
        f"ap: constant={ap.constant:.6g} beta={ap.beta:.6g} | "
        f"doubling: C={fit.C:.6g} eps={fit.epsilon:.6g}"
    )
    return EXIT_OK


def cmd_ode(cfg: dict, out: Path, base_dir: Path | None = None) -> int:
    t0, t1 = float(config_number(cfg, "ode.t0")), float(config_number(cfg, "ode.t1"))
    if t0 >= t1:
        raise ConfigError(f"ode.t0 must be < ode.t1, got {t0!r} >= {t1!r}")
    samples, rel = config_number(cfg, "ode.samples"), config_number(cfg, "tolerances.rel")
    V = _potential(cfg, base_dir)
    c = quadratic_from_potential(V)
    quad = type(c)(0.0, c.a1, c.a2)  # the ansatz runs at a0 = 0
    traj = integrate_odes(quad, t0, t1, samples=samples)
    prov_line = f"config={config_hash(cfg)} t0={t0!r} t1={t1!r} samples={samples}"
    schema = ["t", "alpha", "beta", "gamma", "mu", "nu", "log_phi"]
    columns = [[getattr(s, k) for s in traj] for k in schema[:-1]]
    # the shift identity p_{a0} = e^{-a0 t} p_0 makes log_phi the configured kernel's log p(0, 0, t)
    columns.append([s.log_phi - c.a0 * s.t for s in traj])
    path = emit_csv(columns, schema, out / "trajectory.csv", prov_line)
    err = closed_form_error(quad, traj)
    print(f"wrote {path} max_closed_form_error={err:.6g} (tol {rel:g})")
    return EXIT_OK if err <= rel else EXIT_FAILURE


def cmd_chain(cfg: dict, out: Path, base_dir: Path | None = None) -> int:
    x, y, t = (float(config_number(cfg, f"chain.{k}")) for k in ("x", "y", "t"))
    sigma = config_number(cfg, "chain.sigma")
    c0 = float(config_number(cfg, "chain.c0", 0.5 * (4.0 * math.pi) ** -0.5))
    c1 = float(config_number(cfg, "chain.c1", 1.0))
    try:
        chain_length(x, y, t)
    except ParameterError as exc:
        raise ConfigError(f"chain.y is too far from chain.x for chain.t={t:g}: {exc}") from exc
    if sigma is not None and not sigma < (sigma_max := chain_sigma_bound(x, y, t)):
        raise ConfigError(
            f"chain.sigma must be < {sigma_max:.6g} here (the adjacent-cube condition), got {sigma!r}"
        )
    V = _potential(cfg, base_dir)
    plan = chain_plan(x, y, t, sigma=float(sigma) if sigma is not None else None)
    dbl = doubling_fit(V, x, max(4.0 * math.sqrt(t), 4.0), 8)
    log_bound = chained_lower_bound(V, plan, c0, c1, max(dbl.C, 1.0))
    print(
        f"M={plan.M} sigma={plan.sigma:.6g} cube_side={plan.cube_side:.6g} "
        f"spacing={plan.spacing:.6g} log_bound={log_bound:.6g}"
    )
    avgs = cube_averages(V, plan.waypoints, plan.cube_side)
    prov_line = f"config={config_hash(cfg)} M={plan.M} sigma={plan.sigma:.17g}"
    columns = [range(plan.M + 1), plan.waypoints, avgs]
    emit_csv(columns, ["i", "x_i", "avg_V_cube_i"], out / "chain_waypoints.csv", prov_line)
    return EXIT_OK


def cmd_verify(cfg: dict, out: Path, base_dir: Path | None = None) -> int:
    from . import acceptance

    results = acceptance.run_all(out_dir=out)
    failed = [r for r in results if not r.passed]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{status}] criterion {r.number}: {r.name} -- {r.details}")
    print(f"{len(results) - len(failed)}/{len(results)} acceptance criteria passed")
    return EXIT_OK if not failed else EXIT_FAILURE


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="heatkernel",
        description="Heat-kernel computations and bound checks for -Laplacian + V",
    )
    parser.add_argument("--config", type=Path, help="JSON config file (see README for keys)")
    parser.add_argument("--out", type=Path, default=Path("out"), help="output directory")
    parser.add_argument(
        "command",
        choices=["kernel", "bounds", "weights", "ode", "chain", "verify"],
    )
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config) if args.config else DEFAULT_CONFIG
        out = args.out
        out.mkdir(parents=True, exist_ok=True)
        handler = {
            "kernel": cmd_kernel,
            "bounds": cmd_bounds,
            "weights": cmd_weights,
            "ode": cmd_ode,
            "chain": cmd_chain,
            "verify": cmd_verify,
        }[args.command]
        base_dir = args.config.parent if args.config else None
        return handler(cfg, out, base_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # numerical failures propagate with context
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
