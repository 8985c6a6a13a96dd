"""Batch front-end: kernels, bound fits, weight scans, ODE runs, chaining.

Subcommands
    kernel   evaluate the configured kernel on the grid -> CSV
    bounds   fit envelopes + sandwich verdict -> CSV + FEASIBLE/INFEASIBLE lines
    weights  reverse-Holder / Muckenhoupt / doubling reports -> CSV
    ode      trajectory + closed-form comparison -> CSV
    chain    chain plan + chained bound trace -> CSV
    verify   full acceptance suite; exit 0 iff everything passes

Outputs are deterministic: identical configs give byte-identical files.
Each engine evaluates a grid in one batched call, `log_kernel(xs, ys, ts)`
returning log p shaped [t, x, y]; `kernel` evaluates its grid once, and so
does `bounds` on the spectral and ode engines.  On the closed form, `bounds`
evaluates `quadratic_kernel` point by point as each family's fit reads its
samples.  A relative `tabulated.table` path resolves against the directory of
the config file.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from .bounds import chain_plan, chained_lower_bound, fit_constants, grid_points, grid_samples
from .config import (
    DEFAULT_CONFIG,
    ENGINES,
    config_hash,
    envelope_from_config,
    grid_from_config,
    load_config,
    potential_from_config,
    quadratic_from_potential,
)
from .csvout import emit_csv
from .errors import ConfigError
from .explicit import KernelValue, quadratic_kernel, quadratic_log_kernel
from .ode import ansatz_log, closed_form_state, integrate_odes, trajectory_to_csv
from .potentials import Cube, ap_constant, cube_average, doubling_fit, rh_constant
from .spectral import build_spectral, spectral_log_kernel

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_CONFIG = 2


def _rel_tol(cfg: dict) -> float:
    rel = float(cfg.get("tolerances", {}).get("rel", 1e-4))
    if not rel > 0:
        raise ConfigError("tolerances.rel must be > 0")
    return rel


def _potential(cfg: dict, base_dir: Path | None):
    return potential_from_config(cfg.get("potential", DEFAULT_CONFIG["potential"]), base_dir)


def _build_engine(cfg: dict, base_dir: Path | None = None):
    """Return (log_kernel(xs, ys, ts) -> log p[t, x, y], potential, provenance)."""
    engine = cfg.get("engine", "explicit")
    V = _potential(cfg, base_dir)
    if engine == "explicit":
        quad = quadratic_from_potential(V)
        return (lambda xs, ys, ts: quadratic_log_kernel(quad, xs, ys, ts)), V, "engine=explicit"
    if engine == "ode":
        quad = quadratic_from_potential(V)
        shift = quad.a0
        reduced = type(quad)(0.0, quad.a1, quad.a2)

        def ode_log_kernel(xs, ys, ts):
            X = np.asarray(xs, dtype=float)[:, None]
            Y = np.asarray(ys, dtype=float)[None, :]
            return np.stack(
                [ansatz_log(closed_form_state(reduced, float(t)), X, Y) - shift * float(t) for t in ts]
            )

        return ode_log_kernel, V, "engine=ode"
    if engine == "spectral":
        spec = cfg.get("spectral", DEFAULT_CONFIG["spectral"])
        L = float(spec.get("half_width", 8.0))
        m = int(spec.get("points", 2001))
        K = build_spectral(V, L, m)
        ref_t = min(float(v) for v in cfg.get("grid", {}).get("t", [0.05, 1.0, 2])[:2]) or 0.05
        prov = f"engine=spectral L={L:g} m={m} modes={K.mode_count(max(ref_t, 1e-6))}"
        return (lambda xs, ys, ts: spectral_log_kernel(K, xs, ys, ts)), V, prov
    raise ConfigError(f"unknown engine {engine!r}; known: {', '.join(ENGINES)}")


def _prov_line(cfg: dict, prov: str, xs, ys, ts) -> str:
    return f"config={config_hash(cfg)} {prov} grid={len(xs)}x{len(ys)}x{len(ts)}"


def _evaluate_grid(cfg: dict, base_dir: Path | None):
    """Build the engine and evaluate its grid once: (samples, potential, provenance line)."""
    log_kernel, V, prov = _build_engine(cfg, base_dir)
    xs, ys, ts = grid_from_config(cfg)
    samples = grid_samples(xs, ys, ts, log_kernel(xs, ys, ts))
    return samples, V, _prov_line(cfg, prov, xs, ys, ts)


def _bounds_samples(cfg: dict, base_dir: Path | None):
    """(samples() -> x-major (x, y, t, log p) samples, potential, provenance line).

    The spectral and ode engines evaluate the grid once and every family
    fits against that evaluation.  The closed form keeps its scalar path:
    each call of samples() yields `quadratic_kernel` values point by point,
    so each family's fit evaluates the grid as it reads it.  It costs a few
    microseconds a point, and perfbench's trace counts these calls as the
    fitter's kernel calls per point.
    """
    if cfg.get("engine", "explicit") != "explicit":
        samples, V, prov_line = _evaluate_grid(cfg, base_dir)
        return (lambda: samples), V, prov_line
    V = _potential(cfg, base_dir)
    quad = quadratic_from_potential(V)
    xs, ys, ts = grid_from_config(cfg)
    pts = grid_points(xs, ys, ts)

    def samples():
        for x, y, t in pts:
            yield x, y, t, quadratic_kernel(quad, x, y, t).log_value

    return samples, V, _prov_line(cfg, "engine=explicit", xs, ys, ts)


def cmd_kernel(cfg: dict, out: Path, base_dir: Path | None = None) -> int:
    samples, _, prov_line = _evaluate_grid(cfg, base_dir)
    rows = [(x, y, t, lp, KernelValue(lp).value) for x, y, t, lp in samples]
    path = emit_csv(rows, ["x", "y", "t", "log_p", "p"], out / "kernel.csv", prov_line)
    print(f"wrote {path} ({len(rows)} rows)")
    return EXIT_OK


def cmd_bounds(cfg: dict, out: Path, base_dir: Path | None = None) -> int:
    samples, V, prov_line = _bounds_samples(cfg, base_dir)
    verdict_rows = []
    slack_rows = []
    all_ok = True
    for spec in cfg.get("envelopes", DEFAULT_CONFIG["envelopes"]):
        env0 = envelope_from_config(spec)
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
        verdict_rows.append(
            (env.family, verdict, fit.min_slack)
            + tuple(consts.get(k, math.nan) for k in ("c0", "c1", "c2", "c3"))
        )
        for x, y, t, lp, le, slack in fit.records:
            slack_rows.append((env.family, x, y, t, lp, le, slack))
    emit_csv(
        verdict_rows,
        ["family", "verdict", "min_slack", "c0", "c1", "c2", "c3"],
        out / "bound_verdicts.csv",
        prov_line,
    )
    emit_csv(
        slack_rows,
        ["family", "x", "y", "t", "log_p", "log_env", "slack"],
        out / "bound_slacks.csv",
        prov_line,
    )
    print(f"sandwich: {'FEASIBLE' if all_ok else 'INFEASIBLE'}")
    return EXIT_OK if all_ok else EXIT_FAILURE


def cmd_weights(cfg: dict, out: Path, base_dir: Path | None = None) -> int:
    V = _potential(cfg, base_dir)
    w = cfg.get("weights", DEFAULT_CONFIG["weights"])
    window = Cube(float(w.get("window_center", 0.0)), float(w.get("window_side", 2.0)))
    depth = int(w.get("depth", 12))
    prov_line = f"config={config_hash(cfg)} window_side={window.side:g} depth={depth}"
    rows = []
    rh = rh_constant(V, float(w.get("rh_q", 1.5)), window, depth)
    for side, ratio in rh.trace:
        rows.append(("rh", rh.exponent, side, ratio))
    ap = ap_constant(V, float(w.get("ap_p", 2.0)), window, depth)
    for side, ratio in ap.trace:
        rows.append(("ap", ap.exponent, side, ratio))
    emit_csv(rows, ["kind", "exponent", "side", "ratio"], out / "weight_trace.csv", prov_line)
    fit = doubling_fit(V, window, min(depth, 20))
    emit_csv(
        [(fit.C, fit.epsilon, fit.residual)],
        ["C", "epsilon", "residual"],
        out / "doubling.csv",
        prov_line,
    )
    print(
        f"rh: constant={rh.constant:.6g} divergent={rh.divergent} | "
        f"ap: constant={ap.constant:.6g} beta={ap.beta:.6g} | "
        f"doubling: C={fit.C:.6g} eps={fit.epsilon:.6g}"
    )
    return EXIT_OK


def cmd_ode(cfg: dict, out: Path, base_dir: Path | None = None) -> int:
    o = cfg.get("ode", DEFAULT_CONFIG["ode"])
    V = _potential(cfg, base_dir)
    quad = quadratic_from_potential(V)
    if quad.a0 != 0.0:
        quad = type(quad)(0.0, quad.a1, quad.a2)
    t0, t1 = float(o.get("t0", 0.01)), float(o.get("t1", 2.0))
    traj = integrate_odes(quad, t0, t1, samples=int(o.get("samples", 120)))
    trajectory_to_csv(traj, out / "trajectory.csv")
    err = 0.0
    for s in traj:
        ref = closed_form_state(quad, s.t)
        err = max(err, float(np.max(np.abs(s.as_array() - ref.as_array()))))
    rel = _rel_tol(cfg)
    print(f"wrote {out / 'trajectory.csv'} max_closed_form_error={err:.6g} (tol {rel:g})")
    return EXIT_OK if err <= rel else EXIT_FAILURE


def cmd_chain(cfg: dict, out: Path, base_dir: Path | None = None) -> int:
    ch = cfg.get("chain", DEFAULT_CONFIG["chain"])
    V = _potential(cfg, base_dir)
    x, y, t = float(ch.get("x", 0.0)), float(ch.get("y", 1.0)), float(ch.get("t", 1.0))
    sigma = ch.get("sigma")
    plan = chain_plan(x, y, t, sigma=float(sigma) if sigma is not None else None)
    window = Cube(x, max(4.0 * math.sqrt(t), 4.0))
    dbl = doubling_fit(V, window, 8)
    c0 = float(ch.get("c0", 0.5 * (4.0 * math.pi) ** -0.5))
    c1 = float(ch.get("c1", 1.0))
    bound = chained_lower_bound(V, plan, c0, c1, max(dbl.C, 1.0))
    print(
        f"M={plan.M} sigma={plan.sigma:.6g} cube_side={plan.cube_side:.6g} "
        f"spacing={plan.spacing:.6g} log_bound={bound.log_value:.6g}"
    )
    rows = [
        (i, pt[0], cube_average(V, Cube(tuple(pt), plan.cube_side)))
        for i, pt in enumerate(plan.waypoints)
    ]
    prov_line = f"config={config_hash(cfg)} M={plan.M} sigma={plan.sigma:.17g}"
    emit_csv(rows, ["i", "x_i", "avg_V_cube_i"], out / "chain_waypoints.csv", prov_line)
    return EXIT_OK


def cmd_verify(cfg: dict, out: Path, base_dir: Path | None = None) -> int:
    from . import acceptance

    results = acceptance.run_all(out_dir=out, seed=int(cfg.get("seed", 0)))
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
    parser.add_argument("--tol", type=float, help="override tolerances.rel")
    parser.add_argument("--seed", type=int, help="seed for test-function lattices")
    parser.add_argument(
        "command",
        choices=["kernel", "bounds", "weights", "ode", "chain", "verify"],
    )
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config) if args.config else DEFAULT_CONFIG
        if args.tol is not None:
            cfg = {**cfg, "tolerances": {**cfg.get("tolerances", {}), "rel": args.tol}}
        if args.seed is not None:
            cfg = {**cfg, "seed": args.seed}
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
