"""Checks of the CLI's CSV outputs against computations made here.

Nothing here imports `heatkernel`: the kernel oracle is Mehler's formula,
the weight scans and cube averages use this module's own antiderivatives,
and the rest are properties the method must have (symmetry, Gaussian
domination, FEASIBLE verdicts for quadratic V, the chain length formula).
Columns are read by name, so a CSV that gains a column still checks.

Every check raises CheckError with the first discrepancy it finds.
"""

from __future__ import annotations

import csv
import math
import re
from pathlib import Path

import numpy as np

# Spectral values are compared only where the exact kernel is at least this
# fraction of its time slice's peak: farther out the eigensum is below its
# cancellation floor (about 1e-16 of the peak) or the difference scheme's
# tail error grows.  Measured worst error at these points: 2.6e-3 in log p
# (m = 2001, t = 0.05).
RESOLVED_FRACTION = 1e-3
SPECTRAL_LOG_TOL = 5e-3
EXACT_LOG_RTOL = 1e-10  # closed form vs Mehler, relative to max(1, |log p|)
SYMMETRY_RTOL = 1e-12
SLACK_TOL = 1e-12  # the fitter's own feasibility tolerance
WEIGHT_RTOL = 1e-7  # the CLI integrates 1/V by 33-point Gauss-Legendre
DOUBLING_TOL = 1e-8
EXPONENT_TOL = 1e-9
CUBE_AVG_RTOL = 1e-8
DIVERGENCE_THRESHOLD = 1e8  # documented in the CLI's README
UPPER = {"gaussian_upper", "avg_upper", "symmetrized_upper", "quadratic_sharp"}


class CheckError(Exception):
    """An output of the program disagrees with the benchmark's computation."""


def _require(ok, message: str):
    if not ok:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# CSV access


def read_csv(path) -> dict[str, list[str]]:
    """Columns by name; a leading '# provenance' line is skipped."""
    path = Path(path)
    _require(path.is_file(), f"missing output {path.name}")
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    rows = list(csv.reader(lines))
    _require(rows, f"{path.name} is empty")
    header, body = rows[0], rows[1:]
    for i, row in enumerate(body):
        _require(len(row) == len(header), f"{path.name} row {i} has {len(row)} fields")
    return {name: [row[j] for row in body] for j, name in enumerate(header)}


def floats(table: dict, *names: str) -> list[np.ndarray]:
    for name in names:
        _require(name in table, f"missing column {name!r}")
    return [np.array([float(v) for v in table[name]]) for name in names]


def axis(spec) -> np.ndarray:
    """The CLI's grid-axis rule: [lo, hi, count] with an integer count."""
    if len(spec) == 3 and isinstance(spec[2], int):
        return np.linspace(float(spec[0]), float(spec[1]), spec[2])
    return np.array([float(v) for v in spec])


def grid(cfg: dict) -> np.ndarray:
    xs, ys, ts = (axis(cfg["grid"][k]) for k in ("x", "y", "t"))
    return np.array([(x, y, t) for x in xs for y in ys for t in ts])


# ---------------------------------------------------------------------------
# kernel oracle and kernel properties


def log_mehler(coeffs, x, y, t):
    """log p for V = a0 + a1 x + a2 x^2 from Mehler's formula.

    V = a2 (x - s)^2 + c, so p = e^{-ct} times the oscillator kernel
    sqrt(w / 2 pi sinh 2wt) exp(-w [(X^2 + Y^2) cosh 2wt - 2XY] / 2 sinh 2wt)
    in X = x - s, Y = y - s, w = sqrt(a2).
    """
    a0, a1, a2 = coeffs
    w = math.sqrt(a2)
    s = -a1 / (2.0 * a2)
    c = a0 - a1 * a1 / (4.0 * a2)
    u = 2.0 * w * np.asarray(t, dtype=float)
    log_sinh = u + np.log1p(-np.exp(-2.0 * u)) - math.log(2.0)
    X, Y = np.asarray(x) - s, np.asarray(y) - s
    quad = (X * X + Y * Y) / np.tanh(u) - 2.0 * X * Y * np.exp(-log_sinh)
    return 0.5 * (math.log(w) - math.log(2.0 * math.pi) - log_sinh) - 0.5 * w * quad - c * t


def resolved_mask(pts: np.ndarray, exact: np.ndarray, spectral: bool) -> np.ndarray:
    """Points the engine resolves: all for the closed form; for the
    eigensum, those within RESOLVED_FRACTION of their time slice's peak."""
    if not spectral:
        return np.ones(len(pts), dtype=bool)
    mask = np.zeros(len(pts), dtype=bool)
    for t in np.unique(pts[:, 2]):
        sl = pts[:, 2] == t
        mask[sl] = exact[sl] >= np.max(exact[sl]) + math.log(RESOLVED_FRACTION)
    return mask


def _log_tol(exact, spectral: bool):
    return SPECTRAL_LOG_TOL if spectral else EXACT_LOG_RTOL * np.maximum(1.0, np.abs(exact))


def check_oracle(pts, logp, coeffs, spectral: bool):
    exact = log_mehler(coeffs, pts[:, 0], pts[:, 1], pts[:, 2])
    mask = resolved_mask(pts, exact, spectral)
    err = np.abs(logp - exact)
    bad = mask & ~(err <= _log_tol(exact, spectral))
    if bad.any():
        i = int(np.argmax(bad))
        raise CheckError(f"log_p differs from Mehler's formula at {tuple(pts[i])}: {logp[i]!r} vs {exact[i]!r}")
    return mask


def check_symmetry(pts, logp):
    value = {tuple(p): lp for p, lp in zip(pts.tolist(), logp.tolist())}
    for (x, y, t), lp in value.items():
        mirror = value.get((y, x, t))
        _require(mirror is not None, f"grid has no mirror point for {(x, y, t)}")
        same = mirror == lp or abs(mirror - lp) <= SYMMETRY_RTOL * max(1.0, abs(lp))
        _require(same, f"p(x,y,t) != p(y,x,t) at {(x, y, t)}: {lp!r} vs {mirror!r}")


def check_gaussian(pts, logp, mask, spectral: bool):
    """V >= 0 gives p <= (4 pi t)^{-1/2} exp(-|x-y|^2 / 4t)."""
    x, y, t = pts.T
    gauss = -0.5 * np.log(4.0 * math.pi * t) - (x - y) ** 2 / (4.0 * t)
    bad = mask & ~(logp <= gauss + _log_tol(gauss, spectral))
    _require(not bad.any(), f"p exceeds the free Gaussian at {tuple(pts[int(np.argmax(bad))])}")


def check_p_column(logp, p):
    expected = np.where(logp < -745.0, 0.0, np.exp(np.minimum(logp, 709.0)))
    bad = ~(np.abs(p - expected) <= 1e-12 * np.abs(expected))
    _require(not bad.any(), f"p != exp(log_p) in row {int(np.argmax(bad))}")


def check_kernel_values(pts, logp, coeffs, spectral: bool) -> np.ndarray:
    """Oracle, symmetry and Gaussian domination; returns the resolved mask."""
    mask = check_oracle(pts, logp, coeffs, spectral)
    check_symmetry(pts, logp)
    check_gaussian(pts, logp, mask, spectral)
    return mask


def check_kernel_job(cfg: dict, outdir: Path):
    table = read_csv(outdir / "kernel.csv")
    x, y, t, logp, p = floats(table, "x", "y", "t", "log_p", "p")
    pts = np.column_stack([x, y, t])
    expected = grid(cfg)
    _require(pts.shape == expected.shape and np.array_equal(pts, expected), "kernel.csv grid differs from the config")
    check_p_column(logp, p)
    check_kernel_values(pts, logp, cfg["potential"]["coefficients"], cfg.get("engine") == "spectral")


# ---------------------------------------------------------------------------
# bounds


def check_slacks(slacks: dict, verdicts: dict):
    """Each slack is log_env - log_p (upper) or log_p - log_env (lower), and
    each family's min_slack is the minimum of its slacks."""
    fam = slacks["family"]
    logp, logenv, slack = floats(slacks, "log_p", "log_env", "slack")
    upper = np.array([f in UPPER for f in fam])
    with np.errstate(invalid="ignore"):  # inf - inf where the CLI writes a fixed slack
        expect = np.where(upper, logenv - logp, logp - logenv)
        expect = np.where(upper & (logp == -np.inf), np.inf, expect)
        expect = np.where(~upper & (logenv == -np.inf), np.where(logp > -np.inf, np.inf, 0.0), expect)
        close = (slack == expect) | (np.abs(slack - expect) <= SLACK_TOL * np.maximum(1.0, np.abs(expect)))
    _require(close.all(), f"slack != envelope gap in row {int(np.argmin(close))}")
    for name, min_slack in zip(verdicts["family"], verdicts["min_slack"]):
        rows = [s for f, s in zip(fam, slack) if f == name]
        _require(rows and float(min_slack) == min(rows), f"{name}: min_slack is not the minimum slack")


def check_feasible(verdicts: dict, stdout: str):
    """The exact kernel of these V satisfies every family."""
    for name, verdict, min_slack in zip(verdicts["family"], verdicts["verdict"], verdicts["min_slack"]):
        _require(verdict.startswith("FEASIBLE"), f"{name} is {verdict}")
        _require(float(min_slack) >= -SLACK_TOL, f"{name}: FEASIBLE with min_slack {min_slack}")
    _require("sandwich: FEASIBLE" in stdout, "sandwich line is not FEASIBLE")


def check_fault_signature(verdicts: dict, slacks: dict, pts_mask: dict):
    """The known false INFEASIBLE: every violated point lies below the
    eigensum's cancellation floor, never at a resolved point."""
    infeasible = [f for f, v in zip(verdicts["family"], verdicts["verdict"]) if not v.startswith("FEASIBLE")]
    _require(infeasible, "job failed but every family is FEASIBLE")
    (slack,) = floats(slacks, "slack")
    x, y, t = floats(slacks, "x", "y", "t")
    for name in infeasible:
        violated = [
            (xi, yi, ti)
            for f, xi, yi, ti, s in zip(slacks["family"], x, y, t, slack)
            if f == name and s < -SLACK_TOL
        ]
        _require(violated, f"{name} is INFEASIBLE without a violated point")
        resolved = [p for p in violated if pts_mask[p]]
        _require(not resolved, f"{name} is violated at resolved point {resolved[:1]}")


def check_bounds_job(cfg: dict, outdir: Path, rc: int, stdout: str) -> str:
    """'ok', 'failed' when the command did not finish, or 'known_fault' for
    the false INFEASIBLE of the spectral engine."""
    if "sandwich:" not in stdout:
        return "failed"
    verdicts = read_csv(outdir / "bound_verdicts.csv")
    slacks = read_csv(outdir / "bound_slacks.csv")
    families = [e["family"] for e in cfg["envelopes"]]
    _require(verdicts.get("family") == families, "verdict families differ from the config")
    spectral = cfg.get("engine") == "spectral"
    x, y, t, logp = floats(slacks, "x", "y", "t", "log_p")
    pts = np.column_stack([x, y, t])
    expected = grid(cfg)
    full = {tuple(p) for p in expected.tolist()}
    for name in families:
        rows = {tuple(p) for p, f in zip(pts.tolist(), slacks["family"]) if f == name}
        _require(rows <= full, f"{name} has points off the grid")
        _require(name not in UPPER or rows == full, f"{name} does not cover the grid")
    mask = check_kernel_values(pts, logp, cfg["potential"]["coefficients"], spectral)
    check_slacks(slacks, verdicts)
    if rc == 0:
        check_feasible(verdicts, stdout)
        return "ok"
    _require(spectral and rc == 1, f"bounds exited {rc}")
    check_fault_signature(verdicts, slacks, {tuple(p): m for p, m in zip(pts.tolist(), mask)})
    return "known_fault"


# ---------------------------------------------------------------------------
# potentials: own antiderivatives


def potential_model(spec: dict, meta: dict | None = None):
    """Config section -> nested tuples the integrals below understand."""
    kind = spec["kind"]
    if kind == "polynomial":
        return ("poly", tuple(float(c) for c in spec["coefficients"]), meta or {})
    if kind == "power":
        return ("power", float(spec["exponent"]))
    if kind == "scaled":
        return ("scaled", float(spec["factor"]), potential_model(spec["base"]))
    if kind == "sum":
        return ("sum", tuple(potential_model(p) for p in spec["parts"]))
    if kind == "tabulated":
        rows = [ln.split(",") for ln in Path(spec["table"]).read_text().splitlines()[1:] if ln]
        return ("table", np.array([float(r[0]) for r in rows]), np.array([float(r[1]) for r in rows]))
    raise ValueError(f"no model for potential kind {kind!r}")


def _monomial_integral(i: int, lo, hi):
    """int_lo^hi x^i dx = (hi - lo)/(i+1) sum_j hi^j lo^(i-j): no cancellation."""
    acc = np.zeros(np.broadcast(lo, hi).shape)
    for j in range(i + 1):
        acc = acc + hi**j * lo ** (i - j)
    return (hi - lo) * acc / (i + 1)


def _poly_integral(coeffs, lo, hi):
    return sum(c * _monomial_integral(i, lo, hi) for i, c in enumerate(coeffs) if c != 0.0)


def _abs_power_integral(lo, hi, s: float, excision: float = 0.0):
    """int of |x|^s over [lo, hi] minus (-excision, excision); s != -1."""
    lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))

    def piece(a, b):  # 0 <= a <= b
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(b > a, (b ** (s + 1.0) - a ** (s + 1.0)) / (s + 1.0), 0.0)

    pos = piece(np.maximum(np.maximum(lo, 0.0), excision), np.maximum(hi, 0.0))
    neg = piece(np.maximum(np.maximum(-hi, 0.0), excision), np.maximum(-lo, 0.0))
    return pos + neg


def _table_integral(xs, vs, lo, hi):
    """Exact integral of the piecewise-linear interpolant."""
    h = xs[1] - xs[0]
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (vs[1:] + vs[:-1]) * h)])

    def value(x, j):
        return vs[j] + (vs[j + 1] - vs[j]) * (x - xs[j]) / h

    def prim(x, j):
        return cum[j] + 0.5 * (vs[j] + value(x, j)) * (x - xs[j])

    jl = np.clip(np.floor((lo - xs[0]) / h).astype(int), 0, len(xs) - 2)
    jh = np.clip(np.floor((hi - xs[0]) / h).astype(int), 0, len(xs) - 2)
    same = 0.5 * (value(lo, jl) + value(hi, jl)) * (hi - lo)  # one segment: trapezoid is exact
    return np.where(jl == jh, same, prim(hi, jh) - prim(lo, jl))


def integral(model, lo, hi):
    """int of V over each [lo_i, hi_i]."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    kind = model[0]
    if kind == "poly":
        return _poly_integral(model[1], lo, hi)
    if kind == "power":
        return _abs_power_integral(lo, hi, model[1])
    if kind == "scaled":
        return model[1] * integral(model[2], lo, hi)
    if kind == "sum":
        return sum(integral(p, lo, hi) for p in model[1])
    if kind == "table":
        return _table_integral(model[1], model[2], lo, hi)
    raise ValueError(kind)


def _poly_pow(coeffs, q: int):
    out = np.array([1.0])
    for _ in range(q):
        out = np.convolve(out, coeffs)
    return out


def _reciprocal_integral(coeffs, meta: dict, lo, hi):
    """(int of 1/V, divergent mask) for the polynomials the workloads draw."""
    divergent = np.zeros(np.broadcast(lo, hi).shape, dtype=bool)
    if "factors" in meta:  # k (u^2 + alpha)(u^2 + beta), u = x - s
        k, s, al, be = (meta["factors"][n] for n in ("k", "s", "alpha", "beta"))
        F = lambda g, u: np.arctan(u / math.sqrt(g)) / math.sqrt(g)  # noqa: E731
        return (F(al, hi - s) - F(al, lo - s) - F(be, hi - s) + F(be, lo - s)) / (k * (be - al)), divergent
    a0, a1, a2 = coeffs
    s = -a1 / (2.0 * a2)
    c = a0 - a1 * a1 / (4.0 * a2)
    if c > 0.0:  # a2 (x - s)^2 + c
        r = math.sqrt(a2 / c)
        return (np.arctan(r * (hi - s)) - np.arctan(r * (lo - s))) / math.sqrt(a2 * c), divergent
    # a2 (x - s)^2: 1/V is not integrable across the double root
    divergent = (lo - 1e-12 <= s) & (s <= hi + 1e-12)
    with np.errstate(divide="ignore"):
        vals = (1.0 / (lo - s) - 1.0 / (hi - s)) / a2
    return np.where(divergent, np.inf, vals), divergent


def powered_integral(model, lo, hi, q: float, excision: float):
    """(int of V^q over each cube, divergent mask); divergent cubes of a
    singular power use the integral excised at radius `excision`."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    kind = model[0]
    if kind == "scaled":
        vals, div = powered_integral(model[2], lo, hi, q, excision)
        return model[1] ** q * vals, div
    if kind == "power":
        s = model[1] * q
        divergent = (lo <= 0.0) & (hi >= 0.0) & (s <= -1.0)
        vals = np.where(divergent, np.inf, _abs_power_integral(lo, hi, s))
        if excision > 0.0:
            vals = np.where(divergent, _abs_power_integral(lo, hi, s, excision), vals)
        return vals, divergent
    if kind == "poly" and float(q).is_integer() and q >= 1:
        return _poly_integral(_poly_pow(model[1], int(q)), lo, hi), np.zeros(lo.shape, dtype=bool)
    if kind == "poly" and q == -1.0:
        return _reciprocal_integral(model[1], model[2], lo, hi)
    raise ValueError(f"no closed form for {kind} to the power {q}")


# ---------------------------------------------------------------------------
# weight scans


def _safe_ratio(num, den):
    out = np.ones(np.broadcast(num, den).shape)
    pos = den > 0
    out[pos] = (num * np.ones_like(den))[pos] / den[pos]
    out[~pos & (num > 0)] = np.inf
    return out


def dyadic_scan(model, center: float, side: float, depth: int, kind: str, exponent: float):
    """[(side_d, max ratio over the 2^d cubes of level d)], divergent flag."""
    trace, divergent = [], False
    for d in range(depth + 1):
        s = side * 2.0**-d
        lo = center - side / 2.0 + s * np.arange(2**d)
        hi = lo + s
        excision = side * 8.0 ** -(d + 2)
        mean = integral(model, lo, hi) / s
        if kind == "rh":
            upper, flags = powered_integral(model, lo, hi, exponent, excision)
            ratio = _safe_ratio((np.clip(upper, 0.0, None) / s) ** (1.0 / exponent), mean)
        else:
            dual, flags = powered_integral(model, lo, hi, -1.0 / (exponent - 1.0), excision)
            mean_dual = dual / s
            ratio = mean * np.where(mean_dual > 0, mean_dual, 0.0) ** (exponent - 1.0)
            ratio = np.where((mean <= 0) & (mean_dual <= 0), 1.0, ratio)
        top = float(np.max(ratio))
        trace.append((s, top))
        divergent |= bool(np.any(flags)) or top > DIVERGENCE_THRESHOLD
    return trace, divergent


def _same(a: float, b: float, rtol: float) -> bool:
    return a == b or abs(a - b) <= rtol * max(abs(a), abs(b))


def check_weight_trace(cfg: dict, meta: dict, outdir: Path):
    w = cfg["weights"]
    model = potential_model(cfg["potential"], meta)
    table = read_csv(outdir / "weight_trace.csv")
    kinds = table.get("kind", [])
    expo, side, ratio = floats(table, "exponent", "side", "ratio")
    for kind, label, exponent in (("rh", "rh", w["rh_q"]), ("ap", "ap", w["ap_p"])):
        rows = [i for i, k in enumerate(kinds) if k == label]
        trace, _ = dyadic_scan(model, w["window_center"], w["window_side"], w["depth"], kind, exponent)
        _require(len(rows) == len(trace), f"{label}: {len(rows)} trace rows, expected {len(trace)}")
        for i, (s, top) in zip(rows, trace):
            _require(expo[i] == exponent and _same(side[i], s, 1e-15), f"{label}: row {i} has the wrong cube family")
            _require(_same(ratio[i], top, WEIGHT_RTOL), f"{label} ratio at side {s:g}: {ratio[i]!r} vs {top!r}")


def check_divergence(cfg: dict, meta: dict, stdout: str):
    w = cfg["weights"]
    model = potential_model(cfg["potential"], meta)
    _, expected = dyadic_scan(model, w["window_center"], w["window_side"], w["depth"], "rh", w["rh_q"])
    found = re.search(r"rh: .*divergent=(True|False)", stdout)
    _require(found, "no rh divergence flag in the output")
    _require((found.group(1) == "True") == expected, f"rh divergent={found.group(1)}, expected {expected}")


def doubling_exponent(model, center: float, side: float, depth: int):
    """Least-squares (C, epsilon, residual) over the nested cubes."""
    sides = side * 2.0 ** -np.arange(depth + 1)
    masses = integral(model, center - sides / 2.0, center + sides / 2.0)
    xs = np.log(sides[1:] / sides[0])
    ys = np.log(masses[1:] / masses[0])
    xm, ym = xs.mean(), ys.mean()
    eps = float(np.sum((xs - xm) * (ys - ym)) / np.sum((xs - xm) ** 2))
    logc = ym - eps * xm
    return math.exp(logc), eps, float(np.max(np.abs(ys - (eps * xs + logc))))


def expected_doubling_exponent(spec: dict, center: float):
    """Exact exponents for homogeneous V centred at their zero."""
    if center != 0.0:
        return None
    if spec["kind"] == "power":
        return 1.0 + float(spec["exponent"])
    if spec["kind"] == "scaled" and spec["base"] == {"kind": "polynomial", "coefficients": [0.0, 0.0, 1.0], "dimension": 1}:
        return 3.0
    return None


def check_doubling(cfg: dict, meta: dict, outdir: Path):
    w = cfg["weights"]
    C, eps, resid = (float(v[0]) for v in floats(read_csv(outdir / "doubling.csv"), "C", "epsilon", "residual"))
    model = potential_model(cfg["potential"], meta)
    C0, eps0, resid0 = doubling_exponent(model, w["window_center"], w["window_side"], min(w["depth"], 20))
    _require(abs(eps - eps0) <= DOUBLING_TOL, f"doubling epsilon {eps!r} vs {eps0!r}")
    _require(abs(C - C0) <= DOUBLING_TOL * max(1.0, C0), f"doubling C {C!r} vs {C0!r}")
    _require(abs(resid - resid0) <= DOUBLING_TOL, f"doubling residual {resid!r} vs {resid0!r}")
    exact = expected_doubling_exponent(cfg["potential"], w["window_center"])
    _require(exact is None or abs(eps - exact) <= EXPONENT_TOL, f"doubling epsilon {eps!r}, exactly {exact!r}")


def check_weights_job(cfg: dict, meta: dict, outdir: Path, stdout: str):
    check_weight_trace(cfg, meta, outdir)
    check_divergence(cfg, meta, stdout)
    check_doubling(cfg, meta, outdir)


# ---------------------------------------------------------------------------
# chain


def chain_length(x: float, y: float, t: float) -> int:
    return math.floor(256.0 * (y - x) ** 2 / t) + 1


def check_chain_job(cfg: dict, outdir: Path, stdout: str):
    ch = cfg["chain"]
    x, y, t = ch["x"], ch["y"], ch["t"]
    found = re.search(r"M=(\d+) sigma=(\S+)", stdout)
    _require(found, "no chain plan line in the output")
    M = int(found.group(1))
    _require(M == chain_length(x, y, t), f"M={M}, expected {chain_length(x, y, t)}")
    table = read_csv(outdir / "chain_waypoints.csv")
    idx, xi, avg = floats(table, "i", "x_i", "avg_V_cube_i")
    _require(np.array_equal(idx, np.arange(M + 1)), f"expected waypoints 0..{M}")
    bad = ~(np.abs(xi - (x + np.arange(M + 1) / M * (y - x))) <= 1e-12 * max(1.0, abs(x), abs(y)))
    _require(not bad.any(), f"waypoint {int(np.argmax(bad))} is not on the segment")
    side = (1.0 / 16.0) * math.sqrt(t / M)  # default sigma = 1/(16 sqrt n), n = 1
    exact = integral(potential_model(cfg["potential"]), xi - side / 2.0, xi + side / 2.0) / side
    bad = ~(np.abs(avg - exact) <= CUBE_AVG_RTOL * np.abs(exact) + 1e-300)
    if bad.any():
        i = int(np.argmax(bad))
        raise CheckError(f"cube average {i}: {avg[i]!r} vs {exact[i]!r}")


# ---------------------------------------------------------------------------


def check_job(job, outdir: Path, rc: int, stdout: str) -> str:
    """'ok', 'known_fault' or 'failed'; raises CheckError on a wrong output."""
    if job.command == "bounds":
        return check_bounds_job(job.config, outdir, rc, stdout)
    if rc != 0:
        return "failed"
    if job.command == "kernel":
        check_kernel_job(job.config, outdir)
    elif job.command == "weights":
        check_weights_job(job.config, job.meta, outdir, stdout)
    elif job.command == "chain":
        check_chain_job(job.config, outdir, stdout)
    else:
        raise ValueError(f"no checks for {job.command!r}")
    return "ok"
