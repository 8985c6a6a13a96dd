"""Negative controls: each output check passes on the CLI's real output and
rejects the same output with one value perturbed.  Also checks that the
tracer survives a removed function and counts what the README says."""

import contextlib
import csv
import io
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from heatkernel import cli  # noqa: E402

QUAD = [0.7, 0.4, 1.3]  # min V = 0.7 - 0.16/5.2 > 0


def run(tmp_path, command, cfg, name="job"):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / name
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(["--config", str(path), "--out", str(out), command])
    return rc, out, buf.getvalue()


def perturb(path, row, column, change):
    """Rewrite one cell of a CSV (data row index, column name)."""
    lines = path.read_text().splitlines()
    head = [ln for ln in lines if ln.startswith("#")]
    rows = list(csv.reader(ln for ln in lines if not ln.startswith("#")))
    j = rows[0].index(column)
    rows[row + 1][j] = change(rows[row + 1][j])
    path.write_text("\n".join(head + [",".join(r) for r in rows]) + "\n")


def bump(delta):
    return lambda v: repr(float(v) + delta)


def kernel_arrays(out):
    table = checks.read_csv(out / "kernel.csv")
    x, y, t, logp, p = checks.floats(table, "x", "y", "t", "log_p", "p")
    return np.column_stack([x, y, t]), logp, p


def row_of(pts, point):
    return next(i for i, p in enumerate(pts.tolist()) if p == list(point))


@pytest.fixture()
def explicit_kernel(tmp_path):
    cfg = {
        "potential": {"kind": "polynomial", "coefficients": QUAD},
        "engine": "explicit",
        "grid": {"x": [-1.0, 1.0, 5], "y": [-1.0, 1.0, 5], "t": [0.1, 2.0, 3]},
    }
    rc, out, _ = run(tmp_path, "kernel", cfg)
    assert rc == 0
    checks.check_kernel_job(cfg, out)
    return cfg, out


def test_oracle_rejects_a_wrong_value(explicit_kernel):
    cfg, out = explicit_kernel
    pts, _, _ = kernel_arrays(out)
    for point in ((-0.5, 1.0, 0.1), (1.0, -0.5, 0.1)):  # keep the grid symmetric
        perturb(out / "kernel.csv", row_of(pts, point), "log_p", bump(1e-6))
    pts, logp, _ = kernel_arrays(out)
    checks.check_symmetry(pts, logp)
    with pytest.raises(checks.CheckError, match="Mehler"):
        checks.check_oracle(pts, logp, QUAD, spectral=False)


def test_symmetry_rejects_a_one_sided_change(explicit_kernel):
    cfg, out = explicit_kernel
    pts, _, _ = kernel_arrays(out)
    perturb(out / "kernel.csv", row_of(pts, (-0.5, 1.0, 0.1)), "log_p", bump(1e-9))
    pts, logp, _ = kernel_arrays(out)
    with pytest.raises(checks.CheckError, match="p\\(y,x,t\\)"):
        checks.check_symmetry(pts, logp)


def test_gaussian_domination_rejects_an_excess(explicit_kernel):
    cfg, out = explicit_kernel
    pts, _, _ = kernel_arrays(out)
    t = 2.0
    gauss = -0.5 * math.log(4.0 * math.pi * t)
    for point in ((0.0, 0.0, t),):
        perturb(out / "kernel.csv", row_of(pts, point), "log_p", lambda v: repr(gauss + 1e-6))
    pts, logp, _ = kernel_arrays(out)
    with pytest.raises(checks.CheckError, match="Gaussian"):
        checks.check_gaussian(pts, logp, checks.resolved_mask(pts, logp, False), spectral=False)


def test_p_column_and_grid_are_checked(explicit_kernel):
    cfg, out = explicit_kernel
    perturb(out / "kernel.csv", 7, "p", lambda v: repr(float(v) * (1 + 1e-9)))
    with pytest.raises(checks.CheckError, match="exp\\(log_p\\)"):
        checks.check_kernel_job(cfg, out)
    perturb(out / "kernel.csv", 7, "p", lambda v: repr(float(v) / (1 + 1e-9)))
    perturb(out / "kernel.csv", 3, "x", bump(1e-3))
    with pytest.raises(checks.CheckError, match="grid"):
        checks.check_kernel_job(cfg, out)


def test_spectral_values_are_compared_only_where_resolved(tmp_path):
    cfg = {
        "potential": {"kind": "polynomial", "coefficients": QUAD},
        "engine": "spectral",
        "spectral": {"half_width": 8.0, "points": 2001},
        "grid": {"x": [-2.0, 2.0, 5], "y": [-2.0, 2.0, 5], "t": [0.05, 1.0, 2]},
    }
    rc, out, _ = run(tmp_path, "kernel", cfg)
    assert rc == 0
    checks.check_kernel_job(cfg, out)
    pts, logp, _ = kernel_arrays(out)
    exact = checks.log_mehler(QUAD, *pts.T)
    mask = checks.resolved_mask(pts, exact, spectral=True)
    assert not mask.all() and mask.sum() > len(mask) // 3
    far = (-2.0, 2.0, 0.05)  # below the eigensum's cancellation floor
    assert not mask[row_of(pts, far)]
    logp[row_of(pts, far)] += 5.0
    checks.check_oracle(pts, logp, QUAD, spectral=True)
    logp[row_of(pts, (0.0, 0.0, 0.05))] += 2 * checks.SPECTRAL_LOG_TOL
    with pytest.raises(checks.CheckError, match="Mehler"):
        checks.check_oracle(pts, logp, QUAD, spectral=True)


def bounds_config(engine, t):
    cfg = {
        "potential": {"kind": "polynomial", "coefficients": QUAD},
        "engine": engine,
        "grid": {"x": [-2.0, 2.0, 5], "y": [-2.0, 2.0, 5], "t": t},
        "envelopes": list(workloads.ENVELOPES),
    }
    if engine == "spectral":
        cfg["spectral"] = {"half_width": 8.0, "points": 2001}
    return cfg


def test_bounds_checks_reject_a_flipped_verdict_and_a_wrong_slack(tmp_path):
    cfg = bounds_config("explicit", [0.05, 3.0, 4])
    rc, out, text = run(tmp_path, "bounds", cfg)
    assert checks.check_bounds_job(cfg, out, rc, text) == "ok"
    verdicts = checks.read_csv(out / "bound_verdicts.csv")
    verdicts["verdict"][1] = "INFEASIBLE"
    with pytest.raises(checks.CheckError, match="symmetrized_upper is INFEASIBLE"):
        checks.check_feasible(verdicts, text)
    perturb(out / "bound_slacks.csv", 4, "slack", bump(1e-6))
    with pytest.raises(checks.CheckError, match="envelope gap"):
        checks.check_bounds_job(cfg, out, rc, text)
    perturb(out / "bound_slacks.csv", 4, "slack", bump(-1e-6))
    perturb(out / "bound_verdicts.csv", 0, "min_slack", bump(1e-3))
    with pytest.raises(checks.CheckError, match="min_slack"):
        checks.check_bounds_job(cfg, out, rc, text)


def test_known_fault_signature_rejects_a_violation_at_a_resolved_point(tmp_path):
    cfg = bounds_config("spectral", [0.05, 1.0, 2])
    rc, out, text = run(tmp_path, "bounds", cfg)
    assert rc == 1
    assert checks.check_bounds_job(cfg, out, rc, text) == "known_fault"
    slacks = checks.read_csv(out / "bound_slacks.csv")
    row = next(i for i, (f, x, y, t) in enumerate(zip(slacks["family"], slacks["x"], slacks["y"], slacks["t"]))
               if f == "avg_upper" and (float(x), float(y), float(t)) == (0.0, 0.0, 1.0))
    perturb(out / "bound_slacks.csv", row, "slack", lambda v: "-1.0")
    perturb(out / "bound_slacks.csv", row, "log_env", lambda v: repr(-1.0 + float(slacks["log_p"][row])))
    with pytest.raises(checks.CheckError, match="resolved point"):
        checks.check_bounds_job(cfg, out, rc, text)


def weights_config(potential, rh_q=2.0, center=0.0):
    return {
        "potential": potential,
        "weights": {"rh_q": rh_q, "ap_p": 2.0, "window_center": center, "window_side": 2.0, "depth": 5},
    }


def test_weight_checks_reject_a_wrong_ratio_and_exponent(tmp_path):
    cfg = weights_config({"kind": "polynomial", "coefficients": QUAD}, center=0.3)
    rc, out, text = run(tmp_path, "weights", cfg)
    assert checks.check_job(workloads.Job("w", "weights", cfg), out, rc, text) == "ok"
    perturb(out / "weight_trace.csv", 9, "ratio", lambda v: repr(float(v) * (1 + 1e-6)))
    with pytest.raises(checks.CheckError, match="ap ratio"):
        checks.check_weight_trace(cfg, {}, out)
    perturb(out / "doubling.csv", 0, "epsilon", bump(1e-6))
    with pytest.raises(checks.CheckError, match="epsilon"):
        checks.check_doubling(cfg, {}, out)


def test_quartic_reciprocal_uses_its_factors(tmp_path):
    import random

    coeffs, factors = workloads._quartic(random.Random(3))
    cfg = weights_config({"kind": "polynomial", "coefficients": coeffs})
    rc, out, text = run(tmp_path, "weights", cfg)
    checks.check_weights_job(cfg, {"factors": factors}, out, text)
    wrong = dict(factors, beta=factors["beta"] * 1.01)
    with pytest.raises(checks.CheckError, match="ap ratio"):
        checks.check_weight_trace(cfg, {"factors": wrong}, out)


@pytest.mark.parametrize(
    "potential, exponent",
    [
        ({"kind": "power", "exponent": -0.5, "dimension": 1}, 0.5),
        ({"kind": "power", "exponent": 0.6, "dimension": 1}, 1.6),
        ({"kind": "scaled", "factor": 1.7, "base": {"kind": "polynomial", "coefficients": [0.0, 0.0, 1.0], "dimension": 1}}, 3.0),
    ],
)
def test_doubling_exponent_and_divergence_flag(tmp_path, potential, exponent):
    cfg = weights_config(potential, rh_q=3.0)
    rc, out, text = run(tmp_path, "weights", cfg)
    checks.check_weights_job(cfg, {}, out, text)
    assert checks.expected_doubling_exponent(potential, 0.0) == exponent
    divergent = potential.get("exponent") == -0.5
    assert f"divergent={divergent}" in text
    flipped = text.replace(f"divergent={divergent}", f"divergent={not divergent}")
    with pytest.raises(checks.CheckError, match="divergent"):
        checks.check_divergence(cfg, {}, flipped)


@pytest.mark.parametrize("kind", ["polynomial", "tabulated", "sum"])
def test_chain_checks_reject_a_wrong_length_and_average(tmp_path, kind):
    import random

    rng = random.Random(5)
    potential = {
        "polynomial": {"kind": "polynomial", "coefficients": QUAD},
        "tabulated": workloads._table(rng, tmp_path / "table.csv") if kind == "tabulated" else None,
        "sum": {"kind": "sum", "parts": [{"kind": "polynomial", "coefficients": QUAD},
                                         {"kind": "power", "exponent": 0.7}]},
    }[kind]
    cfg = workloads._chain(potential, rng, 641)
    rc, out, text = run(tmp_path, "chain", cfg)
    assert "M=641 " in text
    checks.check_chain_job(cfg, out, text)
    with pytest.raises(checks.CheckError, match="M=640"):
        checks.check_chain_job(cfg, out, text.replace("M=641 ", "M=640 "))
    perturb(out / "chain_waypoints.csv", 17, "avg_V_cube_i", lambda v: repr(float(v) * (1 + 1e-6)))
    with pytest.raises(checks.CheckError, match="cube average 17"):
        checks.check_chain_job(cfg, out, text)


def test_tracer_counts_per_point_and_survives_a_removed_name(tmp_path, monkeypatch):
    import heatkernel.potentials

    monkeypatch.delattr(heatkernel.potentials, "rh_constant")
    originals = (cli.fit_constants, cli.cube_average)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        cfg = bounds_config("explicit", [0.05, 3.0, 4])
        tracer.start_job("bounds", "bounds")
        rc, out, text = run(tmp_path, "bounds", cfg)
        tracer.end_job(1.0)
    finally:
        tracer.uninstall()
    assert (cli.fit_constants, cli.cube_average) == originals
    metrics = tracer.metrics()
    assert "potentials.rh_s" not in metrics
    assert metrics["bounds.points"][0] == 100
    assert metrics["bounds.kernel_calls_per_point"][0] == 5.0
    assert metrics["bounds.cube_averages_per_point"][0] == 8.0
    assert metrics["explicit.kernel_calls"][0] == 500


def test_normalisation_cancels_a_uniform_slowdown():
    fast = speed.normalised_rounds([1.0, 1.0, 1.0], [0.1] * 4, [1, 1, 1], 0.05)
    slow = speed.normalised_rounds([1.5, 1.5, 1.5], [0.15] * 4, [1, 1, 1], 0.05)
    assert fast == pytest.approx([0.5, 0.5, 0.5]) and slow == pytest.approx(fast)
    # a round's reference comes from its own jobs and its neighbours', weighted by length
    (a, b) = speed.normalised_rounds([1.0, 3.0], [0.1, 0.1, 0.3], [1, 1], 0.1)
    assert a == pytest.approx(4.0 * 0.1 / (1.0 * 0.1 + 3.0 * 0.2) * 1.0)
    assert b == pytest.approx(4.0 * 0.1 / (1.0 * 0.1 + 3.0 * 0.2) * 3.0)
