"""Seeded job lists for the four benchmark workloads.

A job is one `heatkernel` CLI call: a subcommand plus the JSON config it
reads.  A run is a whole number of rounds, and every round of a workload
holds the same sequence of job kinds, so the work per run does not depend
on the seed and the share of failed jobs is the same in every run.  Only
the numbers inside the configs come from the seed.

This module uses the standard library only: run.py imports it before the
timed package import, and its draws must not depend on numpy's version.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path

# The five families of the CLI's default config, written out so the checks
# know which verdicts to expect.
ENVELOPES = (
    {"family": "avg_upper", "beta": 0.99},
    {"family": "symmetrized_upper", "beta": 0.99},
    {"family": "quadratic_sharp"},
    {"family": "avg_lower_near", "kappa": 0.125},
    {"family": "avg_lower_far", "kappa": 0.125},
)

# Nominal seconds per round on the reference machine (README).  A run does
# max(MIN_ROUNDS, round(seconds / nominal)) rounds: a fixed job count for a
# given --seconds, whatever the machine's speed.
NOMINAL_ROUND_S = {
    "spectral_bounds": 1.8,
    "spectral_kernel": 1.9,
    "closed_form_bounds": 0.47,
    "weights_chain": 3.4,
}
MIN_ROUNDS = 5
# Kind of reference work each workload's timings are normalised by (speed.py):
# the spectral workloads spend most of their time in LAPACK and numpy, the
# other two in the interpreter.
REFERENCE_KIND = {
    "spectral_bounds": "compiled",
    "spectral_kernel": "compiled",
    "closed_form_bounds": "interpreter",
    "weights_chain": "interpreter",
}

WEIGHTS_DEPTH = 11
CHAIN_T = 0.1
CHAIN_M = 10241  # far pair: |x - y| = 2 at t = 0.1
TABLE_CHAIN_M = 2561  # |x - y| = 1 at t = 0.1; each waypoint rescans the table
TABLE_SAMPLES = 801
TABLE_HALF_WIDTH = 4.0


@dataclass(frozen=True)
class Job:
    """One CLI call.  `meta` holds what the checks need beyond the config."""

    kind: str
    command: str
    config: dict
    meta: dict = field(default_factory=dict)


def round_count(workload: str, seconds: float) -> int:
    return max(MIN_ROUNDS, round(seconds / NOMINAL_ROUND_S[workload]))


def _quadratic(rng: random.Random) -> list[float]:
    """a0 + a1 x + a2 x^2 with a2 > 0 and min V = a0 - a1^2/4a2 >= 0.25.

    Such V are nonnegative, in A_inf and RH_inf, and have an exact kernel.
    The positive minimum keeps 1/V smooth for the Muckenhoupt scans.
    """
    a2 = rng.uniform(0.5, 2.0)
    a1 = rng.uniform(-1.0, 1.0)
    a0 = a1 * a1 / (4.0 * a2) + rng.uniform(0.25, 1.0)
    return [a0, a1, a2]


def _poly(coeffs) -> dict:
    return {"kind": "polynomial", "coefficients": list(coeffs), "dimension": 1}


def _bounds_config(coeffs, engine: str, grid: dict, points: int | None = None) -> dict:
    cfg = {"potential": _poly(coeffs), "engine": engine, "grid": grid, "envelopes": list(ENVELOPES)}
    if points is not None:
        cfg["spectral"] = {"half_width": 8.0, "points": points}
    return cfg


# Fixed inputs: every job here fails today because of a known fault in the
# fitter (README), and a failure kept in the benchmark must not depend on
# the seed.  The potentials still differ job by job, so every job pays its
# spectral build, as a fresh CLI process does.
SPECTRAL_BOUNDS_STREAM = "spectral_bounds:fixed"


def spectral_bounds_round(r: int, rng: random.Random, workdir: Path) -> list[Job]:
    grid = {"x": [-2.0, 2.0, 9], "y": [-2.0, 2.0, 9], "t": [0.05, 1.0, 5]}
    cfg = _bounds_config(_quadratic(rng), "spectral", grid, points=2001)
    return [Job("bounds_spectral", "bounds", cfg)]


def spectral_kernel_round(r: int, rng: random.Random, workdir: Path) -> list[Job]:
    grid = {"x": [-1.5, 1.5, 5], "y": [-1.5, 1.5, 5], "t": [0.1, 1.0, 3]}
    cfg = {
        "potential": _poly(_quadratic(rng)),
        "engine": "spectral",
        "grid": grid,
        "spectral": {"half_width": 8.0, "points": 3199},
    }
    return [Job("kernel_spectral", "kernel", cfg)]


def closed_form_bounds_round(r: int, rng: random.Random, workdir: Path) -> list[Job]:
    # t runs past 1 so both branches of quadratic_sharp bind.
    grid = {"x": [-2.0, 2.0, 13], "y": [-2.0, 2.0, 13], "t": [0.05, 3.0, 8]}
    return [Job("bounds_explicit", "bounds", _bounds_config(_quadratic(rng), "explicit", grid))]


def _weights(potential: dict, rh_q: float, ap_p: float, center: float, side: float = 2.0) -> dict:
    return {
        "potential": potential,
        "weights": {
            "rh_q": rh_q,
            "ap_p": ap_p,
            "window_center": center,
            "window_side": side,
            "depth": WEIGHTS_DEPTH,
        },
    }


def _chain(potential: dict, rng: random.Random, M: int) -> dict:
    """A pair (x, y) at t = CHAIN_T whose chain has exactly M links."""
    r = math.sqrt((M - 0.5) * CHAIN_T / 256.0)
    x = rng.uniform(-1.0, 0.0)
    return {"potential": potential, "chain": {"x": x, "y": x + r, "t": CHAIN_T}}


def _quartic(rng: random.Random):
    """k((x-s)^2 + alpha)((x-s)^2 + beta): non-quadratic, positive, and 1/V
    splits into partial fractions with arctan antiderivatives."""
    k = rng.uniform(0.5, 2.0)
    s = rng.uniform(-0.5, 0.5)
    alpha = rng.uniform(0.3, 0.7)
    beta = alpha + rng.uniform(0.3, 0.8)
    # expand k (u^2 + alpha)(u^2 + beta) with u = x - s
    inner = [s * s, -2.0 * s, 1.0]  # u^2
    a = [inner[0] + alpha, inner[1], inner[2]]
    b = [inner[0] + beta, inner[1], inner[2]]
    coeffs = [0.0] * 5
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            coeffs[i + j] += k * ai * bj
    return coeffs, {"k": k, "s": s, "alpha": alpha, "beta": beta}


def _table(rng: random.Random, path: Path) -> dict:
    """Samples of a smooth positive function on a uniform grid."""
    b0 = rng.uniform(0.2, 1.0)
    b1 = rng.uniform(0.2, 1.0)
    b2 = rng.uniform(0.5, 2.0)
    k = rng.uniform(1.0, 4.0)
    phase = rng.uniform(0.0, math.pi)
    lines = ["coordinate,value"]
    for i in range(TABLE_SAMPLES):
        x = -TABLE_HALF_WIDTH + 2.0 * TABLE_HALF_WIDTH * i / (TABLE_SAMPLES - 1)
        v = b0 + b1 * x * x + b2 * math.sin(k * x + phase) ** 2
        lines.append(f"{x!r},{v!r}")
    path.write_text("\n".join(lines) + "\n")
    # absolute path: the CLI resolves a relative table path against the
    # working directory, not the config file
    return {"kind": "tabulated", "table": str(path.resolve())}


def weights_chain_round(r: int, rng: random.Random, workdir: Path) -> list[Job]:
    quad = _quadratic(rng)
    quartic, factors = _quartic(rng)
    a = rng.uniform(0.2, 0.9)  # |x|^a is in A_2 for -1 < a < 1
    f = rng.uniform(0.5, 2.0)
    chain_quad = _quadratic(rng)
    sum_quad = _quadratic(rng)
    sum_a = rng.uniform(0.2, 1.5)
    table = _table(rng, workdir / f"table{r}.csv")
    power = lambda e: {"kind": "power", "exponent": e, "dimension": 1}  # noqa: E731
    return [
        Job("weights_quadratic", "weights", _weights(_poly(quad), 2.0, 2.0, rng.uniform(-0.5, 0.5))),
        Job("weights_quartic", "weights", _weights(_poly(quartic), 2.0, 2.0, 0.0), {"factors": factors}),
        Job("weights_power", "weights", _weights(power(a), rng.uniform(1.5, 3.0), 2.0, 0.0)),
        # |x|^-1/2 is not RH_3: the q = 3 scan must be flagged divergent
        Job("weights_power_singular", "weights", _weights(power(-0.5), 3.0, 2.0, 0.0)),
        # f x^2 centred at 0: doubling exponent exactly 3; x^2 is not A_2
        Job(
            "weights_scaled",
            "weights",
            _weights({"kind": "scaled", "factor": f, "base": _poly([0.0, 0.0, 1.0])}, 2.0, 2.0, 0.0),
        ),
        Job("chain_polynomial", "chain", _chain(_poly(chain_quad), rng, CHAIN_M)),
        Job("chain_tabulated", "chain", _chain(table, rng, TABLE_CHAIN_M)),
        Job("chain_sum", "chain", _chain({"kind": "sum", "parts": [_poly(sum_quad), power(sum_a)]}, rng, CHAIN_M)),
    ]


ROUNDS = {
    "spectral_bounds": spectral_bounds_round,
    "spectral_kernel": spectral_kernel_round,
    "closed_form_bounds": closed_form_bounds_round,
    "weights_chain": weights_chain_round,
}
WORKLOADS = tuple(ROUNDS)


def make_rounds(workload: str, seed: int, seconds: float, workdir: Path) -> list[list[Job]]:
    """The run's rounds of jobs; the same (workload, seed, seconds) gives the same jobs."""
    stream = SPECTRAL_BOUNDS_STREAM if workload == "spectral_bounds" else f"{workload}:{seed}"
    rng = random.Random(stream)
    return [ROUNDS[workload](r, rng, workdir) for r in range(round_count(workload, seconds))]
