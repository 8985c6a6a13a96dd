"""Machine-speed reference used to normalise the benchmark's timings.

On the 2-vCPU VM the benchmark was built on, the speed of each vCPU drifts:
a fixed interpreter loop alternates between two levels 1.45x apart, in
phases of seconds, and the fast level itself moves by 20-30% over minutes
(README, "Noise control").  Medians over one run cannot remove a drift
that lasts longer than the run, so every time the benchmark reports is
multiplied by `nominal / reference`, where `reference` is the time of a
fixed piece of benchmark-owned work sampled between the jobs of the same
run.  The drift slows interpreted code about twice as much as compiled
numerical code, so there are two kinds of reference work: "compiled", a
tridiagonal eigensolve, for workloads that spend most of their time in
LAPACK and numpy, and "interpreter", a loop of small numpy calls and
Python arithmetic, for the rest.  Nothing in either calls the program, so
a change to the program cannot move the reference.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.linalg import eigh_tridiagonal

# reference seconds that define one reported second, per kind of reference
NOMINAL_S = {"compiled": 0.03, "interpreter": 0.04}
_A = np.linspace(0.0, 1.0, 256)
_DIAG = np.linspace(2.0, 3.0, 600)
_OFF = np.full(599, -1.0)


def reference_seconds(kind: str) -> float:
    """Seconds one sample of the fixed reference work of this kind takes now."""
    t0 = time.perf_counter()
    if kind == "compiled":
        eigh_tridiagonal(_DIAG, _OFF)
    else:
        acc = 0.0
        for i in range(5000):
            acc += float(np.sum(_A * (i % 5))) + sum(range(i % 50))
    return time.perf_counter() - t0


def weighted_reference(durations, references) -> float:
    """Reference seconds over a stretch of jobs, each job weighted by its
    length; references[j] and references[j + 1] bracket job j."""
    return sum(d * 0.5 * (a + b) for d, a, b in zip(durations, references, references[1:])) / sum(durations)


def normalised_rounds(durations, references, round_sizes, nominal: float) -> list[float]:
    """Each round's total job time at reference speed.

    A job's reference is averaged over that job and its neighbours on either
    side, weighted by length: long enough to smooth one sample's noise,
    short enough to follow the drift.
    """
    n = len(durations)
    jobs = []
    for j in range(n):
        lo, hi = max(0, j - 1), min(n, j + 2)
        jobs.append(durations[j] * nominal / weighted_reference(durations[lo:hi], references[lo : hi + 1]))
    out, start = [], 0
    for size in round_sizes:
        out.append(sum(jobs[start : start + size]))
        start += size
    return out
