"""Acceptance gate: every criterion runs at its pinned tolerance.

One test per criterion so the pass/fail line shows up per criterion; the
suite is shared through a session fixture to avoid recomputation.  The
determinism criterion is additionally exercised end-to-end by running the
CLI `verify` twice and byte-comparing the artifacts.
"""

import filecmp
import os
import subprocess
import sys
from pathlib import Path

import pytest

import heatkernel
from heatkernel import acceptance


@pytest.fixture(scope="session")
def results():
    out = {}
    for fn in acceptance.CRITERIA:
        r = fn(None) if fn is acceptance.c11_determinism else fn()
        out[r.number] = r
    return out


def _check(results, number):
    r = results[number]
    print(f"criterion {r.number} [{'PASS' if r.passed else 'FAIL'}]: {r.details}")
    assert r.passed, r.details


def test_c1_oracle_equivalence(results):
    _check(results, 1)


def test_c2_ode_round_trip(results):
    _check(results, 2)


def test_c3_semigroup(results):
    _check(results, 3)


def test_c4_pde_residual(results):
    _check(results, 4)


def test_c5_mass_positivity(results):
    _check(results, 5)


def test_c6_sandwich_feasibility(results):
    _check(results, 6)


def test_c7_weight_diagnostics(results):
    _check(results, 7)


def test_c8_chain_construction(results):
    _check(results, 8)


def test_c9_inequality_checks(results):
    _check(results, 9)


def test_c10_dirichlet_comparisons(results):
    _check(results, 10)


def test_c11_determinism(results):
    _check(results, 11)


def test_verify_cli_twice_byte_identical(tmp_path):
    """Criterion 11 end-to-end: two `verify` runs, identical CSVs, exit 0."""
    # the subprocess imports the package from where this process found it,
    # installed or not
    src = str(Path(heatkernel.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    outs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "heatkernel.cli", "--out", str(out), "verify"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "11/11 acceptance criteria passed" in proc.stdout
        outs.append(out)
    a, b = outs
    names = sorted(p.relative_to(a) for p in a.rglob("*.csv"))
    assert names, "verify produced no CSV artifacts"
    for rel in names:
        assert filecmp.cmp(a / rel, b / rel, shallow=False), f"artifact {rel} differs"
