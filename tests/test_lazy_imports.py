"""scipy loads on first use: importing heatkernel, and the subcommands that never
call scipy (weights and chain on every potential kind with a closed form
included), leave scipy.integrate and scipy.linalg unloaded.

Each check runs in a fresh interpreter, since this test process has scipy
loaded already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from heatkernel.config import DEFAULT_CONFIG

SRC = Path(__file__).resolve().parents[1] / "src"


def run_fresh(code: str, cwd: Path) -> dict:
    """Run code in a new interpreter with heatkernel importable; return the JSON it prints last."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


LOADED = "{name: name in sys.modules for name in ('scipy.integrate', 'scipy.linalg')}"


def test_import_loads_no_scipy_integrate_or_linalg(tmp_path):
    code = f"import json, sys\nimport heatkernel.cli\nimport heatkernel\nprint(json.dumps({LOADED}))"
    loaded = run_fresh(code, tmp_path)
    assert loaded == {"scipy.integrate": False, "scipy.linalg": False}


def test_numpy_only_subcommands_skip_scipy_integrate_and_deferred_imports_run(tmp_path):
    spectral = {**DEFAULT_CONFIG, "engine": "spectral", "spectral": {"half_width": 8.0, "points": 201}}
    (tmp_path / "spectral.json").write_text(json.dumps(spectral))
    # weights and chain on every kind with a closed form
    xs = [-4.0 + 0.5 * i for i in range(17)]
    (tmp_path / "table.csv").write_text("".join(f"{x!r},{1.0 + x * x!r}\n" for x in xs))
    power = lambda a: {"kind": "power", "exponent": a}  # noqa: E731
    potentials = {
        "power_0.7": power(0.7),
        "power_-0.5": power(-0.5),
        "tabulated": {"kind": "tabulated", "table": "table.csv"},
        "scaled": {"kind": "scaled", "factor": 2.5, "base": power(0.7)},
        "sum": {"kind": "sum", "parts": [{"kind": "polynomial", "coefficients": [0.5, 0.0, 1.0]}, power(0.7)]},
    }
    for name, potential in potentials.items():
        (tmp_path / f"{name}.json").write_text(json.dumps({**DEFAULT_CONFIG, "potential": potential}))
    code = f"""
import contextlib, io, json, sys
from heatkernel.cli import main

report = {{}}
with contextlib.redirect_stdout(io.StringIO()):
    report["numpy_only"] = [main(["--out", "out", cmd]) for cmd in ("kernel", "bounds", "weights", "chain")]
    for name in {list(potentials)!r}:
        report[name] = [main(["--config", name + ".json", "--out", "out", cmd]) for cmd in ("weights", "chain")]
    report["after_numpy_only"] = {LOADED}
    report["ode"] = main(["--out", "out", "ode"])
    report["spectral_kernel"] = main(["--config", "spectral.json", "--out", "out", "kernel"])
    report["after_all"] = {LOADED}
print(json.dumps(report))
"""
    report = run_fresh(code, tmp_path)
    assert report["numpy_only"] == [0, 0, 0, 0]
    assert [report[name] for name in potentials] == [[0, 0]] * len(potentials)
    assert report["after_numpy_only"] == {"scipy.integrate": False, "scipy.linalg": False}
    # the deferred imports ran from a cold process
    assert report["ode"] == 0
    assert report["spectral_kernel"] == 0
    assert report["after_all"] == {"scipy.integrate": True, "scipy.linalg": True}



def test_acceptance_import_loads_no_scipy_integrate(tmp_path):
    code = f"import json, sys\nimport heatkernel.acceptance\nprint(json.dumps({LOADED}))"
    assert run_fresh(code, tmp_path)["scipy.integrate"] is False
