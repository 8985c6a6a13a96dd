import csv
import io
import json
import math
import struct

import numpy as np
import pytest

from heatkernel import PolynomialPotential, QuadraticCoeffs, quadratic_kernel
from heatkernel.cli import main
from heatkernel.csvout import CHUNK_ROWS, SAMPLE, emit_csv


def write_config(tmp_path, **overrides):
    cfg = {
        "potential": {"kind": "polynomial", "coefficients": [0.0, 0.0, 1.0], "dimension": 1},
        "engine": "explicit",
        "grid": {"x": [-1.0, 1.0, 3], "y": [-1.0, 1.0, 3], "t": [0.1, 0.5, 2]},
        "envelopes": [{"family": "avg_upper", "beta": 0.9}],
        "weights": {"rh_q": 1.5, "ap_p": 2.0, "window_center": 0.0, "window_side": 2.0, "depth": 6},
        "ode": {"t0": 0.05, "t1": 0.5, "samples": 20},
        "chain": {"x": 0.0, "y": 1.0, "t": 1.0},
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def columns_of(rows, width):
    """The columns of a list of rows, as emit_csv takes them."""
    return [[row[j] for row in rows] for j in range(width)]


def test_emit_csv_empty_and_counts(tmp_path):
    path = emit_csv([[], []], ["a", "b"], tmp_path / "empty.csv", "run=1")
    lines = path.read_text().splitlines()
    assert lines == ["# run=1", "a,b"]
    columns = [[float(i) for i in range(18)], [float(i * i) for i in range(18)]]
    path2 = emit_csv(columns, ["x", "x2"], tmp_path / "grid.csv")
    assert len(path2.read_text().splitlines()) == 19


def test_emit_csv_deterministic(tmp_path):
    columns = [[1 / 3, math.pi], [2.0**-40, math.e]]
    a = emit_csv(columns, ["u", "v"], tmp_path / "a.csv", "p")
    b = emit_csv(columns, ["u", "v"], tmp_path / "b.csv", "p")
    assert a.read_bytes() == b.read_bytes()
    assert "0.33333333333333331" in a.read_text()


def reference_csv(rows, schema, provenance=""):
    """The writer's rule spelt out with csv.writer: floats %.17g, the rest str, LF endings."""
    buf = io.StringIO()
    if provenance:
        buf.write(f"# {provenance}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(schema)
    writer.writerows([f"{v:.17g}" if isinstance(v, float) else str(v) for v in row] for row in rows)
    return buf.getvalue().encode()


SPECIAL_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 2.0**-1074, -2.2e-308, 1 / 3, 1e300]
TEXTS = ["plain", "a,b", 'say "hi"', "cr\rhere", "line\nbreak", ""]


def test_emit_csv_matches_csv_writer_byte_for_byte(tmp_path):
    long_run = [(i, i / 7.0, "row") for i in range(2 * CHUNK_ROWS + 5)]
    long_run[CHUNK_ROWS + 9] = (CHUNK_ROWS + 9, 0.5, "needs,quotes")  # one quoted row in a chunk
    rows = (
        [(v, -v, "x") for v in SPECIAL_FLOATS]
        + [(10**30, True, np.float64(0.1)), (-(2**63), False, np.float64(-0.0)), (np.int64(-7), np.int64(2**62), 0.25)]
        + [(t, 1.5, t) for t in TEXTS]
        + long_run
        + [(np.float32(0.1), None, 2.0**-1074), ("text", 3, -math.inf)]
    )
    path = emit_csv(columns_of(rows, 3), ["a", "b", "c"], tmp_path / "mixed.csv", "config=abc M=3")
    assert path.read_bytes() == reference_csv(rows, ["a", "b", "c"], "config=abc M=3")
    single = [("plain",), ("",)] + [(v,) for v in SPECIAL_FLOATS]  # a lone empty field is quoted
    path = emit_csv(columns_of(single, 1), ["only"], tmp_path / "single.csv")
    assert path.read_bytes() == reference_csv(single, ["only"])
    # float columns that repeat values, formatted once per distinct value: 0.0 and
    # -0.0 compare equal, and nans of any sign, payload or identity print as nan.
    # Each chunk's first SAMPLE values decide: `later` is distinct there and
    # repeats after it, `sooner` the other way round, in both chunks.
    n = 2 * CHUNK_ROWS + 5
    specials = SPECIAL_FLOATS + [float("nan"), -math.nan, struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000001))[0]]
    mixed = [specials[i % len(specials)] for i in range(n)]
    later = [i / 7.0 if i % CHUNK_ROWS < SAMPLE else specials[i % 3] for i in range(n)]
    sooner = [-0.0 if i % CHUNK_ROWS < SAMPLE else i / 7.0 for i in range(n)]
    grid = np.repeat(np.linspace(-2.0, 2.0, 13), 8)[np.arange(n) % 104]  # an ndarray, as `kernel` writes its axes
    repeated = list(zip(mixed, later, sooner, grid.tolist()))
    path = emit_csv([mixed, later, sooner, grid], ["a", "b", "c", "d"], tmp_path / "repeated.csv", "M=3")
    assert path.read_bytes() == reference_csv(repeated, ["a", "b", "c", "d"], "M=3")


def test_emit_csv_takes_ndarray_and_range_columns(tmp_path):
    n = 2 * CHUNK_ROWS + 3
    xs = np.linspace(-1.0, 1.0, n)
    xs[: len(SPECIAL_FLOATS)] = SPECIAL_FLOATS
    ys = xs[::-1]  # a strided view
    path = emit_csv([range(n), xs, ys, ["w"] * n], ["i", "x", "y", "w"], tmp_path / "arrays.csv", "M=3")
    rows = list(zip(range(n), xs.tolist(), ys.tolist(), ["w"] * n))
    assert path.read_bytes() == reference_csv(rows, ["i", "x", "y", "w"], "M=3")


@pytest.mark.parametrize(
    "columns",
    [
        [[1.0], []],
        [[1.0, 2.0], [1.0, 2.0, 3.0]],
        [range(CHUNK_ROWS + 1), np.zeros(CHUNK_ROWS)],
        [[1.0]],  # one column for a schema of two
    ],
)
def test_emit_csv_refuses_columns_that_do_not_fit_the_schema(tmp_path, columns):
    with pytest.raises(ValueError, match="column"):
        emit_csv(columns, ["a", "b"], tmp_path / "bad.csv")
    assert not (tmp_path / "bad.csv").exists()


def test_kernel_subcommand_row_count(tmp_path, capsys):
    cfg = write_config(tmp_path)
    rc = main(["--config", str(cfg), "--out", str(tmp_path / "out"), "kernel"])
    assert rc == 0
    lines = (tmp_path / "out" / "kernel.csv").read_text().splitlines()
    assert lines[1] == "x,y,t,log_p,p"
    assert len(lines) == 2 + 3 * 3 * 2  # provenance + header + rows


def test_p_column_exponentiation():
    from heatkernel.cli import _p

    assert _p(-math.inf) == 0.0
    assert _p(-800.0) == 0.0
    assert _p(0.0) == 1.0
    assert _p(800.0) == math.inf


def test_kernel_rerun_byte_identical(tmp_path):
    cfg = write_config(tmp_path)
    main(["--config", str(cfg), "--out", str(tmp_path / "o1"), "kernel"])
    main(["--config", str(cfg), "--out", str(tmp_path / "o2"), "kernel"])
    assert (tmp_path / "o1" / "kernel.csv").read_bytes() == (tmp_path / "o2" / "kernel.csv").read_bytes()


def test_explicit_engine_rejects_nonquadratic(tmp_path, capsys):
    cfg = write_config(
        tmp_path, potential={"kind": "power", "exponent": 1.0, "dimension": 1}
    )
    rc = main(["--config", str(cfg), "--out", str(tmp_path / "out"), "kernel"])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_bad_json_reports_line(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"engine": "explicit",\n  bad key\n}')
    rc = main(["--config", str(path), "--out", str(tmp_path / "out"), "kernel"])
    assert rc == 2
    assert "line 2" in capsys.readouterr().err


def test_chain_subcommand_reports_m(tmp_path, capsys):
    cfg = write_config(tmp_path)
    rc = main(["--config", str(cfg), "--out", str(tmp_path / "out"), "chain"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "M=257" in out
    waypoints = (tmp_path / "out" / "chain_waypoints.csv").read_text().splitlines()
    assert len(waypoints) == 2 + 258


def test_chain_length_cap_exits_2_before_any_plan(tmp_path, monkeypatch, capsys):
    import numpy as np

    from heatkernel import MAX_CHAIN_M, ParameterError, bounds, chain_length, cli

    def no_alloc(*args, **kwargs):
        raise AssertionError("allocated a chain above the cap")

    # M = floor(256 * 3000^2 / 0.001) + 1, about 2.3e12 links
    cfg = write_config(tmp_path, chain={"x": 0.0, "y": 3000.0, "t": 0.001})
    with monkeypatch.context() as m:
        m.setattr(cli, "chain_plan", no_alloc)
        assert main(["--config", str(cfg), "--out", str(tmp_path / "out"), "chain"]) == 2
        err = capsys.readouterr().err
        assert "config error: chain.y is too far from chain.x for chain.t=0.001: " in err
        assert f"the chain needs M = 2.304e+12 links, above the cap of {MAX_CHAIN_M}" in err
        assert not list((tmp_path / "out").glob("*.csv"))
        # the library refuses it as well, before the waypoints
        m.setattr(np, "linspace", no_alloc)
        with pytest.raises(ParameterError, match="M = 2.304e"):
            bounds.chain_plan(0.0, 3000.0, 0.001)
    # the cap itself is allowed, one link more is not
    assert chain_length(0.0, 999.9995, 256.0) == MAX_CHAIN_M
    with pytest.raises(ParameterError, match="above the cap"):
        chain_length(0.0, 1000.0, 256.0)
    assert main(["--config", str(write_config(tmp_path)), "--out", str(tmp_path / "out"), "chain"]) == 0


def test_weights_subcommand(tmp_path, capsys):
    cfg = write_config(tmp_path)
    rc = main(["--config", str(cfg), "--out", str(tmp_path / "out"), "weights"])
    assert rc == 0
    trace = (tmp_path / "out" / "weight_trace.csv").read_text().splitlines()
    assert trace[1] == "kind,exponent,side,ratio"
    assert len(trace) > 10
    assert "doubling" in capsys.readouterr().out


def test_ode_subcommand(tmp_path, capsys):
    cfg = write_config(tmp_path)
    rc = main(["--config", str(cfg), "--out", str(tmp_path / "out"), "ode"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "max_closed_form_error" in out
    err = float(out.split("max_closed_form_error=")[1].split()[0])
    assert err < 1e-7


def test_ode_log_phi_is_the_configured_kernel(tmp_path):
    # the ansatz runs at a0 = 0; the shift identity puts a0 back into log_phi = log p(0, 0, t)
    potential = {"kind": "polynomial", "coefficients": [1.0, 0.0, 1.0], "dimension": 1}
    cfg = write_config(tmp_path, potential=potential)
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out"), "ode"]) == 0
    lines = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()[1:]
    rows = list(csv.DictReader(lines))
    assert len(rows) == 20
    c = QuadraticCoeffs(1.0, 0.0, 1.0)
    for row in rows:
        t = float(row["t"])
        assert abs(float(row["log_phi"]) - quadratic_kernel(c, 0.0, 0.0, t)) <= 1e-4


def test_bounds_subcommand_feasible(tmp_path, capsys):
    cfg = write_config(tmp_path)
    rc = main(["--config", str(cfg), "--out", str(tmp_path / "out"), "bounds"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "avg_upper: FEASIBLE" in out
    assert (tmp_path / "out" / "bound_verdicts.csv").exists()
    assert (tmp_path / "out" / "bound_slacks.csv").exists()


def test_spectral_engine(tmp_path):
    cfg = write_config(
        tmp_path,
        engine="spectral",
        spectral={"half_width": 4.0, "points": 401},
        grid={"x": [-1.0, 1.0, 2], "y": [-1.0, 1.0, 2], "t": [0.1, 0.5, 2]},
    )
    rc = main(["--config", str(cfg), "--out", str(tmp_path / "out"), "kernel"])
    assert rc == 0
    text = (tmp_path / "out" / "kernel.csv").read_text()
    assert "engine=spectral" in text.splitlines()[0]


def test_tabulated_from_csv(tmp_path):
    table = tmp_path / "table.csv"
    table.write_text("coordinate,value\n" + "\n".join(f"{x},{x*x}" for x in [-1, -0.5, 0, 0.5, 1]))
    from heatkernel.config import load_tabulated_csv

    V = load_tabulated_csv(table)
    assert V(0.5) == pytest.approx(0.25)


def test_shipped_config_matches_builtin():
    from pathlib import Path

    from heatkernel.config import DEFAULT_CONFIG

    shipped = json.loads((Path(__file__).parent.parent / "configs" / "default.json").read_text())
    assert shipped == DEFAULT_CONFIG


@pytest.mark.parametrize(
    "overrides, command, where",
    [
        ({"potential": {"kind": "polynomial", "coefficients": [0.0, math.nan, 1.0]}}, "kernel", "potential.coefficients[1]"),
        ({"chain": {"x": 0.0, "y": math.inf, "t": 1.0}}, "chain", "chain.y"),
        ({"grid": {"x": [-1.0, 1.0, 3], "y": [-1.0, 1.0, 3], "t": [0.1, -math.inf, 2]}}, "bounds", "grid.t[1]"),
    ],
)
def test_nonfinite_config_numbers_exit_2(tmp_path, capsys, overrides, command, where):
    cfg = write_config(tmp_path, **overrides)
    assert "NaN" in cfg.read_text() or "Infinity" in cfg.read_text()
    rc = main(["--config", str(cfg), "--out", str(tmp_path / "out"), command])
    assert rc == 2
    assert f"config error: {where} must be a finite number" in capsys.readouterr().err
    assert not list((tmp_path / "out").glob("*.csv"))


@pytest.mark.parametrize(
    "engine, spectral, message",
    [
        ("ode", None, "unknown engine 'ode'; known: explicit, spectral"),
        ("spectral", {"half_width": 8.0, "points": 2}, "spectral.points must be an integer in [3, 11000]"),
        ("spectral", {"half_width": -1.0, "points": 401}, "spectral.half_width must be a number > 0"),
        ("spectral", {"half_width": 8.0, "points": "abc"}, "spectral.points must be an integer in [3, 11000]"),
    ],
)
def test_bad_engine_config_exits_2(tmp_path, capsys, engine, spectral, message):
    cfg = write_config(tmp_path, engine=engine, **({"spectral": spectral} if spectral else {}))
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out"), "kernel"]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not list((tmp_path / "out").glob("*.csv"))


@pytest.mark.parametrize(
    "command, section, entry, message",
    [
        ("weights", "weights", {"depth": "abc"}, "weights.depth must be an integer in [3, 20], got 'abc'"),
        ("weights", "weights", {"depth": 40}, "weights.depth must be an integer in [3, 20], got 40"),
        ("weights", "weights", {"window_side": 0}, "weights.window_side must be a number > 0, got 0"),
        ("weights", "weights", {"rh_q": "2.0"}, "weights.rh_q must be a number > 1, got '2.0'"),
        ("ode", "ode", {"samples": "x"}, "ode.samples must be an integer >= 2, got 'x'"),
        ("ode", "tolerances", {"rel": "x"}, "tolerances.rel must be a number > 0, got 'x'"),
        ("chain", "chain", {"t": "x"}, "chain.t must be a number > 0, got 'x'"),
        ("chain", "chain", {"t": -1}, "chain.t must be a number > 0, got -1"),
        ("chain", "chain", {"sigma": True}, "chain.sigma must be a number in (0, 1), got True"),
        ("kernel", "potential", {"dimension": "x"}, "potential.dimension must be 1, got 'x'"),
        ("kernel", "potential", {"dimension": 2}, "potential.dimension must be 1, got 2"),
        ("bounds", "envelopes", [{"family": "avg_upper", "beta": "x"}], "envelopes[0].beta must be a number, got 'x'"),
        (
            "bounds",
            "envelopes",
            [{"family": "avg_upper", "beta": 0.9}, {"family": "dirichlet_interval", "epsilon": 0.5, "C": 0.5}],
            "envelopes[1].C cannot be set: bounds fits it",
        ),
        ("ode", "ode", {"t0": 2.0, "t1": 1.0}, "ode.t0 must be < ode.t1, got 2.0 >= 1.0"),
        ("ode", "ode", {"t0": 0}, "ode.t0 must be a number > 0, got 0"),
        ("weights", "weights", {"rh_q": 0.5}, "weights.rh_q must be a number > 1, got 0.5"),
        ("weights", "weights", {"ap_p": 1.0}, "weights.ap_p must be a number > 1, got 1.0"),
        ("bounds", "envelopes", [{"family": "avg_upper"}], "envelopes[0].beta is required for family avg_upper"),
        (
            "bounds",
            "envelopes",
            [{"family": "avg_upper", "beta": 0.9}, {"family": "symmetrized_upper", "kappa": 0.5}],
            "envelopes[1].beta is required for family symmetrized_upper",
        ),
        (
            "bounds",
            "envelopes",
            [{"family": "dirichlet_interval"}],
            "envelopes[0].epsilon is required for family dirichlet_interval",
        ),
        (
            "bounds",
            "envelopes",
            [{"family": "dirichlet_ball", "n": 2}],
            "envelopes[0].epsilon is required for family dirichlet_ball",
        ),
        ("chain", "chain", {"sigma": 1.5}, "chain.sigma must be a number in (0, 1), got 1.5"),
        ("chain", "chain", {"c1": -1}, "chain.c1 must be a number > 0, got -1"),
        ("chain", "chain", {"c0": 0}, "chain.c0 must be a number > 0, got 0"),
        # at (0, 1, 1) adjacent cubes need sigma < 1/8 - 1/sqrt(257)
        (
            "chain",
            "chain",
            {"x": 0.0, "y": 1.0, "t": 1.0, "sigma": 0.1},
            "chain.sigma must be < 0.0626217 here (the adjacent-cube condition), got 0.1",
        ),
        ("kernel", "grid", {"x": [-1.0, 1.0, 0]}, "grid.x count must be an integer >= 1, got 0"),
        ("bounds", "grid", {"y": [-1.0, 1.0, -2]}, "grid.y count must be an integer >= 1, got -2"),
        ("kernel", "grid", {"t": [0.1, 0.5, True]}, "grid.t count must be an integer >= 1, got True"),
        ("kernel", "grid", {"x": ["a", 1.0]}, "grid.x[0] must be a number, got 'a'"),
        ("bounds", "grid", {"t": [0.5, None]}, "grid.t[1] must be a number, got None"),
        ("kernel", "grid", {"t": [True]}, "grid.t[0] must be a number, got True"),
        ("kernel", "grid", {"y": [-1.0, "1", 3]}, "grid.y[1] must be a number, got '1'"),
        ("kernel", "grid", 5, "grid must be an object, got 5"),
        ("kernel", "potential", 5, "potential must be an object, got 5"),
        ("kernel", "potential", {"coefficients": [True, 0, 1]}, "potential.coefficients[0] must be a number, got True"),
        ("weights", "potential", {"kind": "power", "exponent": True}, "potential.exponent must be a number, got True"),
        (
            "weights",
            "potential",
            {"kind": "sum", "parts": [{"kind": "constant", "value": 1.0}, {"kind": "power", "exponent": "2"}]},
            "potential.parts[1].exponent must be a number, got '2'",
        ),
        ("bounds", "envelopes", 5, "envelopes must be a list, got 5"),
        ("bounds", "envelopes", [5], "envelopes[0] must be an object, got 5"),
    ],
)
def test_bad_config_values_exit_2(tmp_path, capsys, command, section, entry, message):
    base = json.loads(write_config(tmp_path).read_text()).get(section, {})
    cfg = write_config(tmp_path, **{section: {**base, **entry} if isinstance(entry, dict) else entry})
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out"), command]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not list((tmp_path / "out").glob("*.csv"))


def test_spectral_grid_is_read_before_the_build(tmp_path, monkeypatch):
    from heatkernel import build_spectral, cli

    spectral = {"half_width": 4.0, "points": 401}
    cfg = json.loads(write_config(tmp_path, engine="spectral", spectral=spectral).read_text())
    del cfg["grid"]
    (tmp_path / "nogrid.json").write_text(json.dumps(cfg))

    def no_build(*args):
        raise AssertionError("built before the grid was read")

    with monkeypatch.context() as m:
        m.setattr(cli, "build_spectral", no_build)
        assert main(["--config", str(tmp_path / "nogrid.json"), "--out", str(tmp_path / "o1"), "kernel"]) == 2
    # the provenance reports the modes kept at the earliest grid time, wherever it is listed
    grid = {"x": [0.0], "y": [0.0], "t": [0.5, 1.0, 0.05]}
    cfg = write_config(tmp_path, engine="spectral", spectral=spectral, grid=grid)
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o2"), "kernel"]) == 0
    K = build_spectral(PolynomialPotential([0.0, 0.0, 1.0]), 4.0, 401, 0.05)
    assert K.mode_count(0.05) != K.mode_count(0.5)
    first = (tmp_path / "o2" / "kernel.csv").read_text().splitlines()[0]
    assert f" modes={K.mode_count(0.05)} " in first


def test_spectral_memory_cap_exits_2_before_any_eigenvector_solve(tmp_path, monkeypatch, capsys):
    from heatkernel import spectral

    real = spectral._lowest_modes

    def no_eigenvector_solve(*args):
        raise AssertionError("an eigenvector solve ran above the memory cap")

    monkeypatch.setattr(spectral, "_lowest_modes", no_eigenvector_solve)
    # the build peaks near 8 m k bytes, and k reaches m when t_min is small:
    # 40001 points could need an m x m eigenvector array of 12.8 GB
    cfg = write_config(tmp_path, engine="spectral", spectral={"half_width": 8.0, "points": 40001})
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out"), "kernel"]) == 2
    err = capsys.readouterr().err
    assert "config error: spectral.points must be an integer in [3, 11000], got 40001" in err
    assert not list((tmp_path / "out").glob("*.csv"))
    # a config under the cap builds
    monkeypatch.setattr(spectral, "_lowest_modes", real)
    cfg = write_config(tmp_path, engine="spectral", spectral={"half_width": 8.0, "points": 401})
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out"), "kernel"]) == 0


def test_grid_cap_exits_2_before_any_axis_is_built(tmp_path, monkeypatch, capsys):
    import numpy as np

    from heatkernel import cli

    def no_eval(*args, **kwargs):
        raise AssertionError("built a grid above the cap")

    # 1e9 points: 8 GB for each [t, x, y] array
    grid = {"x": [0.0, 1.0, 1000], "y": [0.0, 1.0, 1000], "t": [0.1, 1.0, 1000]}
    for engine, command in (("explicit", "kernel"), ("explicit", "bounds"), ("spectral", "kernel")):
        cfg = write_config(tmp_path, engine=engine, grid=grid)
        with monkeypatch.context() as m:
            for name in ("grid_samples", "grid_points", "build_spectral"):
                m.setattr(cli, name, no_eval)
            m.setattr(np, "linspace", no_eval)
            assert main(["--config", str(cfg), "--out", str(tmp_path / "out"), command]) == 2
        err = capsys.readouterr().err
        assert "config error: grid has 1000x1000x1000 = 1000000000 points, above the cap of 1000000" in err
        assert not list((tmp_path / "out").glob("*.csv"))


def test_grid_cap_edge():
    import numpy as np

    from heatkernel.config import MAX_GRID_POINTS, grid_from_config
    from heatkernel.errors import ConfigError

    assert MAX_GRID_POINTS == 1_000_000
    xs, ys, ts = grid_from_config({"grid": {"x": [0.0, 1.0, 100], "y": [0.0, 1.0, 100], "t": [0.1, 1.0, 100]}})
    assert len(xs) * len(ys) * len(ts) == MAX_GRID_POINTS
    # one point more, 101 x 9901 x 1, with a plain-list x axis and t axis
    over = {"x": np.linspace(0.0, 1.0, 101).tolist(), "y": [0.0, 1.0, 9901], "t": [0.5]}
    with pytest.raises(ConfigError, match=r"grid has 101x9901x1 = 1000001 points, above the cap of 1000000"):
        grid_from_config({"grid": over})


def test_grid_axis_count_is_parsed_or_refused():
    from heatkernel.config import grid_from_config
    from heatkernel.errors import ConfigError

    xs, ys, ts = grid_from_config({"grid": {"x": [-1, 1, 3], "y": [-1.0, 1.0, 3.0], "t": [0.1, 1, 1]}})
    assert xs.tolist() == [-1.0, 0.0, 1.0]  # [lo, hi, count]
    assert ys.tolist() == [-1.0, 1.0, 3.0]  # a float last entry: three values
    assert ts.tolist() == [0.1]
    for name, count in [("x", 0), ("y", -2), ("t", True), ("t", False)]:
        grid = {"x": [-1, 1, 3], "y": [-1, 1, 3], "t": [0.1, 1, 2], name: [0.1, 1, count]}
        with pytest.raises(ConfigError, match=rf"^grid\.{name} count must be an integer >= 1, got {count!r}$"):
            grid_from_config({"grid": grid})



@pytest.mark.parametrize(
    "envelopes, message",
    [
        (
            [{"family": "avg_upper", "beta": 0.9, "n": 2}],
            "envelopes[0].n cannot be set: the dimension is the potential's",
        ),
        (
            [{"family": "avg_upper", "beta": 0.9}, {"family": "dirichlet_ball", "epsilon": 0.5}],
            "envelopes[1].family dirichlet_ball needs dimension >= 2, got 1",
        ),
    ],
)
def test_envelope_dimension_comes_from_the_potential(tmp_path, capsys, envelopes, message):
    cfg = write_config(tmp_path, envelopes=envelopes)
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out"), "bounds"]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not list((tmp_path / "out").glob("*.csv"))
