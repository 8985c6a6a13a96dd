import csv
import io
import json
import math
import struct
from pathlib import Path

import numpy as np
import pytest

from heatkernel import PolynomialPotential, QuadraticCoeffs, cli, quadratic_kernel
from heatkernel.cli import main
from heatkernel.config import DEFAULT_CONFIG, resolve
from heatkernel.csvout import CHUNK_ROWS, emit_csv
from heatkernel.errors import ConfigError, IntegrationError

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

def config_dict(**overrides):
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
    return cfg


def write_config(tmp_path, **overrides):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config_dict(**overrides)))
    return path


def assert_resolve_refuses(overrides, err):
    """resolve refuses the config given as a dict with the message main printed for it as a file."""
    with pytest.raises(ConfigError) as info:
        resolve(config_dict(**overrides))
    assert err == f"config error: {info.value}\n"


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
    # text that needs no quoting, UTF-8 beyond ASCII included (a NUL is refused: tests/test_csvout.py)
    rows = list(zip(["naïve ∂x", "plain", "ünï"], [1.5, -0.25, 3.0], range(3)))
    path = emit_csv(columns_of(rows, 3), ["a", "b", "c"], tmp_path / "texts.csv")
    assert path.read_bytes() == reference_csv(rows, ["a", "b", "c"])
    # float64 arrays that repeat values, formatted once per distinct value: 0.0 and
    # -0.0 compare equal, and nans of any sign, payload or identity print as nan.
    # Each column's whole chunk decides: `later` is distinct in each chunk's first 256 rows and
    # repeats after them, so it is formatted per distinct value; `sooner` repeats in
    # its first 256 rows only, so it is formatted value by value.
    n = 2 * CHUNK_ROWS + 5
    specials = SPECIAL_FLOATS + [float("nan"), -math.nan, struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000001))[0]]
    mixed = [specials[i % len(specials)] for i in range(n)]
    later = [i / 7.0 if i % CHUNK_ROWS < 256 else specials[i % 3] for i in range(n)]
    sooner = [-0.0 if i % CHUNK_ROWS < 256 else i / 7.0 for i in range(n)]
    grid = np.repeat(np.linspace(-2.0, 2.0, 13), 8)[np.arange(n) % 104]  # an ndarray, as `kernel` writes its axes
    repeated = list(zip(mixed, later, sooner, grid.tolist()))
    path = emit_csv([*map(np.array, (mixed, later, sooner)), grid], ["a", "b", "c", "d"], tmp_path / "repeated.csv", "M=3")
    assert path.read_bytes() == reference_csv(repeated, ["a", "b", "c", "d"], "M=3")


def test_emit_csv_takes_ndarray_and_range_columns(tmp_path):
    n = 2 * CHUNK_ROWS + 3
    xs = np.linspace(-1.0, 1.0, n)
    xs[: len(SPECIAL_FLOATS)] = SPECIAL_FLOATS
    ys = xs[::-1]  # a strided view
    path = emit_csv([range(n), xs, ys, ["w"] * n], ["i", "x", "y", "w"], tmp_path / "arrays.csv", "M=3")
    rows = list(zip(range(n), xs.tolist(), ys.tolist(), ["w"] * n))
    assert path.read_bytes() == reference_csv(rows, ["i", "x", "y", "w"], "M=3")
    # only a float64 array takes the float path: other dtypes print value by value, as
    # their numpy scalars do in a list, whether or not the chunk holds text
    singles = np.array([0.1, -2.5, 1e-7], dtype=np.float32)
    for text in ([], [["w"] * 3]):
        path = emit_csv([singles, list(singles), range(-1, 2), *text], ["a", "b", "i", "w"][: 3 + len(text)], tmp_path / "f32.csv")
        assert path.read_text().splitlines()[1:] == [f"{v},{v},{i}" + ",w" * len(text) for i, v in enumerate(["0.1", "-2.5", "1e-07"], -1)]


def test_chain_csv_over_three_chunks_matches_csv_writer(tmp_path):
    from heatkernel.bounds import chain_plan
    from heatkernel.potentials import cube_averages

    x, y, t = -0.3, 1.6762, 0.1  # M = floor(256 |y - x|^2 / t) + 1 = 10000
    cfg = write_config(tmp_path, potential={"kind": "polynomial", "coefficients": [0.5, -0.7, 1.3]}, chain={"x": x, "y": y, "t": t})
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out"), "chain"]) == 0
    plan = chain_plan(x, y, t)
    assert 2 * CHUNK_ROWS < plan.M + 1 <= 3 * CHUNK_ROWS
    xs = plan.waypoints
    avgs = cube_averages(PolynomialPotential([0.5, -0.7, 1.3]), xs, plan.cube_side)
    body = (tmp_path / "out" / "chain_waypoints.csv").read_bytes().split(b"\n", 1)[1]  # after the provenance line
    rows = list(zip(range(plan.M + 1), xs.tolist(), avgs.tolist()))
    assert body == reference_csv(rows, ["i", "x_i", "avg_V_cube_i"])


def test_closed_form_kernel_csv_with_tiny_p_matches_csv_writer(tmp_path):
    # far-apart points at short times: p falls below 1e-4, and the axes hold 0.0, so
    # values that %.17g writes in exponent notation take the one-at-a-time path
    axes = {"x": [-3.0, 3.0, 7], "y": [-3.0, 3.0, 7], "t": [0.02, 1.5, 5]}
    cfg = write_config(tmp_path, potential={"kind": "polynomial", "coefficients": [0.5, 0.2, 1.0]}, grid=axes)
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out"), "kernel"]) == 0
    c = QuadraticCoeffs(0.5, 0.2, 1.0)
    xs, ys, ts = (np.linspace(*axes[k]).tolist() for k in "xyt")
    rows = []
    for x in xs:
        for y in ys:
            for t in ts:
                lp = quadratic_kernel(c, x, y, t)
                rows.append((x, y, t, lp, 0.0 if lp < -745.0 else math.inf if lp > 709.0 else math.exp(lp)))
    assert sum(0.0 < p < 1e-4 for *_, p in rows) > 20 and 0.0 in xs
    body = (tmp_path / "out" / "kernel.csv").read_bytes().split(b"\n", 1)[1]  # after the provenance line
    assert body == reference_csv(rows, ["x", "y", "t", "log_p", "p"])


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
    from heatkernel.cli import _p_column

    p = _p_column(np.array([-math.inf, -800.0, 0.0, 800.0, math.inf, math.nan, -745.0, 709.0, 0.3]))
    assert p[:5].tolist() == [0.0, 0.0, 1.0, math.inf, math.inf]
    assert math.isnan(p[5])
    assert p[6:].tolist() == [math.exp(-745.0), math.exp(709.0), math.exp(0.3)]


def test_kernel_rerun_byte_identical(tmp_path):
    cfg = write_config(tmp_path)
    main(["--config", str(cfg), "--out", str(tmp_path / "o1"), "kernel"])
    main(["--config", str(cfg), "--out", str(tmp_path / "o2"), "kernel"])
    assert (tmp_path / "o1" / "kernel.csv").read_bytes() == (tmp_path / "o2" / "kernel.csv").read_bytes()


@pytest.mark.parametrize("config", [None, "tilted.json"], ids=["default", "tilted"])
@pytest.mark.parametrize("command", ["ode", "bounds"])
def test_ode_and_bounds_rerun_byte_identical(tmp_path, capsys, command, config):
    # acceptance c11 reruns only kernel, weights and chain; tilted.json has a1 != 0, so mu and nu are not 0
    args = [] if config is None else ["--config", str(CONFIGS / config)]
    runs = []
    for out in (tmp_path / "o1", tmp_path / "o2"):
        assert main([*args, "--out", str(out), command]) == 0
        runs.append({path.name: path.read_bytes() for path in sorted(out.glob("*.csv"))})
    assert runs[0] and runs[0] == runs[1]


def test_explicit_engine_rejects_nonquadratic(tmp_path, capsys):
    cfg = write_config(
        tmp_path, potential={"kind": "power", "exponent": 1.0, "dimension": 1}
    )
    rc = main(["--config", str(cfg), "--out", str(tmp_path / "out"), "kernel"])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["kernel", "bounds", "ode"])
def test_explicit_engine_reads_a_quadratic_written_with_trailing_zeros(tmp_path, command):
    runs = []
    for name, coefficients in (("plain", [0, 0, 1]), ("padded", [0, 0, 1, 0])):
        cfg = write_config(tmp_path, potential={"kind": "polynomial", "coefficients": coefficients})
        assert main(["--config", str(cfg), "--out", str(tmp_path / name), command]) == 0
        run_hash = resolve(json.loads(cfg.read_text()))["hash"]
        runs.append({p.name: p.read_text().replace(run_hash, "") for p in sorted((tmp_path / name).glob("*.csv"))})
    assert runs[0] and runs[0] == runs[1]


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


def test_resolve_checks_chain_sigma_without_the_traced_chain_plan(tmp_path, monkeypatch, capsys):
    from heatkernel import bounds, cli

    def traced_only(*args, **kwargs):
        raise AssertionError("resolve called chain_plan")

    monkeypatch.setattr(bounds, "chain_plan", traced_only)
    monkeypatch.setattr(cli, "chain_plan", traced_only)
    ok = write_config(tmp_path, chain={"x": 0.0, "y": 1.0, "t": 1.0, "sigma": 0.0625})
    assert main(["--config", str(ok), "--out", str(tmp_path / "out"), "kernel"]) == 0
    bad = write_config(tmp_path, chain={"x": 0.0, "y": 1.0, "t": 1.0, "sigma": 0.1})
    assert main(["--config", str(bad), "--out", str(tmp_path / "out"), "kernel"]) == 2
    message = "chain.sigma must be < 0.0626217 here (the adjacent-cube condition), got 0.1"
    assert f"config error: {message}" in capsys.readouterr().err


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


@pytest.mark.parametrize("bad_row, line", [("0.5,nan", 7), ("0.5,inf", 7), ("inf,0.25", 7), ("-1.0,-inf", 2)])
@pytest.mark.parametrize("command", ["weights", "chain"])
def test_tabulated_csv_with_a_nonfinite_entry_exits_2(tmp_path, monkeypatch, capsys, bad_row, line, command):
    from heatkernel import potentials

    def no_integral(*args):
        raise AssertionError("integrated a table with a non-finite entry")

    rows = [f"{x!r},{x * x!r}" for x in np.linspace(-1.0, 1.0, 9).tolist()]
    rows[line - 2] = bad_row  # after the header on line 1
    table = tmp_path / "table.csv"
    table.write_text("coordinate,value\n" + "\n".join(rows) + "\n")
    cfg = write_config(tmp_path, potential={"kind": "tabulated", "table": str(table)})
    monkeypatch.setattr(potentials, "interval_integral", no_integral)
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out"), command]) == 2
    message = f"config error: {table}: line {line}: coordinate and value must be finite, got {bad_row!r}"
    assert message in capsys.readouterr().err
    assert not list((tmp_path / "out").glob("*.csv"))


def test_weights_reads_a_table_written_by_emit_csv_with_a_provenance_line(tmp_path):
    xs = np.linspace(-4.0, 4.0, 81)
    written = emit_csv([xs, 1.0 + xs * xs], ["coordinate", "value"], tmp_path / "written.csv", "provenance")
    assert written.read_text().startswith("# provenance\ncoordinate,value\n")
    bare = tmp_path / "bare.csv"  # the same samples under a header alone
    bare.write_text("coordinate,value\n" + "".join(f"{x!r},{1.0 + x * x!r}\n" for x in xs.tolist()))
    traces = []
    for table in (written, bare):
        cfg = write_config(tmp_path, potential={"kind": "tabulated", "table": str(table)})
        assert main(["--config", str(cfg), "--out", str(tmp_path / table.stem), "weights"]) == 0
        traces.append((tmp_path / table.stem / "weight_trace.csv").read_text().splitlines()[1:])
    assert traces[0] == traces[1] and len(traces[0]) > 1


@pytest.mark.parametrize(
    "text, line",
    [
        ("coordinate,value\n-1.0,1.0\n0,0.5,7\n1.0,1.0\n", 3),
        ("0,0.5,7\n-1.0,1.0\n1.0,1.0\n", 1),  # numbers, so not a header
        ("# a comment\n\ncoordinate,value\n-1.0,1.0\n0.5\n1.0,1.0\n", 5),
    ],
)
def test_a_table_row_of_other_than_two_fields_exits_2(tmp_path, capsys, text, line):
    table = tmp_path / "table.csv"
    table.write_text(text)
    cfg = write_config(tmp_path, potential={"kind": "tabulated", "table": str(table)})
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out"), "weights"]) == 2
    assert capsys.readouterr().err == f"config error: {table}: line {line}: expected 'coordinate,value'\n"
    assert not list((tmp_path / "out").glob("*.csv"))


@pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
def test_tabulated_potential_refuses_a_nonfinite_or_negative_value(value):
    from heatkernel import ParameterError, TabulatedPotential

    with pytest.raises(ParameterError, match="tabulated values must be finite and >= 0"):
        TabulatedPotential([0.0, 1.0, 2.0], [1.0, value, 1.0])


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
    err = capsys.readouterr().err
    assert f"config error: {where} must be a finite number" in err
    assert not list((tmp_path / "out").glob("*.csv"))
    assert_resolve_refuses(overrides, err)


@pytest.mark.parametrize(
    "engine, spectral, message",
    [
        ("ode", None, "unknown engine 'ode'; known: explicit, spectral"),
        ("spectral", {"half_width": 8.0, "points": 2}, "spectral.points must be an integer in [3, 11000]"),
        ("spectral", {"half_width": -1.0, "points": 401}, "spectral.half_width must be a number > 0"),
        ("spectral", {"half_width": 8.0, "points": "abc"}, "spectral.points must be an integer in [3, 11000]"),
        # 2/h^2 overflows; on the box's one grid node 0 this exited 1 with "non-finite entry"
        (
            "spectral",
            {"half_width": 1e-160, "points": 11},
            "spectral.half_width must make 2/h^2 = (points + 1)^2 / (2 half_width^2) finite, got 1e-160",
        ),
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
        ("ode", "ode", {"samples": "x"}, "ode.samples must be an integer in [2, 100000], got 'x'"),
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
            [{"family": "dirichlet_interval", "kappa": 0.5}],
            "envelopes[0].epsilon is required for family dirichlet_interval",
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
        ("ode", "ode", {"samples": 100_001}, "ode.samples must be an integer in [2, 100000], got 100001"),
        (
            "kernel",
            "potential",
            {
                "kind": "sum",
                "parts": [{"kind": "constant", "value": 1.0}, {"kind": "polynomial", "coefficients": [1.0] * 258}],
            },
            "potential.parts[1].coefficients has 258 entries, above the cap of 257",
        ),
        ("weights", "potential", {"kind": "constant", "value": -1}, "potential.value must be a number >= 0, got -1"),
        (
            "chain",
            "potential",
            {"kind": "sum", "parts": [{"kind": "power", "exponent": 2}, {"kind": "constant", "value": -0.5}]},
            "potential.parts[1].value must be a number >= 0, got -0.5",
        ),
        ("ode", "ode", {"t1": 1e5}, "ode.t1 must be a number in (0, 1e4], got 100000.0"),
        ("ode", "ode", {"t1": -1.0}, "ode.t1 must be a number in (0, 1e4], got -1.0"),
        ("bounds", "envelopes", [], "envelopes must be a non-empty list"),
        ("kernel", "grid", {"t": [1e-13, 0.5]}, "grid.t must be >= 1e-12 on the explicit engine, got 1e-13"),
        ("bounds", "grid", {"t": [0.5, 1e-13]}, "grid.t must be >= 1e-12 on the explicit engine, got 1e-13"),
        (
            "kernel",
            "potential",
            {"kind": "sum", "parts": [{"kind": "power", "exponent": 2, "dimension": 2}]},
            "potential.parts[0].dimension must be 1, got 2",
        ),
        (
            "weights",
            "potential",
            {"kind": "scaled", "factor": 2.0, "base": {"kind": "power", "exponent": 2, "dimension": "x"}},
            "potential.base.dimension must be 1, got 'x'",
        ),
        ("ode", "ode", {"t0": 1e-7}, "ode.t0 must be >= 1e-06, got 1e-07"),
    ],
)
def test_bad_config_values_exit_2(tmp_path, capsys, command, section, entry, message):
    base = json.loads(write_config(tmp_path).read_text()).get(section, {})
    cfg = write_config(tmp_path, **{section: {**base, **entry} if isinstance(entry, dict) else entry})
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out"), command]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not list((tmp_path / "out").glob("*.csv"))


def test_ode_runs_from_the_t0_floor(tmp_path, capsys):
    # at t0 = 1e-6 the trajectory still meets the closed form to 9.5e-7; 1e-12 read 0.34 and exited 1
    cfg = write_config(tmp_path, ode={"t0": 1e-6, "t1": 1.0, "samples": 20})
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out"), "ode"]) == 0
    assert "max_closed_form_error=9.5" in capsys.readouterr().out


def stop_integrating(*args, **kwargs):
    raise IntegrationError("integration reached")


@pytest.mark.parametrize(
    "a2, t0, t1",
    [(1e12, 1e-4, 2.0), (5.17e19, 5.5e-4, 1.49), (1e16, 0.01, 2.0), (1e8, 1e-4, 1.0)],
)
def test_ode_refuses_a_span_beyond_its_step_budget_before_integrating(tmp_path, monkeypatch, capsys, a2, t0, t1):
    # DOP853 steps about 1/sqrt(a2): the first two ran without end and the third took 0.75 s, while
    # sqrt(a2) t1 = 1e4, the run LIMITS grants at a2 = 1, is integrated
    monkeypatch.setattr(cli, "integrate_odes", stop_integrating)
    potential = {"kind": "polynomial", "coefficients": [0.0, 0.0, a2]}
    cfg = write_config(tmp_path, potential=potential, ode={"t0": t0, "t1": t1, "samples": 20})
    rc = main(["--config", str(cfg), "--out", str(tmp_path / "out"), "ode"])
    err = capsys.readouterr().err
    if math.sqrt(a2) * t1 > 1e4:
        assert rc == 2
        assert err == f"config error: ode.t1 must be <= 1e4 / sqrt(a2) = {1e4 / math.sqrt(a2):.6g} here, got {t1!r}\n"
    else:
        assert rc == 1 and "integration reached" in err
    assert not list((tmp_path / "out").glob("*.csv"))


@pytest.mark.parametrize("coeffs", [[1e-300, 0, 1e-300], [0, 0, 1e-250], [1, 0, 4e205], [3e299, 1e200, 1e100]])
def test_closed_form_commands_take_extreme_nonnegative_quadratics(tmp_path, capsys, coeffs):
    # each exited 1 naming no key, as a1^2 / 4 a2^{3/2} overflowed or divided by an underflowed power of a2
    potential = {"kind": "polynomial", "coefficients": coeffs}
    defaults = {key: DEFAULT_CONFIG[key] for key in ("grid", "envelopes")}
    cfg = write_config(tmp_path, potential=potential, **defaults)
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "kernel"]) == 0
    assert np.all(np.isfinite(np.loadtxt(out / "kernel.csv", delimiter=",", skiprows=2, usecols=3)))
    capsys.readouterr()
    main(["--config", str(cfg), "--out", str(out), "bounds"])  # exit 0 or 1 by the verdict
    captured = capsys.readouterr()
    verdicts = [line for line in captured.out.splitlines() if "FEASIBLE" in line]
    assert len(verdicts) == len(DEFAULT_CONFIG["envelopes"]) + 1 and verdicts[-1].startswith("sandwich: ")
    assert "error:" not in captured.err
    rc = main(["--config", str(cfg), "--out", str(out), "ode"])
    err = capsys.readouterr().err
    if math.sqrt(coeffs[2]) * 0.5 > 1e4:  # write_config's ode.t1 is 0.5
        assert rc == 2 and err.startswith("config error: ode.t1 must be <= 1e4 / sqrt(a2)")
    else:
        assert rc == 0 and not err


@pytest.mark.parametrize(
    "command, overrides, message",
    [
        ("kernel", {"grd": {}}, "grd is not a known key"),
        ("kernel", {"grid": {"x": [0.0], "y": [0.0], "t": [1.0], "z": [0.0]}}, "grid.z is not a known key"),
        ("weights", {"weights": {"dept": 3}}, "weights.dept is not a known key"),
        ("chain", {"chain": {"x": 0.0, "y": 1.0, "t": 1.0, "sigmaa": 0.01}}, "chain.sigmaa is not a known key"),
        ("ode", {"ode": {"t0": 0.05, "t1": 0.5, "samples": 20, "t2": 1.0}}, "ode.t2 is not a known key"),
        ("kernel", {"spectral": {"points": 401, "width": 4.0}}, "spectral.width is not a known key"),
        ("ode", {"tolerances": {"abs": 1e-4}}, "tolerances.abs is not a known key"),
        (
            "weights",
            {"potential": {"kind": "power", "exponent": 2, "exponnet": 3}},
            "potential.exponnet is not a known key",
        ),
        (
            "chain",
            {"potential": {"kind": "sum", "parts": [{"kind": "constant", "value": 1.0, "coefficients": [1.0]}]}},
            "potential.parts[0].coefficients is not a known key",
        ),
        ("bounds", {"envelopes": [{"family": "quadratic_sharp", "beta": 0.5}]}, "envelopes[0].beta is not a known key"),
        (
            "bounds",
            {"envelopes": [{"family": "avg_lower_far"}, {"family": "avg_upper", "beta": 0.9, "kappa": 0.3}]},
            "envelopes[1].kappa is not a known key",
        ),
    ],
)
def test_unknown_keys_exit_2_before_any_work(tmp_path, monkeypatch, capsys, command, overrides, message):
    from heatkernel import cli

    def no_work(*args, **kwargs):
        raise AssertionError("work began before the config was checked")

    for name in ("build_spectral", "quadratic_log_kernel", "fit_constants", "rh_constant", "integrate_odes", "chain_plan"):
        monkeypatch.setattr(cli, name, no_work)
    cfg = write_config(tmp_path, **overrides)
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out"), command]) == 2
    err = capsys.readouterr().err
    assert f"config error: {message}" in err
    assert not list((tmp_path / "out").glob("*.csv"))
    assert_resolve_refuses(overrides, err)


GRID_1 = {"x": [-1.0, 1.0, 3], "y": [-1.0, 1.0, 3], "t": [0.1, 0.5, 2]}
NEGATIVE_NEAR_3 = np.polynomial.polynomial.polymul(np.polynomial.polynomial.polyfromroots([3.0, 3.0, 3.0, 3.001]), [1.0, 0.0, 1.0]).tolist()


@pytest.mark.parametrize(
    "command, overrides, message",
    [
        # each exited 1 from the numerics: a negative polynomial in doubling_fit, a power with
        # exponent <= -1 in doubling_fit, a singular power in the spectral build's discretization
        (
            "weights",
            {"potential": {"kind": "polynomial", "coefficients": [0, 2.9375, 0, 1]}},
            "potential.coefficients must give a polynomial >= 0 everywhere, got [0, 2.9375, 0, 1]",
        ),
        (
            "chain",
            {"potential": {"kind": "sum", "parts": [{"kind": "polynomial", "coefficients": [-1e-8, 0, 1]}]}},
            "potential.parts[0].coefficients must give a polynomial >= 0 everywhere, got [-1e-08, 0, 1]",
        ),
        (
            "weights",
            {"potential": {"kind": "power", "exponent": -1}},
            "potential.exponent must be > -1, got -1",
        ),
        (
            "chain",
            {"potential": {"kind": "scaled", "factor": 2.0, "base": {"kind": "power", "exponent": -2}}},
            "potential.base.exponent must be > -1, got -2",
        ),
        (
            "bounds",
            {"engine": "spectral", "grid": GRID_1, "potential": {"kind": "power", "exponent": -1.5}},
            "potential.exponent must be > -1, got -1.5",
        ),
        (
            "bounds",
            {
                "engine": "spectral",
                "grid": GRID_1,
                "potential": {
                    "kind": "sum",
                    "parts": [{"kind": "constant", "value": 1}, {"kind": "power", "exponent": -0.5}],
                },
            },
            "potential.parts[1].exponent must be >= 0 on the spectral engine, got -0.5",
        ),
        # (x - 3)^3 (x - 3.001) (1 + x^2), negative on (3, 3.001): its roots once read as one of order 4
        (
            "weights",
            {"potential": {"kind": "polynomial", "coefficients": NEGATIVE_NEAR_3}},
            f"potential.coefficients must give a polynomial >= 0 everywhere, got {NEGATIVE_NEAR_3}",
        ),
    ],
)
def test_a_potential_the_numerics_cannot_take_exits_2(tmp_path, capsys, command, overrides, message):
    cfg = write_config(tmp_path, **overrides)
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out"), command]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not list((tmp_path / "out").glob("*.csv"))


def write_zero_middle(tmp_path):
    """x^2 tabulated on [-2, 2], zeroed on [-0.5, 0.5]."""
    xs = np.linspace(-2.0, 2.0, 81).tolist()
    (tmp_path / "zero_middle.csv").write_text("".join(f"{x!r},{0.0 if abs(x) <= 0.5 else x * x!r}\n" for x in xs))


@pytest.mark.parametrize(
    "command, potential, bad",
    [
        ("weights", {"kind": "constant", "value": 0}, "0.0 on the cube of center 0.0 and side 2.0"),
        # the window has mass, its halvings from side 1 on have none
        ("weights", {"kind": "tabulated", "table": "zero_middle.csv"}, "0.0 on the cube of center 0.0 and side 1.0"),
    ],
)
def test_a_potential_without_mass_on_a_doubling_cube_exits_2(tmp_path, capsys, command, potential, bad):
    write_zero_middle(tmp_path)
    cfg = write_config(tmp_path, potential=potential)
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out"), command]) == 2
    message = f"config error: potential: doubling fit needs finite positive cube masses, got {bad}\n"
    assert capsys.readouterr().err == message
    assert not list((tmp_path / "out").glob("*.csv"))


@pytest.mark.parametrize(
    "potential, chain",
    [
        ({"kind": "constant", "value": 0}, {"x": 0.0, "y": 1.0, "t": 1.0}),
        # every link cube, the widest reaching 0.41, lies where the table is 0
        ({"kind": "tabulated", "table": "zero_middle.csv"}, {"x": 0.0, "y": 0.1, "t": 1.0}),
    ],
)
def test_a_chain_on_a_potential_without_mass_exits_0(tmp_path, capsys, potential, chain):
    from heatkernel import chain_plan
    from heatkernel.bounds import C0_LOWER

    write_zero_middle(tmp_path)
    cfg = write_config(tmp_path, potential=potential, chain=chain)
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out"), "chain"]) == 0
    plan = chain_plan(chain["x"], chain["y"], chain["t"])
    # the formula of test_chained_lower_bound_zero_potential at the default constants
    want = -math.log(plan.sigma) - 0.5 * math.log(plan.t) + 0.5 * math.log(plan.M)
    want += plan.M * math.log(plan.sigma * C0_LOWER)
    assert f" log_bound={want:.6g} c0={C0_LOWER:.6g} c1=1 (defaults)\n" in capsys.readouterr().out
    assert (tmp_path / "out" / "chain_waypoints.csv").exists()


TABLE_ON_2 = np.linspace(-2.0, 2.0, 81).tolist()


@pytest.mark.parametrize(
    "command, xs, overrides, outside",
    [
        # the spectral box [-8, 8] is wider than the table
        (
            "kernel",
            TABLE_ON_2,
            {"engine": "spectral", "spectral": {"half_width": 8.0, "points": 201}},
            "-7.920792079207921",
        ),
        # the weights window [-4, 4]
        ("weights", TABLE_ON_2, {"weights": {"window_side": 8.0}}, "-3.9896987769858208"),
        # chain cubes past y = 3
        ("chain", TABLE_ON_2, {"chain": {"x": 0.0, "y": 3.0, "t": 1.0}}, "2.0010847399069496"),
        # two rows on [0, 1] under the default window [-1, 1]
        ("weights", [0.0, 1.0], {}, "-0.9974246942464552"),
    ],
)
def test_a_run_that_leaves_the_table_exits_2_naming_the_point_and_the_range(
    tmp_path, capsys, command, xs, overrides, outside
):
    (tmp_path / "table.csv").write_text("".join(f"{x!r},{x * x!r}\n" for x in xs))
    cfg = write_config(tmp_path, potential={"kind": "tabulated", "table": "table.csv"}, **overrides)
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out"), command]) == 2
    printed = capsys.readouterr()
    assert printed.err == f"config error: potential: point {outside} outside tabulated domain [{xs[0]!r}, {xs[-1]!r}]\n"
    assert printed.out == ""  # no result line before the refusal
    assert not list((tmp_path / "out").glob("*.csv"))


def test_any_other_fault_exits_1_naming_its_type(tmp_path, monkeypatch, capsys):
    from heatkernel import cli

    def broken(*args):
        raise RuntimeError("no eigenpairs")

    monkeypatch.setattr(cli, "build_spectral", broken)
    cfg = write_config(tmp_path, engine="spectral")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out"), "kernel"]) == 1
    assert capsys.readouterr().err == "error: RuntimeError: no eigenpairs\n"
    assert not list((tmp_path / "out").glob("*.csv"))


@pytest.mark.parametrize(
    "coeffs, nonnegative",
    [
        ([0, 2.9375, 0, 1], False),  # odd degree
        ([-1, 0, 1], False),  # two simple roots
        ([-1], False),
        ([-1e-8, 0, 1], False),  # roots at +-1e-4
        ([0, 0, -1], False),  # negative leading coefficient
        ([0.25, -1, 1], True),  # (x - 1/2)^2
        ([0, 0, 1], True),
        ([1, 0, -2, 0, 1], True),  # (x^2 - 1)^2
        ([0], True),
        ([2.0, 0.0, 0.0], True),  # trailing zeros: a constant
    ],
)
def test_a_polynomial_must_be_nonnegative(coeffs, nonnegative):
    from heatkernel.config import potential_from_config

    spec = {"kind": "polynomial", "coefficients": coeffs}
    if nonnegative:
        assert potential_from_config(spec).coeffs == tuple(map(float, coeffs))
    else:
        with pytest.raises(ConfigError, match=r"^potential\.coefficients must give a polynomial >= 0 everywhere"):
            potential_from_config(spec)


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
    # the build peaks near 1.2 times its 8 m k-byte eigenvector array (4.0 times
    # before the solve wrote phi in place), and k reaches m when t_min is small:
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


@pytest.mark.parametrize(
    "grid, message",
    [
        (
            {"x": [-10.0, 0.0], "y": [0.0], "t": [0.5]},
            "grid.x has the point -10.0 outside [-spectral.half_width, spectral.half_width] = [-8.0, 8.0]",
        ),
        (
            {"x": [0.0], "y": [-1.0, 8.5, 3], "t": [0.5]},
            "grid.y has the point 8.5 outside [-spectral.half_width, spectral.half_width] = [-8.0, 8.0]",
        ),
        # 2001 + 1 distinct points: a P x P array per time slice
        (
            {"x": [-1.0, 1.0, 2001], "y": [5.0], "t": [0.5]},
            "grid.x and grid.y have 2002 distinct points, above the cap of 2000",
        ),
    ],
)
def test_spectral_grid_is_checked_before_any_eigen_solve(tmp_path, monkeypatch, capsys, grid, message):
    from heatkernel import cli, spectral

    def no_solve(*args):
        raise AssertionError("an eigen-solve ran for a grid the spectral engine cannot evaluate")

    monkeypatch.setattr(spectral, "_lowest_modes", no_solve)
    monkeypatch.setattr(cli, "build_spectral", no_solve)
    cfg = write_config(tmp_path, engine="spectral", spectral={"half_width": 8.0, "points": 401}, grid=grid)
    for command in ("kernel", "bounds"):
        assert main(["--config", str(cfg), "--out", str(tmp_path / "out"), command]) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not list((tmp_path / "out").glob("*.csv"))


def test_spectral_grid_and_coefficient_caps_edges():
    from heatkernel.config import MAX_COEFFICIENTS, MAX_SPECTRAL_POINTS, grid_from_config, potential_from_config
    from heatkernel.errors import ConfigError

    def spectral_grid(x, y):
        return grid_from_config({"engine": "spectral", "grid": {"x": x, "y": y, "t": [0.5]}}, 8.0)

    # a 1000x1000 grid with no shared value, and points on the walls, pass
    assert MAX_SPECTRAL_POINTS == 2000
    assert [axis.tolist() for axis in spectral_grid([0.0], [0.0])] == [[0.0], [0.0], [0.5]]
    spectral_grid([-8.0, 0.0, 1000], [0.5, 8.0, 1000])
    with pytest.raises(ConfigError, match="grid.y has the point 8.0000001 outside"):
        spectral_grid([0.0], [8.0000001])
    # degree 256 builds; a polynomial outside the config stays uncapped
    assert len(potential_from_config({"kind": "polynomial", "coefficients": [1.0] * MAX_COEFFICIENTS}).coeffs) == 257
    assert len(PolynomialPotential([1.0] * 1000).coeffs) == 1000


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
    xs, ys, ts = grid_from_config({"grid": {"x": [0.0, 1.0, 100], "y": [0.0, 1.0, 100], "t": [0.1, 1.0, 100]}}, 8.0)
    assert len(xs) * len(ys) * len(ts) == MAX_GRID_POINTS
    # one point more, 101 x 9901 x 1, with a plain-list x axis and t axis
    over = {"x": np.linspace(0.0, 1.0, 101).tolist(), "y": [0.0, 1.0, 9901], "t": [0.5]}
    with pytest.raises(ConfigError, match=r"grid has 101x9901x1 = 1000001 points, above the cap of 1000000"):
        grid_from_config({"grid": over}, 8.0)


def test_grid_axis_count_is_parsed_or_refused():
    from heatkernel.config import grid_from_config
    from heatkernel.errors import ConfigError

    xs, ys, ts = grid_from_config({"grid": {"x": [-1, 1, 3], "y": [-1.0, 1.0, 3.0], "t": [0.1, 1, 1]}}, 8.0)
    assert xs.tolist() == [-1.0, 0.0, 1.0]  # [lo, hi, count]
    assert ys.tolist() == [-1.0, 1.0, 3.0]  # a float last entry: three values
    assert ts.tolist() == [0.1]
    for name, count in [("x", 0), ("y", -2), ("t", True), ("t", False)]:
        grid = {"x": [-1, 1, 3], "y": [-1, 1, 3], "t": [0.1, 1, 2], name: [0.1, 1, count]}
        with pytest.raises(ConfigError, match=rf"^grid\.{name} count must be an integer >= 1, got {count!r}$"):
            grid_from_config({"grid": grid}, 8.0)



@pytest.mark.parametrize(
    "envelopes, message",
    [
        (
            [{"family": "avg_upper", "beta": 0.9, "n": 2}],
            "envelopes[0].n is not a known key; known: family, beta",
        ),
        (
            [{"family": "avg_upper", "beta": 0.9}, {"family": "dirichlet_ball", "epsilon": 0.5}],
            "envelopes[1].family: unknown envelope family 'dirichlet_ball'; known: gaussian_upper,",
        ),
    ],
    ids=["n", "dirichlet_ball"],
)
def test_envelopes_have_no_dimension(tmp_path, capsys, envelopes, message):
    cfg = write_config(tmp_path, envelopes=envelopes)
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out"), "bounds"]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not list((tmp_path / "out").glob("*.csv"))


@pytest.mark.parametrize(
    "bad, message",
    [
        ({"family": "avg_upper", "beta": 7}, "envelopes[2]: beta must be in (0, 1], got 7.0"),
        ({"family": "avg_lower_far", "kappa": 1.5}, "envelopes[2]: kappa must be in (0, 1), got 1.5"),
        ({"family": "nonsense"}, "envelopes[2].family: unknown envelope family 'nonsense'"),
        # a time is usable only below epsilon^2 / ln 2, where 1 - 2 e^(-epsilon^2/t) > 0
        (
            {"family": "dirichlet_interval", "epsilon": 0.1},
            "envelopes[2].epsilon: dirichlet_interval fits no point at epsilon = 0.1: "
            "sqrt(t ln 2) is in [0.263277, 0.588705]",
        ),
        # epsilon^2 overflows a float
        (
            {"family": "dirichlet_interval", "epsilon": 1e200},
            "envelopes[2].epsilon: dirichlet_interval needs a finite epsilon**2, got epsilon = 1e+200",
        ),
    ],
)
@pytest.mark.parametrize("engine", ["explicit", "spectral"])
def test_a_bad_envelope_exits_2_before_any_fit(tmp_path, capsys, bad, message, engine):
    envelopes = [{"family": "avg_upper", "beta": 0.9}, {"family": "quadratic_sharp"}, bad]
    overrides = {"envelopes": envelopes, "engine": engine, "spectral": {"half_width": 4.0, "points": 101}}
    cfg = write_config(tmp_path, **overrides)
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out"), "bounds"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"config error: {message}" in captured.err
    assert not list((tmp_path / "out").glob("*.csv"))
    assert_resolve_refuses(overrides, captured.err)


@pytest.mark.parametrize(
    "grid, envelope, message",
    [
        (
            {"x": [0.0, 1.0, 3], "y": [2.0, 3.0, 3], "t": [0.5, 1.0, 2]},
            {"family": "avg_lower_near"},
            "envelopes[1].kappa: avg_lower_near fits no point at kappa = 0.125: |x - y| / sqrt(t) is in [1, 4.24264]",
        ),
        (
            {"x": [0.5], "y": [0.5], "t": [0.5, 1.0, 3]},
            {"family": "avg_lower_far", "kappa": 0.125},
            "envelopes[1].kappa: avg_lower_far fits no point at kappa = 0.125: |x - y| / sqrt(t) is in [0, 0]",
        ),
    ],
    ids=["no_near_point", "no_far_point"],
)
@pytest.mark.parametrize("engine", ["explicit", "spectral"])
def test_a_lower_regime_without_grid_points_exits_2_before_any_fit(tmp_path, capsys, grid, envelope, message, engine):
    # at the parent, bounds printed avg_upper's verdict and exited 1 at the fit
    envelopes = [{"family": "avg_upper", "beta": 0.9}, envelope]
    overrides = {"grid": grid, "envelopes": envelopes, "engine": engine, "spectral": {"half_width": 4.0, "points": 101}}
    cfg = write_config(tmp_path, **overrides)
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out"), "bounds"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: {message}\n"
    assert not list((tmp_path / "out").glob("*.csv"))
    assert_resolve_refuses(overrides, captured.err)


@pytest.mark.parametrize("engine", ["explicit", "spectral"])
def test_a_default_envelope_without_grid_points_exits_2_before_any_fit(tmp_path, capsys, engine):
    # unchecked, the default envelopes made bounds print four verdicts, then exit 1 at avg_lower_far's fit
    grid = {"x": [0.0], "y": [0.0], "t": [0.5]}
    cfg = {"engine": engine, "grid": grid, "spectral": {"half_width": 4.0, "points": 101}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert main(["--config", str(path), "--out", str(tmp_path / "out"), "bounds"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    message = "envelopes[4].kappa: avg_lower_far fits no point at kappa = 0.125: |x - y| / sqrt(t) is in [0, 0]"
    assert captured.err == f"config error: {message}\n"
    assert not list((tmp_path / "out").glob("*.csv"))
    # the config itself is sound: the default envelopes are checked by bounds, which fits them
    resolve(cfg)
    assert main(["--config", str(path), "--out", str(tmp_path / "out"), "kernel"]) == 0


def test_a_far_real_root_leaves_the_spectral_kernel_of_its_polynomial(tmp_path):
    # V = 1 + x^2 + 1e-8 x^3 read V(0) = 0 once divided by its inexact root near -1e8, and
    # the kernel came out as x^2's, log p(0, 0, 0.5) = -0.99959 in place of -1.49959.
    # V < 0 below that root, so a config refuses it; the box [-4, 4] sees only V > 0.
    from heatkernel import build_spectral, spectral_log_kernel

    potential = {"kind": "polynomial", "coefficients": [1.0, 0.0, 1.0, 1e-8]}
    cfg = write_config(tmp_path, engine="spectral", spectral={"half_width": 4.0, "points": 401}, potential=potential)
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out"), "kernel"]) == 2
    log_p = []
    for coeffs in ([1.0, 0.0, 1.0, 1e-8], [1.0, 0.0, 1.0]):
        K = build_spectral(PolynomialPotential(coeffs), 4.0, 401, 0.5)
        log_p.append(float(spectral_log_kernel(K, [0.0], [0.0], [0.5])[0, 0, 0]))
    assert log_p[0] == pytest.approx(-1.49959, abs=1e-5)
    assert log_p[0] == pytest.approx(log_p[1], abs=1e-7)


# Bad values in every section: `resolve` checks them all before any subcommand runs,
# whether or not the subcommand reads the section.
BAD_SECTIONS = [
    ({"engine": "foo"}, "unknown engine 'foo'; known: explicit, spectral"),
    ({"spectral": {"half_width": 8.0, "points": 2}}, "spectral.points must be an integer in [3, 11000], got 2"),
    ({"chain": {"x": 0.0, "y": 1.0, "t": -1}}, "chain.t must be a number > 0, got -1"),
    (
        {"chain": {"x": 0.0, "y": 3000.0, "t": 0.001}},
        "chain.y is too far from chain.x for chain.t=0.001: the chain needs M = 2.304e+12 links",
    ),
    ({"ode": {"t0": 1.0, "t1": 0.5, "samples": 20}}, "ode.t0 must be < ode.t1, got 1.0 >= 0.5"),
    ({"envelopes": []}, "envelopes must be a non-empty list"),
    ({"envelopes": [{"family": "avg_upper", "beta": 7}]}, "envelopes[0]: beta must be in (0, 1], got 7.0"),
    ({"tolerances": {"rel": -1}}, "tolerances.rel must be a number > 0, got -1"),
    ({"weights": {"depth": 40}}, "weights.depth must be an integer in [3, 20], got 40"),
    ({"grid": {"x": [0.0], "y": [0.0], "t": [0.0, 0.5]}}, "grid.t must be > 0, got 0.0"),
    (
        {"engine": "spectral", "spectral": {"half_width": 0.5, "points": 401}},
        "grid.x has the point -1.0 outside [-spectral.half_width, spectral.half_width] = [-0.5, 0.5]",
    ),
    (
        {"potential": {"kind": "tabulated", "table": "missing.csv"}},
        "potential.table: cannot read {dir}/missing.csv: No such file or directory",
    ),
    (
        {"potential": {"kind": "sum", "parts": [{"kind": "tabulated", "table": "missing.csv"}]}},
        "potential.parts[0].table: cannot read {dir}/missing.csv: No such file or directory",
    ),
]


@pytest.mark.parametrize("overrides, message", BAD_SECTIONS)
@pytest.mark.parametrize("command", ["kernel", "bounds", "weights", "ode", "chain", "verify"])
def test_a_bad_value_in_any_section_exits_2_under_every_subcommand(
    tmp_path, monkeypatch, capsys, command, overrides, message
):
    from heatkernel import acceptance, cli

    def no_work(*args, **kwargs):
        raise AssertionError("work began before the config was checked")

    for name in (
        "build_spectral", "quadratic_log_kernel", "quadratic_kernel", "fit_constants", "rh_constant",
        "ap_constant", "doubling_fit", "integrate_odes", "chain_plan", "cube_averages", "emit_csv",
    ):
        monkeypatch.setattr(cli, name, no_work)
    monkeypatch.setattr(acceptance, "run_all", no_work)
    base = json.loads(write_config(tmp_path).read_text())
    sections = {k: {**base[k], **v} if isinstance(base.get(k), dict) else v for k, v in overrides.items()}
    cfg = write_config(tmp_path, **sections)
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out"), command]) == 2
    assert f"config error: {message.format(dir=tmp_path)}" in capsys.readouterr().err
    assert not list((tmp_path / "out").glob("*.csv"))


@pytest.mark.parametrize(
    "command, overrides, message",
    [
        ("kernel", None, "{dir}/config.json: top level must be a JSON object"),
        ("weights", {"weights": 5}, "weights must be an object, got 5"),
        ("kernel", {"potential": {"coefficients": [1.0]}}, "missing key 'kind' in section 'potential'"),
        ("kernel", {"potential": {"kind": "wave"}}, "unknown potential kind 'wave'"),
        (
            "weights",
            {"potential": {"kind": "scaled", "factor": -1.0, "base": {"kind": "constant", "value": 1.0}}},
            "potential: scale factor must be > 0 to preserve nonnegativity",
        ),
        (
            "weights",
            {"potential": {"kind": "tabulated", "table": "bad_line.csv"}},
            "{dir}/bad_line.csv: line 3: expected 'coordinate,value'",
        ),
        (
            "weights",
            {"potential": {"kind": "tabulated", "table": "one_row.csv"}},
            "{dir}/one_row.csv: need at least 2 samples",
        ),
        (
            "kernel",
            {"potential": {"kind": "polynomial", "coefficients": [0, 0, 0]}},
            "explicit engine requires a quadratic potential with positive x^2 coefficient",
        ),
        ("kernel", {"grid": {"x": 0.5, "y": [0.0], "t": [0.5]}}, "grid axis 'x' must be a list"),
    ],
)
def test_every_config_refusal_exits_2_with_its_message(tmp_path, capsys, command, overrides, message):
    (tmp_path / "bad_line.csv").write_text("coordinate,value\n0.0,1.0\nnot a row\n1.0,1.0\n")
    (tmp_path / "one_row.csv").write_text("coordinate,value\n0.0,1.0\n")
    if overrides is None:
        (cfg := tmp_path / "config.json").write_text("[1.0]")
    else:
        cfg = write_config(tmp_path, **overrides)
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out"), command]) == 2
    assert capsys.readouterr().err == f"config error: {message.format(dir=tmp_path)}\n"
    assert not list((tmp_path / "out").glob("*.csv"))
