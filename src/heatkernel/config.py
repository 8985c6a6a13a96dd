"""JSON run configurations: parsing, validation, and object construction.

The schema is a nested map of flat sections; every key is documented in the
README, and a key it does not know is refused.  `resolve` reads, defaults and
checks every section once, whatever the subcommand, and returns the plain
values the subcommands read.  Configs are canonicalized (sorted keys, fixed
separators) before hashing so identical settings always produce identical
provenance stamps.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from .bounds import C0_LOWER, FAMILIES, FAMILY_TABLE, BoundEnvelope, ChainPlan, chain_length, fit_mask, grid_columns
from .errors import ConfigError, ParameterError
from .explicit import T_FLOOR, QuadraticCoeffs
from .potentials import (
    PolynomialPotential,
    Potential,
    PowerPotential,
    ScaledPotential,
    SumPotential,
    TabulatedPotential,
)

ENGINES = ("explicit", "spectral")

DEFAULT_CONFIG = {
    "potential": {"kind": "polynomial", "coefficients": [0.0, 0.0, 1.0], "dimension": 1},
    "engine": "explicit",
    "grid": {"x": [-2.0, 2.0, 5], "y": [-2.0, 2.0, 5], "t": [0.05, 1.0, 4]},
    "envelopes": [
        {"family": "avg_upper", "beta": 0.99},
        {"family": "symmetrized_upper", "beta": 0.99},
        {"family": "quadratic_sharp"},
        {"family": "avg_lower_near", "kappa": 0.125},
        {"family": "avg_lower_far", "kappa": 0.125},
    ],
    "weights": {"rh_q": 1.5, "ap_p": 2.0, "window_center": 0.0, "window_side": 2.0, "depth": 12},
    "ode": {"t0": 0.01, "t1": 2.0, "samples": 120},
    "chain": {"x": 0.0, "y": 1.0, "t": 1.0},
    "spectral": {"half_width": 8.0, "points": 2001},
    "tolerances": {"rel": 1e-4},
}


# What a number of the config must be beyond an int or a float: the
# phrase its error message uses and the test.  The weight scans take 2^depth
# cubes at the deepest level, and every potential kind is one-dimensional.
# `ode` integrates for a time linear in sqrt(a2) t1, since DOP853's step stays
# near 1/sqrt(a2): 1.5 s at t1 = 1e4 and 8.3 s at 1e5 on V = x^2 with 10
# samples, and 1.0-1.4 s at sqrt(a2) t1 = 1e4 for a2 = 1, 1e4, 1e8 and 1e12 with
# 120 (2-vCPU Xeon VM).  So `cmd_ode`, once it has read the quadratic, refuses
# sqrt(a2) t1 > 1e4, naming ode.t1; the closed form it checks against is
# finite for t up to 1e4.
# A spectral build's eigenvector solve fills an m x k array for the k modes it
# keeps, and k reaches m when t_min is small: up to 8 m^2 bytes, 0.97 GB at the
# cap on spectral.points.  The build peaks near 1.2 times that array (traced at
# m = 2000 with k = m; 4.0 times before it wrote the array in place), so about
# 1.2 GB at the cap.  `ode` peaks at 128 MB RSS with 100,000 samples and
# 82 MB with 120 (one run each on a 2-vCPU Xeon VM).
LIMITS = {
    "potential.dimension": ("1", lambda v: v == 1),
    "weights.depth": ("an integer in [3, 20]", lambda v: isinstance(v, int) and 3 <= v <= 20),
    "weights.window_side": ("a number > 0", lambda v: v > 0),
    "weights.rh_q": ("a number > 1", lambda v: v > 1),
    "weights.ap_p": ("a number > 1", lambda v: v > 1),
    "ode.t0": ("a number > 0", lambda v: v > 0),
    "ode.t1": ("a number in (0, 1e4]", lambda v: 0 < v <= 1e4),
    "ode.samples": ("an integer in [2, 100000]", lambda v: isinstance(v, int) and 2 <= v <= 100_000),
    "chain.t": ("a number > 0", lambda v: v > 0),
    "chain.sigma": ("a number in (0, 1)", lambda v: 0 < v < 1),
    "chain.c0": ("a number > 0", lambda v: v > 0),
    "chain.c1": ("a number > 0", lambda v: v > 0),
    "spectral.points": ("an integer in [3, 11000]", lambda v: isinstance(v, int) and 3 <= v <= 11000),
    "spectral.half_width": ("a number > 0", lambda v: v > 0),
    "tolerances.rel": ("a number > 0", lambda v: v > 0),
}
# At the cap, closed-form `kernel` peaks at about 150 MB RSS and writes a 100 MB CSV
# in about 4 s on a 2-vCPU Xeon VM (one run of a 100^3 grid), and closed-form
# `bounds` evaluates every point once per family.
MAX_GRID_POINTS = 1_000_000
# The spectral engine holds P x P arrays per time slice for the P distinct x
# and y values: a 2000x1x1 `kernel` grid peaks at 128 MB RSS (same VM).
MAX_SPECTRAL_POINTS = 2000
# The first evaluation of a polynomial factors it through a d x d companion
# matrix, 8 d^2 bytes for d + 1 coefficients.
MAX_COEFFICIENTS = 257
# `ode` starts from the closed form at ode.t0 and loses accuracy below this: with
# t1 = 1 and 20 samples on V = x^2 and x + x^2, max_closed_form_error is 9.5e-7
# at t0 = 1e-6, 6.3e-6 at 1e-7 and 3.5e-4 at 1e-8 (0.34 at 1e-12, against
# tolerances.rel = 1e-4 by default); with t1 = 2 and 120 samples, 6.9e-6, 7.8e-5
# and 7.5e-4.
ODE_T0_FLOOR = 1e-6
# The sections of numbers only, each read whole by `resolve`.
NUMBER_SECTIONS = ("weights", "ode", "chain", "spectral", "tolerances")
# The keys of a number section that default to the chaining construction's
# own values, not to DEFAULT_CONFIG's: no sigma (chain_plan picks it), and the
# averaged lower envelope's c0 = C0_LOWER and c1 = 1.
OPTIONAL_KEYS = {"chain": {"sigma": None, "c0": C0_LOWER, "c1": 1.0}}
# The keys a potential of each kind reads besides `kind` and `dimension`.
POTENTIAL_KEYS = {
    "polynomial": ("coefficients",),
    "power": ("exponent",),
    "constant": ("value",),
    "tabulated": ("table",),
    "scaled": ("factor", "base"),
    "sum": ("parts",),
}


def _number(value, where: str, rule: str | None = None):
    """value, if it is a number that keeps the LIMITS entry of rule (by default, of where)."""
    what, ok = LIMITS.get(rule or where, ("a number", lambda v: True))
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not ok(value):
        raise ConfigError(f"{where} must be {what}, got {value!r}")
    return value


def load_config(path) -> dict:
    """Read a JSON config file holding an object (checked by `resolve`); parse errors carry line/column diagnostics."""
    text = Path(path).read_text()
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return cfg


def _refuse_unknown(spec: dict, known, where: str) -> None:
    """Raise ConfigError naming the first key of spec not in known, as in `weights.dept`."""
    for key in spec:
        if key not in known:
            name = f"{where}.{key}" if where else key
            raise ConfigError(f"{name} is not a known key; known: {', '.join(known)}")


def _reject_nonfinite(value, where: str):
    """Raise ConfigError naming the first NaN or infinite number, as in `chain.y`."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{where} must be a finite number, got {value}")
    if isinstance(value, dict):
        for key, item in value.items():
            _reject_nonfinite(item, f"{where}.{key}" if where else str(key))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _reject_nonfinite(item, f"{where}[{i}]")


def resolve(cfg: dict, base_dir: Path | None = None) -> dict:
    """Read, default and check every section of cfg: the values the subcommands read.

    Keys: `hash` (config_hash of cfg as given), `engine`, `potential`,
    `envelopes` (BoundEnvelopes), `grid` ((xs, ys, ts), or None when cfg has
    none) and each of NUMBER_SECTIONS, a dict with every default filled; a key
    whose default is an int (which its LIMITS entry requires) stays an int,
    the others are floats.  A bad value anywhere raises ConfigError naming its
    key, before any subcommand's work: first a NaN or an infinity, then a key
    the schema does not know; last, an envelope that cfg lists and that has
    no point of the grid to fit (`bounds.fit_mask`), named by its option.  A
    relative `tabulated.table` path resolves against base_dir.
    """
    _reject_nonfinite(cfg, "")
    _refuse_unknown(cfg, DEFAULT_CONFIG, "")
    for name, section in cfg.items():
        if name != "potential" and isinstance(section, dict) and isinstance(DEFAULT_CONFIG[name], dict):
            _refuse_unknown(section, (*DEFAULT_CONFIG[name], *OPTIONAL_KEYS.get(name, ())), name)
    if (engine := cfg.get("engine", "explicit")) not in ENGINES:
        raise ConfigError(f"unknown engine {engine!r}; known: {', '.join(ENGINES)}")
    run = {"hash": config_hash(cfg), "engine": engine}
    for name in NUMBER_SECTIONS:
        if not isinstance(section := cfg.get(name, {}), dict):
            raise ConfigError(f"{name} must be an object, got {section!r}")
        defaults = {**DEFAULT_CONFIG[name], **OPTIONAL_KEYS.get(name, {})}
        values = {k: _number(section[k], f"{name}.{k}") if k in section else v for k, v in defaults.items()}
        run[name] = {k: v if v is None or isinstance(defaults[k], int) else float(v) for k, v in values.items()}
    L, r = run["spectral"]["half_width"], run["spectral"]["points"] + 1.0
    if engine == "spectral" and not math.isfinite(r / L * (r / L) / 2.0):  # 2/h^2, the matrix's diagonal
        raise ConfigError(f"spectral.half_width must make 2/h^2 = (points + 1)^2 / (2 half_width^2) finite, got {L!r}")
    if (t0 := run["ode"]["t0"]) < ODE_T0_FLOOR:
        raise ConfigError(f"ode.t0 must be >= {ODE_T0_FLOOR:g}, got {t0!r}")
    if t0 >= (t1 := run["ode"]["t1"]):
        raise ConfigError(f"ode.t0 must be < ode.t1, got {t0!r} >= {t1!r}")
    x, y, t, sigma = (run["chain"][k] for k in ("x", "y", "t", "sigma"))
    try:
        plan = ChainPlan(x, y, t, chain_length(x, y, t), sigma)
    except ParameterError as exc:
        raise ConfigError(f"chain.y is too far from chain.x for chain.t={t:g}: {exc}") from exc
    if sigma is not None and not sigma < (sigma_max := plan.sigma_bound):
        raise ConfigError(f"chain.sigma must be < {sigma_max:.6g} here (the adjacent-cube condition), got {sigma!r}")
    run["potential"] = potential_from_config(cfg.get("potential", DEFAULT_CONFIG["potential"]), base_dir, engine=engine)
    if not isinstance(specs := cfg.get("envelopes", DEFAULT_CONFIG["envelopes"]), list):
        raise ConfigError(f"envelopes must be a list, got {specs!r}")
    if not specs:
        raise ConfigError("envelopes must be a non-empty list")
    run["envelopes"] = [envelope_from_config(spec, f"envelopes[{i}]") for i, spec in enumerate(specs)]
    run["grid"] = grid_from_config(cfg, run["spectral"]["half_width"]) if "grid" in cfg else None
    if "envelopes" in cfg and run["grid"] is not None:
        check_envelopes(run["envelopes"], run["grid"])
    return run


def check_envelopes(envelopes, grid) -> None:
    """Raise ConfigError, naming `envelopes[i]` and its option, at the first envelope that has
    no point of grid (xs, ys, ts) to fit (`bounds.fit_mask`)."""
    x, y, t = grid_columns(*grid)
    for i, env in enumerate(envelopes):
        option = FAMILY_TABLE[env.family][1]
        try:
            fit_mask(env.family, getattr(env, option) if option else None, x, y, t)
        except ParameterError as exc:
            raise ConfigError(f"envelopes[{i}].{option}: {exc}") from exc


def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _need(cfg: dict, key: str, section: str = ""):
    if not isinstance(cfg, dict):
        raise ConfigError(f"{section} must be an object, got {cfg!r}")
    if key not in cfg:
        where = f" in section {section!r}" if section else ""
        raise ConfigError(f"missing key {key!r}{where}")
    return cfg[key]


def potential_from_config(
    spec: dict, base_dir: Path | None = None, where: str = "potential", engine: str = "explicit"
) -> Potential:
    """Build a potential from its config section; `where` names it in errors, as `potential.base`.

    Keys: kind (polynomial | power | constant | tabulated | scaled | sum),
    dimension, and the POTENTIAL_KEYS of the kind; any other key is refused.
    A polynomial must be >= 0 on the line: V = 0, or an even degree, a
    positive leading coefficient and real roots (`breaks`) of even order.  A
    power needs an exponent > -1, and >= 0 on the spectral engine, whose
    nodes must see a bounded V.
    """
    kind = str(_need(spec, "kind", where)).lower()
    if kind not in POTENTIAL_KEYS:
        raise ConfigError(f"unknown potential kind {kind!r}")
    if "dimension" in spec:
        _number(spec["dimension"], f"{where}.dimension", "potential.dimension")
    try:
        if kind == "polynomial":
            key = f"{where}.coefficients"
            coeffs = [_number(c, f"{key}[{i}]") for i, c in enumerate(_need(spec, "coefficients", where))]
            if len(coeffs) > MAX_COEFFICIENTS:
                raise ConfigError(f"{key} has {len(coeffs)} entries, above the cap of {MAX_COEFFICIENTS}")
            V = PolynomialPotential(coeffs)
            c = np.trim_zeros(np.asarray(V.coeffs), "b")
            if len(c) and (len(c) % 2 == 0 or c[-1] < 0 or np.any(V.breaks[1] % 2)):
                raise ConfigError(f"{key} must give a polynomial >= 0 everywhere, got {coeffs!r}")
        elif kind == "power":
            key = f"{where}.exponent"
            if not (alpha := _number(_need(spec, "exponent", where), key)) > -1:  # else not locally integrable
                raise ConfigError(f"{key} must be > -1, got {alpha!r}")
            if alpha < 0 and engine == "spectral":
                raise ConfigError(f"{key} must be >= 0 on the spectral engine, got {alpha!r}")
            V = PowerPotential(alpha)
        elif kind == "constant":
            if (value := _number(_need(spec, "value", where), f"{where}.value")) < 0:
                raise ConfigError(f"{where}.value must be a number >= 0, got {value!r}")
            V = PolynomialPotential([value])
        elif kind == "tabulated":
            table = _need(spec, "table", where)
            path = Path(table)
            if base_dir is not None and not path.is_absolute():
                path = base_dir / path
            try:
                V = load_tabulated_csv(path)
            except OSError as exc:
                raise ConfigError(f"{where}.table: cannot read {path}: {exc.strerror}") from exc
        elif kind == "scaled":
            V = ScaledPotential(
                _number(_need(spec, "factor", where), f"{where}.factor"),
                potential_from_config(_need(spec, "base", where), base_dir, f"{where}.base", engine),
            )
        else:
            parts = enumerate(_need(spec, "parts", where))
            V = SumPotential(*(potential_from_config(p, base_dir, f"{where}.parts[{i}]", engine) for i, p in parts))
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    # after the kind's own keys, so that a bad value of one is named first
    _refuse_unknown(spec, ("kind", "dimension", *POTENTIAL_KEYS[kind]), where)
    return V


def load_tabulated_csv(path) -> TabulatedPotential:
    """Load a tabulated potential from CSV rows (coordinate, value) after `#` lines and an optional header; a NaN or an infinity is refused."""
    rows = []
    with open(path) as fh:
        lines = [(n, text) for n, line in enumerate(fh, 1) if (text := line.strip()) and not text.startswith("#")]
    for i, (line_no, line) in enumerate(lines):
        try:
            row = tuple(map(float, line.split(",")))
        except ValueError:
            if i == 0:
                continue  # the first line that is neither blank nor a comment may be a header
            row = ()  # refused below with a row of the wrong width
        if len(row) != 2:
            raise ConfigError(f"{path}: line {line_no}: expected 'coordinate,value'")
        if not all(map(math.isfinite, row)):
            raise ConfigError(f"{path}: line {line_no}: coordinate and value must be finite, got {line!r}")
        rows.append(row)
    if len(rows) < 2:
        raise ConfigError(f"{path}: need at least 2 samples")
    xs, vals = zip(*rows)
    return TabulatedPotential(xs, vals)


def quadratic_from_potential(V: Potential) -> QuadraticCoeffs:
    """Extract (a0, a1, a2) when V is a polynomial of degree exactly 2, trailing zero coefficients aside."""
    if not isinstance(V, PolynomialPotential):
        raise ConfigError("explicit engine requires a one-dimensional polynomial potential")
    coeffs = np.trim_zeros(np.asarray(V.coeffs), "b").tolist()
    if len(coeffs) != 3 or coeffs[2] <= 0.0:
        raise ConfigError("explicit engine requires a quadratic potential with positive x^2 coefficient")
    return QuadraticCoeffs(*coeffs)


def envelope_from_config(spec: dict, where: str) -> BoundEnvelope:
    """Keys: family plus the option of the family in `bounds.FAMILY_TABLE`, which takes
    its default there when left out; `where` (`envelopes[i]`) names the entry.

    `bounds` fits c0..c3 and C, so setting one is a config error, and so is
    leaving out an option without a default or giving any other key.
    """
    family = str(_need(spec, "family", where))
    if family not in FAMILIES:
        raise ConfigError(f"{where}.family: unknown envelope family {family!r}; known: {', '.join(FAMILIES)}")
    for key in ("c0", "c1", "c2", "c3", "C"):
        if key in spec:
            raise ConfigError(f"{where}.{key} cannot be set: bounds fits it")
    _, option, default, *_ = FAMILY_TABLE[family]
    if option is not None and default is None and option not in spec:
        raise ConfigError(f"{where}.{option} is required for family {family}")
    _refuse_unknown(spec, ("family", option) if option else ("family",), where)
    kwargs = {option: float(_number(spec.get(option, default), f"{where}.{option}"))} if option else {}
    try:
        return BoundEnvelope(family=family, **kwargs)
    except Exception as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _linspace_count(spec, name: str):
    """The count of a [lo, hi, count] axis, or None for a plain list of numbers.

    A three-entry list whose last entry is an int is [lo, hi, count], and a
    count below 1, or a bool, raises ConfigError naming the axis.
    """
    if not isinstance(spec, (list, tuple)) or not spec:
        raise ConfigError(f"grid axis {name!r} must be a list")
    if len(spec) != 3 or not isinstance(spec[2], int):
        return None
    if isinstance(spec[2], bool) or spec[2] < 1:
        raise ConfigError(f"grid.{name} count must be an integer >= 1, got {spec[2]!r}")
    return spec[2]


def axis_from_config(spec, name: str) -> np.ndarray:
    """[lo, hi, count] -> linspace; a plain list of numbers passes through."""
    count = _linspace_count(spec, name)
    values = [float(_number(v, f"grid.{name}[{i}]")) for i, v in enumerate(spec if count is None else spec[:2])]
    if count is None:
        return np.asarray(values)
    return np.linspace(*values, count)


def grid_from_config(cfg: dict, half_width: float):
    """The grid's axes (xs, ys, ts).

    A grid of more than MAX_GRID_POINTS points raises ConfigError before any
    axis is built.  So do, once the axes are built, a time <= 0; on the
    explicit engine, a time below the closed form's T_FLOOR; and on the
    spectral engine, an x or y outside [-half_width, half_width]
    (spectral.half_width) or more than MAX_SPECTRAL_POINTS distinct values
    across the two axes.  Each message names the axis.
    """
    grid = _need(cfg, "grid")
    names = ("x", "y", "t")
    specs = [_need(grid, name, "grid") for name in names]
    counts = [_linspace_count(spec, name) or len(spec) for spec, name in zip(specs, names)]
    points = math.prod(counts)
    if points > MAX_GRID_POINTS:
        shape = "x".join(map(str, counts))
        raise ConfigError(f"grid has {shape} = {points} points, above the cap of {MAX_GRID_POINTS}")
    xs, ys, ts = (axis_from_config(spec, name) for spec, name in zip(specs, names))
    if not (t_min := float(ts.min())) > 0:
        raise ConfigError(f"grid.t must be > 0, got {t_min!r}")
    engine = cfg.get("engine", "explicit")
    if engine == "explicit" and t_min < T_FLOOR:
        raise ConfigError(f"grid.t must be >= {T_FLOOR:g} on the explicit engine, got {t_min!r}")
    if engine == "spectral":
        for name, axis in (("x", xs), ("y", ys)):
            if np.any(outside := np.abs(axis) > half_width):
                box = f"[-spectral.half_width, spectral.half_width] = [{-half_width!r}, {half_width!r}]"
                raise ConfigError(f"grid.{name} has the point {float(axis[outside][0])!r} outside {box}")
        if (count := len(np.unique(np.concatenate([xs, ys])))) > MAX_SPECTRAL_POINTS:
            raise ConfigError(f"grid.x and grid.y have {count} distinct points, above the cap of {MAX_SPECTRAL_POINTS}")
    return xs, ys, ts
