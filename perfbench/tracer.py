"""Per-layer spans for the traced run, recorded from outside the program.

The tracer replaces public functions of the `heatkernel` modules with
timing wrappers, in every module namespace that bound them (so
`cli.fit_constants` and `bounds.fit_constants` both report), and restores
them on `uninstall`.  A name that no longer exists is skipped: the metrics
that need it are left out of the report instead of failing the run.

Spans stay in memory, aggregated per job by (parent, name); the run writes
them out when it ends.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

from workloads import ENVELOPES

FAMILIES = tuple(e["family"] for e in ENVELOPES)

# (module, function, span name)
SPANS = (
    ("heatkernel.spectral", "build_spectral", "spectral.build"),
    ("heatkernel.spectral", "eval_spectral", "spectral.eval"),
    ("heatkernel.explicit", "quadratic_kernel", "explicit.kernel"),
    ("heatkernel.bounds", "fit_constants", "bounds.fit"),
    ("heatkernel.bounds", "chain_plan", "bounds.chain"),
    ("heatkernel.bounds", "chained_lower_bound", "bounds.chain"),
    ("heatkernel.potentials", "cube_average", "potentials.cube_average"),
    ("heatkernel.potentials", "rh_constant", "potentials.rh"),
    ("heatkernel.potentials", "ap_constant", "potentials.ap"),
    ("heatkernel.potentials", "doubling_fit", "potentials.doubling"),
    ("heatkernel.csvout", "emit_csv", "csvout.emit"),
)
KERNELS = ("spectral.eval", "explicit.kernel")


class Tracer:
    """Wraps the program's layer functions and accumulates their spans."""

    def __init__(self):
        self.seconds = defaultdict(float)  # span name -> total seconds
        self.calls = defaultdict(int)  # span name -> calls
        self.jobs = []  # per job: {"kind", "seconds", "spans": {"parent>name": [calls, seconds]}}
        self.counts = defaultdict(int)  # kernel calls and cube averages inside fits, grid points, rows
        self.installed = set()  # span names whose function was found
        self._saved = []  # (module, attribute, original)
        self._stack = []
        self._job_spans = None
        self._command = None  # subcommand of the current job
        self._covered = 0.0  # time inside outermost spans of the current job
        self.self_s = 0.0
        self.cache_hits = 0
        self._cache = None

    # -- installation -----------------------------------------------------

    def _replace(self, original, wrapper):
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "heatkernel" or name.startswith("heatkernel.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._saved.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def install(self):
        for modname, fname, span in SPANS:
            original = getattr(sys.modules.get(modname), fname, None)
            if original is None:
                continue
            self.installed.add(span)
            self._replace(original, self._wrap(original, span))
        points = getattr(sys.modules.get("heatkernel.bounds"), "grid_points", None)
        if points is not None:
            self.installed.add("bounds.points")
            self._replace(points, self._wrap_points(points))
        cached = getattr(sys.modules.get("heatkernel.spectral"), "cached_spectral", None)
        if cached is not None and hasattr(cached, "cache_info"):
            self.installed.add("spectral.cache")
            self._cache = cached
            self._replace(cached, self._wrap_cache(cached))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, fn, span):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else "cli"
            if span in KERNELS and "bounds.fit" in self._stack:
                self.counts["fit_kernel_calls"] += 1
            elif span == "potentials.cube_average" and "bounds.fit" in self._stack:
                self.counts["fit_cube_averages"] += 1
            label = span
            if span == "bounds.fit":
                family = args[2] if len(args) > 2 else kwargs.get("family")
                label = f"bounds.fit_s.{family}"
            elif span == "csvout.emit":
                records = args[0] if args else kwargs.get("records")
                if hasattr(records, "__len__"):
                    self.counts["rows"] += len(records)
            self._stack.append(span)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._stack.pop()
                self.seconds[span] += dt
                self.calls[span] += 1
                if label != span:
                    self.seconds[label] += dt
                if not self._stack:
                    self._covered += dt
                if self._job_spans is not None:
                    entry = self._job_spans[f"{parent}>{span}"]
                    entry[0] += 1
                    entry[1] += dt

        return wrapper

    def _wrap_points(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            pts = fn(*args, **kwargs)
            if self._command == "bounds":
                self.counts["bounds_points"] += len(pts)
            return pts

        return wrapper

    def _wrap_cache(self, cached):
        @functools.wraps(cached)
        def wrapper(*args, **kwargs):
            before = cached.cache_info().hits
            try:
                return cached(*args, **kwargs)
            finally:
                self.cache_hits += cached.cache_info().hits - before

        wrapper.cache_info = cached.cache_info
        wrapper.cache_clear = cached.cache_clear
        return wrapper

    # -- jobs ---------------------------------------------------------------

    def start_job(self, kind: str, command: str):
        self._command = command
        self._covered = 0.0
        self._job_spans = defaultdict(lambda: [0, 0.0])
        self.jobs.append({"kind": kind, "spans": self._job_spans})

    def end_job(self, seconds: float):
        self.self_s += seconds - self._covered
        self.jobs[-1]["seconds"] = seconds
        self.jobs[-1]["spans"] = dict(self._job_spans)
        self._job_spans = None
        self._command = None

    # -- report -------------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics; those whose wrapped function is missing are left out."""
        out = {}
        have = self.installed

        def put(name, value, unit, *needs):
            if all(n in have for n in needs):
                out[name] = (value, unit)

        put("spectral.build_s", self.seconds["spectral.build"], "s", "spectral.build")
        put("spectral.builds", self.calls["spectral.build"], "count", "spectral.build")
        put("spectral.eval_s", self.seconds["spectral.eval"], "s", "spectral.eval")
        put("spectral.evals", self.calls["spectral.eval"], "count", "spectral.eval")
        put("spectral.cache_hits", self.cache_hits, "count", "spectral.cache")
        if self._cache is not None:
            put("spectral.cached_kernels", self._cache.cache_info().currsize, "count", "spectral.cache")
        put("explicit.kernel_s", self.seconds["explicit.kernel"], "s", "explicit.kernel")
        put("explicit.kernel_calls", self.calls["explicit.kernel"], "count", "explicit.kernel")
        put("bounds.fit_s", self.seconds["bounds.fit"], "s", "bounds.fit")
        for family in FAMILIES:
            put(f"bounds.fit_s.{family}", self.seconds[f"bounds.fit_s.{family}"], "s", "bounds.fit")
        points = self.counts["bounds_points"]
        put("bounds.points", points, "count", "bounds.points")
        per_point = lambda n: n / points if points else 0.0  # noqa: E731
        put("bounds.kernel_calls_per_point", per_point(self.counts["fit_kernel_calls"]), "1",
            "bounds.fit", "bounds.points", *KERNELS)
        put("bounds.cube_averages_per_point", per_point(self.counts["fit_cube_averages"]), "1",
            "bounds.fit", "bounds.points", "potentials.cube_average")
        put("bounds.chain_s", self.seconds["bounds.chain"], "s", "bounds.chain")
        put("potentials.cube_average_s", self.seconds["potentials.cube_average"], "s", "potentials.cube_average")
        put("potentials.cube_average_calls", self.calls["potentials.cube_average"], "count", "potentials.cube_average")
        put("potentials.rh_s", self.seconds["potentials.rh"], "s", "potentials.rh")
        put("potentials.ap_s", self.seconds["potentials.ap"], "s", "potentials.ap")
        put("potentials.doubling_s", self.seconds["potentials.doubling"], "s", "potentials.doubling")
        put("csvout.emit_s", self.seconds["csvout.emit"], "s", "csvout.emit")
        put("csvout.rows", self.counts["rows"], "count", "csvout.emit")
        put("cli.self_s", self.self_s, "s")
        return out

    def wrapped_calls(self) -> int:
        return sum(self.calls.values())


def wrapper_cost(calls: int = 20000) -> float:
    """Seconds one wrapped call adds, measured on a no-op function."""

    def noop(*args):
        return None

    tracer = Tracer()
    wrapped = tracer._wrap(noop, "calibration")
    t0 = time.perf_counter()
    for _ in range(calls):
        noop(1, 2, 3)
    bare = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(calls):
        wrapped(1, 2, 3)
    return max(0.0, (time.perf_counter() - t0 - bare) / calls)
